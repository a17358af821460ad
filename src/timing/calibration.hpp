// Synthesis-emulation calibration of the ALU timing.
//
// The paper's core is implemented with the constraint strategy of [14]:
// synthesis balances the block-level critical paths so that only the ALU
// endpoints limit fmax (707 MHz @ 0.7 V) while everything else is safe
// below a much higher threshold (1.15 GHz @ 0.7 V). We cannot run a
// commercial synthesizer, so this stage reproduces its *timing outcome*:
// each functional unit's cells are scaled by a single factor until the
// unit's instruction-conditioned STA matches a block-level target period.
// The delay *distribution inside* each unit — which determines the CDF
// shapes of model C — still comes from the real gate structure.
//
// Targets are minimum clock periods (including flip-flop setup) at the
// calibration voltage. Defaults reproduce the paper's operating point.
#pragma once

#include <map>
#include <vector>

#include "circuits/alu.hpp"
#include "timing/sta.hpp"
#include "timing/timing_lib.hpp"

namespace sfi {

struct CalibrationTargets {
    double vdd = 0.7;            ///< calibration voltage
    double mul_period_ps = 1414.4;    ///< -> f_STA = 707 MHz
    double add_period_ps = 1390.0;    ///< adder close behind (constraint strategy)
    double shift_period_ps = 1150.0;
    double logic_period_ps = 950.0;
    /// All non-ALU pipeline paths are constrained below this period; the
    /// paper's threshold frequency is 1.15 GHz @ 0.7 V.
    double non_alu_threshold_mhz = 1150.0;
    unsigned iterations = 10;    ///< fixed-point iterations
    /// Slack-compression strength emulating synthesis area recovery:
    /// cells on non-critical paths are downsized (slowed) toward the
    /// block constraint, so low-significance endpoints move closer to the
    /// timing wall, as in the paper's Fig. 2. 0 = none (raw structural
    /// delays), 1 = every path pushed onto the constraint (which erases
    /// the dynamic-slack transition regions entirely — see the
    /// compression ablation bench). The default narrows the per-bit
    /// spread while preserving the paper's PoFF gains and gradual
    /// failure behaviour.
    double compression = 0.35;
    /// Compression passes. One pass slows each cell by (target/path)^k,
    /// shrinking the per-endpoint spread to spread^(1-k); additional
    /// passes converge toward full compression regardless of k.
    unsigned compression_iterations = 1;
};

struct CalibrationResult {
    /// Per-cell scale factors that were applied to the InstanceTiming.
    std::vector<double> cell_scale;
    std::map<AluUnit, double> unit_scale;
    /// Per-class minimum period (ps, incl. setup) at the target voltage.
    std::map<ExClass, double> class_period_ps;
    /// Full-netlist (instruction-oblivious) STA limit at the target
    /// voltage — the "STA" line of the paper's figures.
    double sta_period_ps = 0.0;
    double sta_fmax_mhz = 0.0;
    double vdd = 0.0;
    double non_alu_threshold_mhz = 0.0;
};

/// Scales `timing` in place; returns the applied scales and the post-
/// calibration timing summary.
CalibrationResult calibrate_alu(const Alu& alu, InstanceTiming& timing,
                                const CalibrationTargets& targets = {});

/// Design STA view of the ALU endpoints: per-endpoint worst-case delay as
/// the element-wise maximum over all instruction-conditioned analyses.
/// This is what fault model B consumes (paper §3.2). Paths launched from
/// the function-select register (e.g. select -> operand-isolation ->
/// array) are excluded, reflecting the constraint strategy of [14] that
/// keeps control paths non-critical by construction.
StaResult endpoint_worst_sta(const Alu& alu, const InstanceTiming& timing);

}  // namespace sfi
