// Dynamic timing analysis of the ALU (paper §3.4, method of [14]).
//
// For every ALU instruction class, an N-cycle characterization kernel
// applies fresh uniformly random operands each cycle and records the
// event-driven arrival time at each of the 32 endpoints. The resulting
// per-(instruction, endpoint) arrival-time samples are the raw material
// for the timing-error-probability CDFs of fault model C:
//     P_{E,V,I}(f) = v_f / n_I
// with v_f the number of cycles whose arrival (+ setup) exceeds 1/f.
//
// The kernel runs in chunks of kDtaChunkCycles cycles, each on a worker of
// util/parallel.hpp. A chunk starts with EventSim::initialize() on the
// operands of the cycle before it, which puts the simulator in exactly the
// state the previous cycle's settle() left, so the chunks reproduce the
// serial kernel bit for bit at any thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "circuits/alu.hpp"
#include "timing/event_sim.hpp"
#include "timing/timing_lib.hpp"

namespace sfi {

namespace obs {
class Ledger;
}

/// Cycles per characterization chunk. Not a knob: chunking never changes
/// a result, and the constant only sets the unit of parallel work.
inline constexpr std::size_t kDtaChunkCycles = 128;

struct DtaConfig {
    std::size_t cycles = 8192;  ///< characterization kernel length (paper: 8 k)
    std::uint64_t seed = 0xD7A0C0DEULL;
    /// Restrict operands to this many low bits (32 = full range). Used by
    /// the instruction-characterization experiment (16-bit adds, Fig. 4).
    unsigned operand_bits = 32;
};

struct DtaClassResult {
    ExClass cls = ExClass::None;
    /// arrivals_ps[endpoint][cycle], ps at Vref; 0 when the endpoint did
    /// not toggle that cycle (cannot mis-capture).
    std::vector<std::vector<float>> arrivals_ps;
    double max_arrival_ps = 0.0;   ///< worst observed arrival (dynamic slack)
    std::size_t active_cells = 0;  ///< size of the instruction's logic cone
    std::uint64_t events = 0;      ///< simulation effort, for reports
};

struct DtaResult {
    std::vector<DtaClassResult> classes;  ///< in Alu::instruction_classes() order
    double setup_ps = 0.0;
    std::size_t cycles = 0;
    double worst_arrival_ps = 0.0;  ///< max over classes
};

/// Characterizes every instruction class of `alu`: one run_dta_class per
/// class, each recording its span on `ledger` and running its chunks on
/// `threads` workers.
DtaResult run_dta(const Alu& alu, const InstanceTiming& timing,
                  const DtaConfig& config = {}, obs::Ledger* ledger = nullptr,
                  std::size_t threads = 1);

/// Characterizes a single class. The operands are drawn up front in the
/// serial kernel's order; the cycles then run in kDtaChunkCycles chunks
/// on `threads` workers (0 = one per hardware thread; the calling thread
/// is one of them, and with one worker the chunks run in order). The
/// result is identical at every thread count: arrivals are stored by
/// cycle, events summed and maxima taken over the chunks.
///
/// A wall-mode `ledger` gets a "dta_class" span {class, operand_bits}
/// on the calling thread, closed after the workers joined, whose end
/// carries items = kernel cycles and the simulated events; logical
/// ledgers get nothing (obs::wall_ledger). Workers never touch the
/// ledger. Throws std::invalid_argument when config.cycles is 0: an empty
/// kernel would yield a class that never faults.
DtaClassResult run_dta_class(const Alu& alu, const InstanceTiming& timing,
                             ExClass cls, const DtaConfig& config = {},
                             obs::Ledger* ledger = nullptr,
                             std::size_t threads = 1);

}  // namespace sfi
