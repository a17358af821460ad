#include "timing/calibration.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "timing/const_prop.hpp"

namespace sfi {

namespace {

AluUnit unit_of_class(ExClass cls) {
    switch (cls) {
        case ExClass::Add:
        case ExClass::Sub:
        case ExClass::Cmp: return AluUnit::Adder;
        case ExClass::And:
        case ExClass::Or:
        case ExClass::Xor: return AluUnit::Logic;
        case ExClass::Sll:
        case ExClass::Srl:
        case ExClass::Sra: return AluUnit::Shifter;
        case ExClass::Mul: return AluUnit::Multiplier;
        case ExClass::None:
        case ExClass::kCount: break;
    }
    throw std::invalid_argument("unit_of_class: not an ALU class");
}

double unit_target_ps(const CalibrationTargets& targets, AluUnit unit) {
    switch (unit) {
        case AluUnit::Adder: return targets.add_period_ps;
        case AluUnit::Logic: return targets.logic_period_ps;
        case AluUnit::Shifter: return targets.shift_period_ps;
        case AluUnit::Multiplier: return targets.mul_period_ps;
        default: throw std::invalid_argument("unit_target_ps: no target for unit");
    }
}

/// Worst complete input->endpoint path length through every cell, for one
/// instruction class (ps @ Vref, launch included; 0 for cells outside the
/// class cone). Forward arrival pass + reverse longest-tail pass, both
/// honoring constant nets and constant-select mux blocking.
std::vector<double> path_through_cells(const Alu& alu,
                                       const InstanceTiming& timing,
                                       ExClass cls) {
    const Netlist& netlist = alu.netlist;
    const std::size_t count = netlist.cell_count();
    const auto constants =
        propagate_constants(netlist, {{"op", Alu::op_code(cls)}});
    auto is_const = [&](NetId id) { return constants[id] != NetConst::Variable; };
    auto blocked_pin = [&](const Cell& cell, unsigned pin) {
        if (cell.type != CellType::Mux2 || pin == 0) return false;
        if (!is_const(cell.fanin[0])) return false;
        const bool sel = constants[cell.fanin[0]] == NetConst::One;
        return (sel && pin == 1) || (!sel && pin == 2);
    };

    std::vector<double> arrival(count, -1.0);
    for (NetId id = 0; id < count; ++id) {
        const Cell& cell = netlist.cell(id);
        const unsigned n = cell_fanin_count(cell.type);
        if (n == 0) {
            if (cell.type == CellType::Input) arrival[id] = timing.clk_to_q_ps();
            continue;
        }
        if (is_const(id)) continue;
        double best = -1.0;
        for (unsigned i = 0; i < n; ++i) {
            const NetId in = cell.fanin[i];
            if (is_const(in) || blocked_pin(cell, i)) continue;
            best = std::max(best, arrival[in]);
        }
        if (best >= 0.0) arrival[id] = best + timing.max_ps(id);
    }

    // Longest tail from each cell's output to any endpoint.
    std::vector<double> tail(count, -1.0);
    for (const NetId net : netlist.output_bus("y"))
        if (net != kNoNet && !is_const(net)) tail[net] = 0.0;
    for (NetId id = static_cast<NetId>(count); id-- > 0;) {
        if (tail[id] < 0.0) continue;
        const Cell& cell = netlist.cell(id);
        const unsigned n = cell_fanin_count(cell.type);
        for (unsigned i = 0; i < n; ++i) {
            const NetId in = cell.fanin[i];
            if (is_const(in) || blocked_pin(cell, i)) continue;
            tail[in] = std::max(tail[in], tail[id] + timing.max_ps(id));
        }
    }

    std::vector<double> through(count, 0.0);
    for (NetId id = 0; id < count; ++id)
        if (arrival[id] >= 0.0 && tail[id] >= 0.0)
            through[id] = arrival[id] + tail[id];
    return through;
}

}  // namespace

CalibrationResult calibrate_alu(const Alu& alu, InstanceTiming& timing,
                                const CalibrationTargets& targets) {
    const TimingLib& lib = timing.lib();
    const double vf = lib.law().factor(targets.vdd);

    std::map<AluUnit, double> unit_scale = {
        {AluUnit::Adder, 1.0},
        {AluUnit::Logic, 1.0},
        {AluUnit::Shifter, 1.0},
        {AluUnit::Multiplier, 1.0},
        {AluUnit::Shared, 1.0},
    };

    // Per-cell slack-compression factors (>= 1, synthesis area recovery).
    std::vector<double> compression(alu.netlist.cell_count(), 1.0);

    auto make_scaled = [&](const std::map<AluUnit, double>& scales) {
        InstanceTiming scaled(alu.netlist, lib);
        std::vector<double> cell_scale(alu.netlist.cell_count());
        for (std::size_t id = 0; id < cell_scale.size(); ++id)
            cell_scale[id] = scales.at(alu.unit_of[id]) * compression[id];
        scaled.apply_cell_scale(cell_scale);
        return std::pair(std::move(scaled), std::move(cell_scale));
    };

    // Per-unit period at vdd = worst over the unit's instruction classes of
    // instruction-conditioned STA (shared mux cells included in the path).
    auto unit_periods = [&](const InstanceTiming& t) {
        std::map<AluUnit, double> worst;
        for (const ExClass cls : Alu::instruction_classes()) {
            const StaResult sta =
                run_sta(alu.netlist, t, {{"op", Alu::op_code(cls)}});
            const double period = sta.min_period_ps(vf);
            auto [it, inserted] = worst.emplace(unit_of_class(cls), period);
            if (!inserted && period > it->second) it->second = period;
        }
        return worst;
    };

    // Fixed-point iteration: shared-mux delay is part of each path but is
    // not scaled, so a plain multiplicative update converges geometrically.
    auto fit_unit_scales = [&] {
        for (unsigned iter = 0; iter < targets.iterations; ++iter) {
            auto [scaled, cell_scale] = make_scaled(unit_scale);
            const auto periods = unit_periods(scaled);
            for (auto& [unit, scale] : unit_scale) {
                if (unit == AluUnit::Shared) continue;
                const double current = periods.at(unit);
                if (current <= 0.0)
                    throw std::logic_error("calibrate_alu: degenerate unit period");
                scale *= unit_target_ps(targets, unit) / current;
            }
        }
    };
    fit_unit_scales();

    // Slack compression (synthesis area-recovery emulation): every cell is
    // slowed toward the point where its worst complete path meets the
    // block constraint, with exponent `compression` in [0, 1]. Paths
    // shared between cells couple the updates, so a few damped iterations
    // are used, followed by a unit-scale refit to pin the block targets.
    if (targets.compression > 0.0) {
        const double kappa = std::min(targets.compression, 1.0);
        for (unsigned iter = 0; iter < targets.compression_iterations; ++iter) {
            auto [scaled, cell_scale] = make_scaled(unit_scale);
            std::vector<double> worst_through(alu.netlist.cell_count(), 0.0);
            std::vector<double> cell_target(alu.netlist.cell_count(), 0.0);
            for (const ExClass cls : Alu::instruction_classes()) {
                const auto through = path_through_cells(alu, scaled, cls);
                // Window target at Vref for this class's unit constraint.
                const double window =
                    unit_target_ps(targets, unit_of_class(cls)) / vf -
                    scaled.setup_ps();
                for (NetId id = 0; id < through.size(); ++id) {
                    if (through[id] <= worst_through[id]) continue;
                    worst_through[id] = through[id];
                    cell_target[id] = window;
                }
            }
            for (NetId id = 0; id < compression.size(); ++id) {
                if (alu.unit_of[id] == AluUnit::Shared) continue;
                if (worst_through[id] <= 0.0 || cell_target[id] <= 0.0) continue;
                const double ratio = cell_target[id] / worst_through[id];
                if (ratio <= 1.0) continue;  // already at/over the constraint
                compression[id] =
                    std::min(compression[id] * std::pow(ratio, kappa), 8.0);
            }
        }
        fit_unit_scales();
    }

    auto [scaled, cell_scale] = make_scaled(unit_scale);
    CalibrationResult result;
    result.unit_scale = unit_scale;
    result.cell_scale = cell_scale;
    result.vdd = targets.vdd;
    result.non_alu_threshold_mhz = targets.non_alu_threshold_mhz;
    for (const ExClass cls : Alu::instruction_classes()) {
        const StaResult sta =
            run_sta(alu.netlist, scaled, {{"op", Alu::op_code(cls)}});
        result.class_period_ps[cls] = sta.min_period_ps(vf);
    }
    const StaResult full = endpoint_worst_sta(alu, scaled);
    result.sta_period_ps = full.min_period_ps(vf);
    result.sta_fmax_mhz = full.fmax_mhz(vf);

    timing = std::move(scaled);
    return result;
}

StaResult endpoint_worst_sta(const Alu& alu, const InstanceTiming& timing) {
    StaResult worst;
    worst.setup_ps = timing.setup_ps();
    for (const ExClass cls : Alu::instruction_classes()) {
        StaResult sta = run_sta(alu.netlist, timing, {{"op", Alu::op_code(cls)}});
        if (worst.endpoint_ps.empty())
            worst.endpoint_ps.assign(sta.endpoint_ps.size(), 0.0);
        for (std::size_t e = 0; e < sta.endpoint_ps.size(); ++e)
            worst.endpoint_ps[e] = std::max(worst.endpoint_ps[e], sta.endpoint_ps[e]);
        if (sta.worst_ps > worst.worst_ps) {
            worst.worst_ps = sta.worst_ps;
            worst.critical_path = std::move(sta.critical_path);
            worst.arrival_ps = std::move(sta.arrival_ps);
        }
    }
    return worst;
}

}  // namespace sfi
