#include "timing/dta.hpp"

#include <algorithm>

#include "obs/ledger.hpp"
#include "util/rng.hpp"

namespace sfi {

DtaClassResult run_dta_class(const Alu& alu, const InstanceTiming& timing,
                             ExClass cls, const DtaConfig& config,
                             obs::Ledger* ledger) {
    obs::Ledger* const wall = obs::wall_ledger(ledger);
    if (wall)
        wall->begin("dta_class", {{"class", ex_class_name(cls)},
                                  {"operand_bits", config.operand_bits}});
    DtaClassResult result;
    result.cls = cls;

    EventSimConfig sim_config;
    sim_config.clk_to_q_ps = config.clk_to_q_ps;
    EventSim sim(alu.netlist, timing,
                 {{"op", Alu::op_code(cls)}}, "y", sim_config);
    result.active_cells = sim.active_cell_count();

    const std::size_t width = sim.watch_width();
    result.arrivals_ps.assign(width, {});
    for (auto& per_endpoint : result.arrivals_ps)
        per_endpoint.reserve(config.cycles);

    // Seed per class so adding classes never perturbs existing statistics.
    Rng rng(config.seed ^ (static_cast<std::uint64_t>(cls) * 0x9e3779b97f4a7c15ULL));
    const std::uint32_t mask =
        config.operand_bits >= 32 ? 0xffffffffu
                                  : ((1u << config.operand_bits) - 1u);

    sim.set_input("a", rng.u32() & mask);
    sim.set_input("b", rng.u32() & mask);
    sim.initialize();

    for (std::size_t cycle = 0; cycle < config.cycles; ++cycle) {
        sim.set_input("a", rng.u32() & mask);
        sim.set_input("b", rng.u32() & mask);
        const std::vector<double>& arrivals = sim.settle();
        for (std::size_t bit = 0; bit < width; ++bit) {
            const double a = arrivals[bit];
            result.arrivals_ps[bit].push_back(static_cast<float>(a));
            result.max_arrival_ps = std::max(result.max_arrival_ps, a);
        }
    }
    result.events = sim.total_events();
    if (wall)
        wall->end("dta_class",
                  {{"items", static_cast<std::uint64_t>(config.cycles)},
                   {"events", result.events}});
    return result;
}

DtaResult run_dta(const Alu& alu, const InstanceTiming& timing,
                  const DtaConfig& config, obs::Ledger* ledger) {
    DtaResult result;
    result.setup_ps = timing.setup_ps();
    result.cycles = config.cycles;
    for (const ExClass cls : Alu::instruction_classes()) {
        result.classes.push_back(
            run_dta_class(alu, timing, cls, config, ledger));
        result.worst_arrival_ps =
            std::max(result.worst_arrival_ps, result.classes.back().max_arrival_ps);
    }
    return result;
}

}  // namespace sfi
