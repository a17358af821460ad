#include "timing/dta.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "obs/ledger.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace sfi {

DtaClassResult run_dta_class(const Alu& alu, const InstanceTiming& timing,
                             ExClass cls, const DtaConfig& config,
                             obs::Ledger* ledger, std::size_t threads) {
    const std::size_t cycles = config.cycles;
    if (cycles == 0)
        throw std::invalid_argument("run_dta_class: cycles must be positive");
    obs::Ledger* const wall = obs::wall_ledger(ledger);
    if (wall)
        wall->begin("dta_class", {{"class", ex_class_name(cls)},
                                  {"operand_bits", config.operand_bits}});

    // operands[0] is the steady state before cycle 0; cycle c switches to
    // operands[c + 1]. Seed per class so adding classes never perturbs
    // existing statistics.
    Rng rng(config.seed ^ (static_cast<std::uint64_t>(cls) * 0x9e3779b97f4a7c15ULL));
    const std::uint32_t mask =
        config.operand_bits >= 32 ? 0xffffffffu
                                  : ((1u << config.operand_bits) - 1u);
    struct Operands {
        std::uint32_t a, b;
    };
    std::vector<Operands> operands(cycles + 1);
    for (Operands& op : operands) {
        op.a = rng.u32() & mask;
        op.b = rng.u32() & mask;
    }

    const std::map<std::string, std::uint64_t> fixed = {{"op", Alu::op_code(cls)}};
    const std::size_t chunks = (cycles + kDtaChunkCycles - 1) / kDtaChunkCycles;
    const std::size_t workers =
        std::clamp<std::size_t>(resolve_thread_count(threads), 1, chunks);

    // One simulator and one running maximum per worker; arrivals land in
    // their cycle's slot, so no schedule can reorder the result.
    std::vector<std::optional<EventSim>> sims(workers);
    std::vector<double> worker_max(workers, 0.0);
    DtaClassResult result;
    result.cls = cls;
    result.arrivals_ps.assign(alu.netlist.output_bus("y").size(),
                              std::vector<float>(cycles, 0.0f));
    for_each_trial(chunks, workers, 1, [&](std::size_t worker, std::uint64_t chunk) {
        std::optional<EventSim>& slot = sims[worker];
        if (!slot) slot.emplace(alu.netlist, timing, fixed, "y");
        EventSim& sim = *slot;
        const std::size_t first = static_cast<std::size_t>(chunk) * kDtaChunkCycles;
        const std::size_t last = std::min(first + kDtaChunkCycles, cycles);
        sim.set_input("a", operands[first].a);
        sim.set_input("b", operands[first].b);
        sim.initialize();
        double max_arrival = 0.0;
        for (std::size_t cycle = first; cycle < last; ++cycle) {
            sim.set_input("a", operands[cycle + 1].a);
            sim.set_input("b", operands[cycle + 1].b);
            const std::vector<double>& arrivals = sim.settle();
            for (std::size_t bit = 0; bit < arrivals.size(); ++bit) {
                result.arrivals_ps[bit][cycle] = static_cast<float>(arrivals[bit]);
                max_arrival = std::max(max_arrival, arrivals[bit]);
            }
        }
        worker_max[worker] = std::max(worker_max[worker], max_arrival);
    });
    for (std::size_t worker = 0; worker < workers; ++worker) {
        if (!sims[worker]) continue;
        result.active_cells = sims[worker]->active_cell_count();
        result.events += sims[worker]->total_events();
        result.max_arrival_ps = std::max(result.max_arrival_ps, worker_max[worker]);
    }
    if (wall)
        wall->end("dta_class",
                  {{"items", static_cast<std::uint64_t>(cycles)},
                   {"events", result.events}});
    return result;
}

DtaResult run_dta(const Alu& alu, const InstanceTiming& timing,
                  const DtaConfig& config, obs::Ledger* ledger,
                  std::size_t threads) {
    DtaResult result;
    result.setup_ps = timing.setup_ps();
    result.cycles = config.cycles;
    for (const ExClass cls : Alu::instruction_classes()) {
        result.classes.push_back(
            run_dta_class(alu, timing, cls, config, ledger, threads));
        result.worst_arrival_ps =
            std::max(result.worst_arrival_ps, result.classes.back().max_arrival_ps);
    }
    return result;
}

}  // namespace sfi
