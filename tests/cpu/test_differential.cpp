// Differential fuzz harness: the ISS (Cpu::run, the decode-once threaded
// interpreter of src/cpu/interp.cpp) must be observably indistinguishable
// from the reference interpreter (tests/testing/reference_cpu.hpp), a
// plain fetch / decode-every-word / execute loop.
//
// Thousands of seeded ISA-complete programs (tests/testing/
// program_gen.hpp) run through BOTH; after each run every observable is
// compared field by field:
//
//   * the full RunResult (stop reason, exit code, cycle/instruction and
//     kernel counters, fault address),
//   * architectural state: all 32 registers, pc, compare flag, the FI
//     window flag, and the complete memory image (self-modifying stores
//     included),
//   * fault-model state: FiStats for models A / A-clean / B / B+ / C and
//     a razor decorator's inner model; and, in a second probed run, every
//     injection record a ForensicProbe sees (with its detector fate) and
//     the probe's detection/escape counts,
//   * the raw hook trace: the exact sequence of on_cycles groups and
//     on_ex_result events a generic (non-FaultModel) hook observes,
//     including deterministic corruption fed back into the pipeline,
//   * the instruction trace: the (pc, opcode, FI-window flag) sequence
//     Cpu::set_trace reports against the reference interpreter's walk.
//
// The one permitted divergence is RNG *consumption* on clean runs (the
// ISS's clean-model shortcut counts provably-clean ops without drawing),
// which is unobservable under the Monte-Carlo contract of one reseed per
// trial — exactly how these runs reseed.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "cpu/cpu.hpp"
#include "fi/cdf.hpp"
#include "fi/forensics.hpp"
#include "fi/mitigation.hpp"
#include "fi/models.hpp"
#include "isa/encoding.hpp"
#include "testing/program_gen.hpp"
#include "testing/reference_cpu.hpp"
#include "timing/dta.hpp"
#include "timing/sta.hpp"
#include "timing/vdd_model.hpp"

namespace sfi {
namespace {

using testing::ReferenceCpu;

constexpr std::uint32_t kMemBytes = 1u << 16;
// Generous enough that loop-free programs always halt, small enough that
// the backward-branch loops the generator emits terminate the test
// quickly via Watchdog — itself a compared outcome.
constexpr std::uint64_t kMaxCycles = 20000;

// ---------------------------------------------------------------------------
// Synthetic fault-model prototypes. Built from hand-written timing data
// (not the expensive CharacterizedCore fixture) so the suite fits the
// 120 s unit-test tier; the models exercise the exact same hook paths.
// ---------------------------------------------------------------------------

const VddDelayFit& fit() {
    static const VddDelayFit f({0.5, 0.6, 0.7, 0.8, 0.9},
                               {2.0, 1.6, 1.3, 1.1, 1.0});
    return f;
}

StaResult synthetic_sta() {
    StaResult sta;
    sta.endpoint_ps.resize(32);
    for (std::size_t i = 0; i < 32; ++i)
        sta.endpoint_ps[i] = 500.0 + 30.0 * static_cast<double>(i);
    sta.worst_ps = sta.endpoint_ps.back();
    sta.setup_ps = 50.0;
    return sta;
}

std::shared_ptr<const TimingErrorCdfs> synthetic_cdfs() {
    DtaResult dta;
    dta.setup_ps = 50.0;
    dta.cycles = 64;
    for (std::size_t c = 1; c < kExClassCount; ++c) {  // skip None
        DtaClassResult cls;
        cls.cls = static_cast<ExClass>(c);
        cls.arrivals_ps.resize(32);
        const double base = 600.0 + 40.0 * static_cast<double>(c);
        for (std::size_t e = 0; e < 32; ++e) {
            cls.arrivals_ps[e].resize(dta.cycles);
            for (std::size_t k = 0; k < dta.cycles; ++k) {
                // Deterministic spread; a few zero samples model cycles
                // where the endpoint did not toggle.
                if ((e + k) % 13 == 0) continue;
                const double a = base + 20.0 * static_cast<double>(e) +
                                 static_cast<double>((k * 37) % 120);
                cls.arrivals_ps[e][k] = static_cast<float>(a);
                cls.max_arrival_ps = std::max(cls.max_arrival_ps, a);
            }
        }
        dta.worst_arrival_ps = std::max(dta.worst_arrival_ps, cls.max_arrival_ps);
        dta.classes.push_back(std::move(cls));
    }
    return std::make_shared<const TimingErrorCdfs>(TimingErrorCdfs::from_dta(dta));
}

// 549 MHz @ 0.7 V: capture window ~1401 ps @ Vref — the three most
// critical STA endpoints violate deterministically (model B), the
// near-threshold ones flip in and out under noise (B+), and the per-class
// CDFs yield mid-range probabilities (C).
OperatingPoint op_point(double sigma_mv = 0.0) {
    OperatingPoint point;
    point.freq_mhz = 549.0;
    point.vdd = 0.7;
    point.noise.sigma_mv = sigma_mv;
    return point;
}

struct ModelConfig {
    std::string label;
    std::unique_ptr<FaultModel> prototype;  // null = no hook installed
};

std::vector<ModelConfig> make_model_configs() {
    std::vector<ModelConfig> configs;
    configs.push_back({"no-hook", nullptr});

    auto a = std::make_unique<ModelA>(1e-3);
    a->set_operating_point(op_point());
    configs.push_back({"modelA", std::move(a)});

    // can_inject() == false: the reference drives corrupt() per op while
    // the ISS takes the clean-model shortcut — stats must still agree.
    auto a0 = std::make_unique<ModelA>(0.0);
    a0->set_operating_point(op_point());
    configs.push_back({"modelA-clean", std::move(a0)});

    auto b = std::make_unique<ModelB>(synthetic_sta(), fit());
    b->set_operating_point(op_point());
    configs.push_back({"modelB", std::move(b)});

    auto bplus = std::make_unique<ModelB>(synthetic_sta(), fit());
    bplus->set_operating_point(op_point(10.0));
    configs.push_back({"modelB+", std::move(bplus)});

    auto c = std::make_unique<ModelC>(synthetic_cdfs(), fit());
    c->set_operating_point(op_point(10.0));
    configs.push_back({"modelC", std::move(c)});

    auto razor_inner = std::make_unique<ModelB>(synthetic_sta(), fit());
    razor_inner->set_operating_point(op_point(10.0));
    auto razor = std::make_unique<DetectionModel>(
        std::move(razor_inner), RazorConfig{0.8, 11});
    configs.push_back({"razor(modelB+)", std::move(razor)});

    // Razor over a provably clean inner model: the ISS's shortcut must
    // keep BOTH counter sets (outer and inner) in lock-step via the
    // count_clean_ops forwarding chain.
    auto razor_clean = std::make_unique<DetectionModel>(
        std::make_unique<ModelA>(0.0), RazorConfig{0.8, 11});
    razor_clean->set_operating_point(op_point());
    configs.push_back({"razor(modelA-clean)", std::move(razor_clean)});

    return configs;
}

// ---------------------------------------------------------------------------
// One run -> everything observable.
// ---------------------------------------------------------------------------

/// One instruction as an instruction trace reports it.
struct TraceStep {
    std::uint32_t pc = 0;
    Op op = Op::NOP;
    bool fi = false;
    bool operator==(const TraceStep&) const = default;
};

struct Observation {
    RunResult run;
    std::array<std::uint32_t, 32> regs{};
    std::uint32_t pc = 0;
    bool flag = false;
    bool fi_active = false;
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::vector<std::uint32_t> mem;
    FiStats stats{};
    FiStats inner_stats{};  ///< a decorator's inner model
    /// What a ForensicProbe saw (probed runs only): every injection record
    /// with its detector fate, and the verdict counts.
    std::vector<FaultRecord> records;
    std::uint32_t detected = 0;
    std::uint32_t escaped = 0;
};

/// Runs `program` on a fresh Engine (Cpu or ReferenceCpu); a non-null
/// `trace` records the instruction walk (Cpu::set_trace's view), and
/// `probed` attaches a ForensicProbe to the model for the run.
template <typename Engine>
Observation run_one(const Program& program, const FaultModel* prototype,
                    std::uint64_t seed, std::vector<TraceStep>* trace = nullptr,
                    bool probed = false) {
    Memory mem(kMemBytes);
    Engine cpu(mem);
    if (trace) {
        if constexpr (std::is_same_v<Engine, Cpu>)
            cpu.set_trace([trace](std::uint32_t pc, Op op, bool fi) {
                trace->push_back({pc, op, fi});
            });
        else
            cpu.set_trace([trace](std::uint32_t pc, const Instr& instr, bool fi) {
                trace->push_back({pc, instr.op, fi});
            });
    }
    std::unique_ptr<FaultModel> model;
    ForensicProbe probe;
    if (prototype) {
        model = prototype->clone();
        model->reseed(seed * 0x9e3779b97f4a7c15ULL + 1);
        if (probed) model->set_forensic_probe(&probe);
        cpu.set_fault_hook(model.get());
    }
    cpu.reset(program);

    Observation ob;
    ob.run = cpu.run(kMaxCycles);
    for (std::uint8_t r = 0; r < 32; ++r) ob.regs[r] = cpu.reg(r);
    ob.pc = cpu.pc();
    ob.flag = cpu.flag();
    ob.fi_active = cpu.fi_active();
    ob.cycles = cpu.cycles();
    ob.instructions = cpu.instructions();
    ob.mem.resize(kMemBytes / 4);
    for (std::uint32_t w = 0; w < kMemBytes / 4; ++w)
        ob.mem[w] = mem.read_u32_unchecked(w * 4);
    if (model) {
        ob.stats = model->stats();
        if (const auto* razor =
                dynamic_cast<const DetectionModel*>(model.get()))
            ob.inner_stats = razor->inner().stats();
        ob.records = probe.records();
        ob.detected = probe.detected();
        ob.escaped = probe.escaped();
    }
    return ob;
}

void expect_equal(const Observation& want, const Observation& got,
                  const std::string& ctx) {
    EXPECT_EQ(int(want.run.stop), int(got.run.stop)) << ctx;
    EXPECT_EQ(want.run.exit_code, got.run.exit_code) << ctx;
    EXPECT_EQ(want.run.cycles, got.run.cycles) << ctx;
    EXPECT_EQ(want.run.instructions, got.run.instructions) << ctx;
    EXPECT_EQ(want.run.kernel_cycles, got.run.kernel_cycles) << ctx;
    EXPECT_EQ(want.run.kernel_instructions, got.run.kernel_instructions)
        << ctx;
    EXPECT_EQ(want.run.fault_addr, got.run.fault_addr) << ctx;

    for (std::uint8_t r = 0; r < 32; ++r)
        if (want.regs[r] != got.regs[r])
            ADD_FAILURE() << ctx << ": r" << int(r) << " reference=0x" << std::hex
                          << want.regs[r] << " iss=0x" << got.regs[r];
    EXPECT_EQ(want.pc, got.pc) << ctx;
    EXPECT_EQ(want.flag, got.flag) << ctx;
    EXPECT_EQ(want.fi_active, got.fi_active) << ctx;
    EXPECT_EQ(want.cycles, got.cycles) << ctx;
    EXPECT_EQ(want.instructions, got.instructions) << ctx;

    ASSERT_EQ(want.mem.size(), got.mem.size()) << ctx;
    for (std::size_t w = 0; w < want.mem.size(); ++w)
        if (want.mem[w] != got.mem[w]) {
            ADD_FAILURE() << ctx << ": mem word 0x" << std::hex << w * 4
                          << " reference=0x" << want.mem[w] << " iss=0x"
                          << got.mem[w];
            break;  // first divergence is the informative one
        }

    EXPECT_EQ(want.stats.fi_cycles, got.stats.fi_cycles) << ctx;
    EXPECT_EQ(want.stats.alu_ops, got.stats.alu_ops) << ctx;
    EXPECT_EQ(want.stats.injections, got.stats.injections) << ctx;
    EXPECT_EQ(want.stats.corrupted_ops, got.stats.corrupted_ops) << ctx;
    EXPECT_EQ(want.inner_stats.alu_ops, got.inner_stats.alu_ops) << ctx;
    EXPECT_EQ(want.inner_stats.injections, got.inner_stats.injections)
        << ctx;
    EXPECT_EQ(want.inner_stats.corrupted_ops,
              got.inner_stats.corrupted_ops)
        << ctx;
    EXPECT_EQ(want.detected, got.detected) << ctx;
    EXPECT_EQ(want.escaped, got.escaped) << ctx;
    ASSERT_EQ(want.records.size(), got.records.size()) << ctx;
    for (std::size_t i = 0; i < want.records.size(); ++i)
        if (!(want.records[i] == got.records[i])) {
            ADD_FAILURE() << ctx << ": injection record " << i
                          << " differs (reference cycle "
                          << want.records[i].cycle << " pc 0x" << std::hex
                          << want.records[i].pc << ", iss cycle " << std::dec
                          << got.records[i].cycle << " pc 0x" << std::hex
                          << got.records[i].pc << ")";
            break;  // first divergence is the informative one
        }
}

// ---------------------------------------------------------------------------
// The harness's "undecodable word" claim must hold or IllegalInstr
// coverage silently evaporates.
// ---------------------------------------------------------------------------

TEST(OracleDifferential, FuzzFillerWordIsUndecodable) {
    EXPECT_FALSE(decode(0xffffffffu).has_value());
    EXPECT_FALSE(decode(0xfc000000u).has_value());
}

// ---------------------------------------------------------------------------
// No-fault sweep: thousands of seeds, plus a stop-reason coverage audit
// so generator drift cannot quietly shrink what "ISA-complete" means.
// ---------------------------------------------------------------------------

TEST(OracleDifferential, NoFaultThousandsOfSeeds) {
    std::map<StopReason, std::size_t> reasons;
    for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
        const Program program = testgen::generate_fuzz_program(seed);
        const Observation want = run_one<ReferenceCpu>(program, nullptr, seed);
        const Observation got = run_one<Cpu>(program, nullptr, seed);
        expect_equal(want, got, "seed " + std::to_string(seed));
        ++reasons[want.run.stop];
        if (HasFailure()) break;  // one seed's dump is enough to debug
    }
    // The sweep must exercise every termination path the generator is
    // designed to reach (FetchFault needs self-modified code to fabricate
    // a wild jump, so it is reported but not required).
    EXPECT_GT(reasons[StopReason::Halted], 0u);
    EXPECT_GT(reasons[StopReason::Watchdog], 0u);
    EXPECT_GT(reasons[StopReason::SelfLoop], 0u);
    EXPECT_GT(reasons[StopReason::MemFault], 0u);
    EXPECT_GT(reasons[StopReason::IllegalInstr], 0u);
    for (const auto& [reason, count] : reasons)
        std::cout << "[coverage] " << stop_reason_name(reason) << ": " << count
                  << "\n";
}

// Longer bodies shift the instruction mix toward deep loops and more
// self-modification; a smaller seed sweep keeps the runtime bounded.
TEST(OracleDifferential, NoFaultLongPrograms) {
    testgen::FuzzConfig cfg;
    cfg.body_length = 256;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        const Program program = testgen::generate_fuzz_program(seed, cfg);
        const Observation want = run_one<ReferenceCpu>(program, nullptr, seed);
        const Observation got = run_one<Cpu>(program, nullptr, seed);
        expect_equal(want, got, "long seed " + std::to_string(seed));
        if (HasFailure()) break;
    }
}

// ---------------------------------------------------------------------------
// Fault-model sweep: models A / A-clean / B / B+ / C and razor
// decorations, several hundred seeds each.
// ---------------------------------------------------------------------------

TEST(OracleDifferential, FaultModelsSeveralHundredSeedsEach) {
    const std::vector<ModelConfig> configs = make_model_configs();
    for (const ModelConfig& config : configs) {
        if (!config.prototype) continue;  // covered by the sweeps above
        std::uint64_t injections = 0;
        for (std::uint64_t seed = 1; seed <= 300; ++seed) {
            const Program program = testgen::generate_fuzz_program(seed);
            const std::string ctx =
                config.label + " seed " + std::to_string(seed);
            const Observation want = run_one<ReferenceCpu>(
                program, config.prototype.get(), seed);
            const Observation got =
                run_one<Cpu>(program, config.prototype.get(), seed);
            expect_equal(want, got, ctx);
            // Again under a forensic probe: both engines must present the
            // same injections (cycle, pc, window, op, endpoint, bits,
            // detector fate) and the same verdict counts.
            const Observation want_probed = run_one<ReferenceCpu>(
                program, config.prototype.get(), seed, nullptr, true);
            const Observation got_probed = run_one<Cpu>(
                program, config.prototype.get(), seed, nullptr, true);
            expect_equal(want_probed, got_probed, ctx + " probed");
            EXPECT_EQ(want_probed.stats.injections, want.stats.injections)
                << ctx << ": the probe changed the run";
            injections += want.stats.injections;
            if (HasFailure()) break;
        }
        // The injecting configurations must actually inject, or the
        // ModelPolicy path was never really exercised.
        if (config.prototype->can_inject())
            EXPECT_GT(injections, 0u) << config.label;
        else
            EXPECT_EQ(injections, 0u) << config.label;
    }
}

// ---------------------------------------------------------------------------
// Raw hook-trace identity: a generic (non-FaultModel) hook must observe
// the exact same call sequence from both — same on_cycles grouping (stall
// bubbles with their instruction, branch flushes as a separate group),
// same FI-window flags, same EX events (pc and window ordinal included)
// in the same order. The hook corrupts deterministically so wrong
// results feed back into flags/branches identically on both sides.
// ---------------------------------------------------------------------------

class RecordingHook final : public ExFaultHook {
public:
    struct CycleGroup {
        std::uint64_t n;
        bool fi;
        bool operator==(const CycleGroup&) const = default;
    };
    struct Ex {
        Op op;
        ExClass cls;
        std::uint32_t a, b, prev, correct, returned;
        std::uint64_t cycle;
        std::uint32_t pc, window;
        bool operator==(const Ex&) const = default;
    };

    void on_cycle(bool fi_active) override { groups.push_back({1, fi_active}); }
    void on_cycles(std::uint64_t n, bool fi_active) override {
        groups.push_back({n, fi_active});
    }
    std::uint32_t on_ex_result(const ExEvent& ev, std::uint32_t correct) override {
        // Every 7th EX result gets a deterministic single-bit corruption.
        std::uint32_t returned = correct;
        if (events.size() % 7 == 3)
            returned = correct ^ (1u << (events.size() % 32));
        events.push_back({ev.op, ev.cls, ev.operand_a, ev.operand_b,
                          ev.prev_result, correct, returned, ev.cycle, ev.pc,
                          ev.window});
        return returned;
    }

    std::vector<CycleGroup> groups;
    std::vector<Ex> events;
};

/// Runs `program` under `hook` on a fresh Engine; returns the run result
/// and the final register file.
template <typename Engine>
std::pair<RunResult, std::array<std::uint32_t, 32>> run_hooked(
    const Program& program, RecordingHook& hook) {
    Memory mem(kMemBytes);
    Engine cpu(mem);
    cpu.set_fault_hook(&hook);
    cpu.reset(program);
    const RunResult run = cpu.run(kMaxCycles);
    std::array<std::uint32_t, 32> regs{};
    for (std::uint8_t r = 0; r < 32; ++r) regs[r] = cpu.reg(r);
    return {run, regs};
}

TEST(OracleDifferential, GenericHookSeesIdenticalCallSequence) {
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        const Program program = testgen::generate_fuzz_program(seed);
        RecordingHook want_hook, got_hook;
        const auto [want_run, want_regs] =
            run_hooked<ReferenceCpu>(program, want_hook);
        const auto [got_run, got_regs] = run_hooked<Cpu>(program, got_hook);
        const std::string ctx = "seed " + std::to_string(seed);
        EXPECT_EQ(int(want_run.stop), int(got_run.stop)) << ctx;
        EXPECT_EQ(want_run.cycles, got_run.cycles) << ctx;
        EXPECT_EQ(want_regs, got_regs) << ctx;

        ASSERT_EQ(want_hook.groups.size(), got_hook.groups.size()) << ctx;
        for (std::size_t i = 0; i < want_hook.groups.size(); ++i)
            if (!(want_hook.groups[i] == got_hook.groups[i])) {
                ADD_FAILURE() << ctx << ": cycle group " << i << " reference=("
                              << want_hook.groups[i].n << ","
                              << want_hook.groups[i].fi << ") iss=("
                              << got_hook.groups[i].n << ","
                              << got_hook.groups[i].fi << ")";
                break;
            }
        ASSERT_EQ(want_hook.events.size(), got_hook.events.size()) << ctx;
        for (std::size_t i = 0; i < want_hook.events.size(); ++i)
            if (!(want_hook.events[i] == got_hook.events[i])) {
                ADD_FAILURE() << ctx << ": EX event " << i << " diverged";
                break;
            }
        if (HasFailure()) break;
    }
}

// ---------------------------------------------------------------------------
// Instruction-trace identity: Cpu::set_trace (the trace hook policy) must
// report the reference interpreter's walk — every fetched instruction's
// pc, opcode and FI-window flag, in order — and leave every other
// observable of the run untouched.
// ---------------------------------------------------------------------------

void expect_same_trace(const std::vector<TraceStep>& want,
                       const std::vector<TraceStep>& got,
                       const std::string& ctx) {
    ASSERT_EQ(want.size(), got.size()) << ctx;
    for (std::size_t i = 0; i < want.size(); ++i)
        if (!(want[i] == got[i])) {
            ADD_FAILURE() << ctx << ": trace step " << i << " reference=(0x"
                          << std::hex << want[i].pc << std::dec << ", "
                          << op_info(want[i].op).mnemonic << ", " << want[i].fi
                          << ") iss=(0x" << std::hex << got[i].pc << std::dec
                          << ", " << op_info(got[i].op).mnemonic << ", "
                          << got[i].fi << ")";
            break;
        }
}

TEST(OracleDifferential, TraceReportsTheReferenceWalk) {
    std::size_t fi_steps = 0;
    const auto sweep = [&](const testgen::FuzzConfig& cfg, std::uint64_t seeds,
                           const std::string& label) {
        for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
            const Program program = testgen::generate_fuzz_program(seed, cfg);
            std::vector<TraceStep> want_trace, got_trace;
            const Observation want =
                run_one<ReferenceCpu>(program, nullptr, seed, &want_trace);
            const Observation got =
                run_one<Cpu>(program, nullptr, seed, &got_trace);
            const std::string ctx = label + " seed " + std::to_string(seed);
            expect_equal(want, got, ctx);
            expect_same_trace(want_trace, got_trace, ctx);
            // Every retired instruction is traced; a self-loop or a
            // faulting load/store is traced but does not retire.
            const bool stopped_in_ex = want.run.stop == StopReason::SelfLoop ||
                                       want.run.stop == StopReason::MemFault;
            EXPECT_EQ(want_trace.size(),
                      want.run.instructions + (stopped_in_ex ? 1 : 0))
                << ctx;
            for (const TraceStep& step : got_trace) fi_steps += step.fi;
            if (HasFailure()) return;
        }
    };
    sweep(testgen::FuzzConfig{}, 2000, "");
    testgen::FuzzConfig long_cfg;
    long_cfg.body_length = 256;
    sweep(long_cfg, 200, "long");
    // The sweep must see FI-window instructions, or the flag went untested.
    EXPECT_GT(fi_steps, 0u);
}

}  // namespace
}  // namespace sfi
