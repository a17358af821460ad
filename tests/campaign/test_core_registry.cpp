// The process-wide core registry behind CampaignRunner::core_for and
// CampaignRunner::conditioned_store:
//  * every runner of a process gets the one core of a fingerprint, built
//    once: only the first requester's wall ledger records its
//    "characterize" span, and the reference outlives that runner;
//  * a config that differs only in its DTA seed, or only in the
//    quantized sampling salt, is another fingerprint and another core;
//  * a conditioned store at the core's own operand width is the core's
//    store restricted to the class, equal to a fresh one-class DTA, and
//    runs no DTA of its own; a narrower width runs its own "dta_class";
//  * concurrent requests for one fingerprint get one core built once,
//    and requests for different fingerprints each build their own (the
//    TSan job runs this suite).
// Every test uses its own DTA seeds, so no core of one test is built by
// another; the cores are 64-cycle ones without a cache file.
#include "campaign/runner.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/ledger.hpp"
#include "timing/dta.hpp"

namespace sfi::campaign {
namespace {

CoreModelConfig registry_config(std::uint64_t dta_seed) {
    CoreModelConfig config;
    config.dta.cycles = 64;
    config.dta.seed = dta_seed;
    return config;
}

CampaignSpec spec_on(const CoreModelConfig& core) {
    CampaignSpec spec;
    spec.name = "registry";
    spec.core = core;
    return spec;
}

/// A model-C op-stream panel on an operand-conditioned add store.
PanelSpec add_stream(unsigned operand_bits) {
    PanelSpec panel;
    panel.name = "add" + std::to_string(operand_bits);
    panel.kernel = KernelSpec::op_stream(ExClass::Add, operand_bits, 64, 1);
    panel.model = ModelSpec::c();
    panel.dta_operand_bits = operand_bits;
    return panel;
}

/// A wall-mode ledger in memory and its span counts.
struct WallLedger {
    std::ostringstream os;
    obs::Ledger ledger{os, obs::TraceMode::Wall};

    RunOptions options() {
        RunOptions o;
        o.ledger = &ledger;
        return o;
    }

    std::size_t spans(const std::string& name) {
        ledger.flush();
        std::istringstream is(os.str());
        std::size_t n = 0;
        for (const obs::LedgerEvent& ev : obs::read_ledger(is).events)
            if (ev.ph == 'B' && ev.name == name) ++n;
        return n;
    }
};

/// The class alone, characterized afresh at `operand_bits`.
TimingErrorCdfs one_class_dta(const CharacterizedCore& core, ExClass cls,
                              unsigned operand_bits) {
    DtaConfig config = core.config().dta;
    config.operand_bits = operand_bits;
    DtaResult dta;
    dta.setup_ps = core.timing().setup_ps();
    dta.cycles = config.cycles;
    dta.classes = {run_dta_class(core.alu(), core.timing(), cls, config)};
    return TimingErrorCdfs::from_dta(dta);
}

TEST(CoreRegistry, TwoRunnersOnOneConfigShareOneCoreBuiltOnce) {
    const CoreModelConfig config = registry_config(0x5EED0001);
    WallLedger first_ledger, second_ledger;
    const CharacterizedCore* first_core = nullptr;
    {
        CampaignRunner first(spec_on(config), first_ledger.options());
        first_core = &first.core();
    }
    CampaignRunner second(spec_on(config), second_ledger.options());
    EXPECT_EQ(&second.core(), first_core);
    EXPECT_EQ(first_ledger.spans("characterize"), 1u);
    EXPECT_EQ(first_ledger.spans("calibrate"), 1u);
    EXPECT_EQ(second_ledger.spans("characterize"), 0u);
    EXPECT_EQ(second_ledger.spans("dta_class"), 0u);
    // The first runner is gone; its core is not.
    EXPECT_EQ(first_core->fingerprint(), core_config_fingerprint(config));
    EXPECT_GT(first_core->sta_fmax_mhz(0.7), 0.0);
}

TEST(CoreRegistry, DtaSeedAndQuantizedSamplingEachGetTheirOwnCore) {
    const CoreModelConfig base = registry_config(0x5EED0002);
    CoreModelConfig other_seed = base;
    other_seed.dta.seed = 0x5EED0003;
    CoreModelConfig quantized = base;
    quantized.fault_sampling = FaultSamplingMode::Quantized;

    WallLedger base_ledger, seed_ledger, quantized_ledger;
    CampaignRunner base_runner(spec_on(base), base_ledger.options());
    CampaignRunner seed_runner(spec_on(other_seed), seed_ledger.options());
    CampaignRunner quantized_runner(spec_on(quantized),
                                    quantized_ledger.options());
    const CharacterizedCore& base_core = base_runner.core();
    const CharacterizedCore& seed_core = seed_runner.core();
    const CharacterizedCore& quantized_core = quantized_runner.core();
    EXPECT_NE(&seed_core, &base_core);
    EXPECT_NE(&quantized_core, &base_core);
    EXPECT_NE(&quantized_core, &seed_core);
    EXPECT_EQ(base_core.config().dta.seed, base.dta.seed);
    EXPECT_EQ(seed_core.config().dta.seed, other_seed.dta.seed);
    EXPECT_EQ(quantized_core.config().fault_sampling,
              FaultSamplingMode::Quantized);
    EXPECT_EQ(base_core.config().fault_sampling, FaultSamplingMode::Batched);
    for (WallLedger* ledger : {&base_ledger, &seed_ledger, &quantized_ledger})
        EXPECT_EQ(ledger->spans("characterize"), 1u);
    // The quantized salt re-keys the core; its characterization is the
    // same one.
    EXPECT_TRUE(*quantized_core.cdfs() == *base_core.cdfs());
}

TEST(CoreRegistry, StoreAtTheCoresOwnWidthIsTheCoresClassAlone) {
    const CoreModelConfig config = registry_config(0x5EED0004);
    ASSERT_EQ(config.dta.operand_bits, 32u);
    CampaignRunner builder(spec_on(config), RunOptions{});
    const CharacterizedCore& core = builder.core();

    WallLedger ledger;
    CampaignRunner runner(spec_on(config), ledger.options());
    const std::shared_ptr<const TimingErrorCdfs> store =
        runner.conditioned_store(add_stream(32));
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(ledger.spans("dta_class"), 0u);  // served from the core
    EXPECT_TRUE(*store == one_class_dta(core, ExClass::Add, 32));
    EXPECT_TRUE(*store == core.cdfs()->single_class(ExClass::Add));
    for (const ExClass cls : Alu::instruction_classes())
        EXPECT_EQ(store->has_class(cls), cls == ExClass::Add)
            << ex_class_name(cls);
    // Kept for the process: a later request gets the same store.
    EXPECT_EQ(builder.conditioned_store(add_stream(32)), store);
}

TEST(CoreRegistry, NarrowerOperandsRunTheirOwnDta) {
    const CoreModelConfig config = registry_config(0x5EED0005);
    CampaignRunner builder(spec_on(config), RunOptions{});
    const CharacterizedCore& core = builder.core();

    WallLedger ledger, later_ledger;
    CampaignRunner runner(spec_on(config), ledger.options());
    const std::shared_ptr<const TimingErrorCdfs> store =
        runner.conditioned_store(add_stream(16));
    EXPECT_EQ(ledger.spans("dta_class"), 1u);
    EXPECT_TRUE(*store == one_class_dta(core, ExClass::Add, 16));
    EXPECT_FALSE(*store == core.cdfs()->single_class(ExClass::Add));

    CampaignRunner later(spec_on(config), later_ledger.options());
    EXPECT_EQ(later.conditioned_store(add_stream(16)), store);
    EXPECT_EQ(later_ledger.spans("dta_class"), 0u);
}

TEST(CoreRegistry, ConcurrentRequestsBuildEachFingerprintOnce) {
    const CoreModelConfig shared = registry_config(0x5EED0006);
    const CoreModelConfig own[2] = {registry_config(0x5EED0007),
                                    registry_config(0x5EED0008)};
    WallLedger ledgers[2];
    const CharacterizedCore* shared_core[2] = {nullptr, nullptr};
    const CharacterizedCore* own_core[2] = {nullptr, nullptr};
    std::size_t shared_builds[2] = {0, 0};

    // Both threads ask for the shared fingerprint at once, then each for
    // its own fingerprint at once.
    std::promise<void> go;
    const std::shared_future<void> start = go.get_future().share();
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < 2; ++t)
        threads.emplace_back([&, t] {
            CampaignRunner shared_runner(spec_on(shared),
                                         ledgers[t].options());
            CampaignRunner own_runner(spec_on(own[t]), ledgers[t].options());
            start.wait();
            shared_core[t] = &shared_runner.core();
            shared_builds[t] = ledgers[t].spans("characterize");
            own_core[t] = &own_runner.core();
        });
    go.set_value();
    for (std::thread& thread : threads) thread.join();

    ASSERT_NE(shared_core[0], nullptr);
    EXPECT_EQ(shared_core[0], shared_core[1]);
    EXPECT_EQ(shared_builds[0] + shared_builds[1], 1u);
    EXPECT_NE(own_core[0], own_core[1]);
    for (std::size_t t = 0; t < 2; ++t) {
        EXPECT_NE(own_core[t], shared_core[t]);
        EXPECT_EQ(own_core[t]->config().dta.seed, own[t].dta.seed);
        // Its own core, built on its own ledger, plus the shared one if
        // this thread was the one that built it.
        EXPECT_EQ(ledgers[t].spans("characterize"), shared_builds[t] + 1);
    }
}

}  // namespace
}  // namespace sfi::campaign
