// Contracts of the fault-sampling pipeline (fi/sampling_batch.*) against
// the one-draw-per-op reference (tests/testing/reference_noise.hpp):
//
//  * the reference noise_table_index rounds at the exact boundaries
//    (half-steps round up, clip_v <= 0 degenerates to the middle entry,
//    2-entry tables);
//  * the scalar conversion noise_draw_to_index is bit-identical to the
//    reference VddNoise::draw + noise_table_index, draw for draw, and
//    golden vectors pin the reference index stream itself against
//    lockstep drift;
//  * the quantized alias tables reproduce the exact clipped-Gaussian bin
//    masses, and the "B-q" variant separates by fingerprint while Batched
//    keeps the unsalted one;
//  * models B+ and C under Batched sampling produce corrupt() streams and
//    FiStats bit-identical to their reference walks
//    (tests/testing/reference_model_{b,c}.hpp), and B+'s generator equals
//    the reference walk's after every op in each of its safe-row
//    pretest's regimes.
#include "fi/sampling_batch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "fi/core_model.hpp"
#include "fi/models.hpp"
#include "testing/reference_model_b.hpp"
#include "testing/reference_model_c.hpp"
#include "testing/reference_noise.hpp"
#include "testing/shared_core.hpp"
#include "util/rng.hpp"

namespace sfi {
namespace {

using testing::noise_table_index;
using testing::ReferenceModelB;
using testing::ReferenceModelC;
using testing::shared_core;
using testing::VddNoise;

// ---------------------------------------------------------------------------
// Reference noise_table_index rounding boundaries
// ---------------------------------------------------------------------------

TEST(NoiseTableIndex, ExactHalfStepRoundsUp) {
    // entries = 5, clip_v = 1.0: t = (noise + 1) / 2 and the cell centers
    // sit at t = i / 4. noise = -0.75 gives t * 4 = 0.5 exactly (all
    // powers of two, so no representation error): the +0.5-and-truncate
    // rounding must send the exact half-step UP to index 1.
    EXPECT_EQ(noise_table_index(1.0, -0.75, 5), 1u);
    // Immediately below the half-step it still truncates down to 0.
    EXPECT_EQ(noise_table_index(1.0, std::nextafter(-0.75, -1.0), 5), 0u);
    // The same boundary one cell up: t * 4 = 1.5 at noise = -0.25. (A
    // one-ulp nudge on the noise is swallowed when 1.0 is added, so the
    // below-boundary check uses a small macroscopic offset instead.)
    EXPECT_EQ(noise_table_index(1.0, -0.25, 5), 2u);
    EXPECT_EQ(noise_table_index(1.0, -0.2501, 5), 1u);
}

TEST(NoiseTableIndex, DegenerateClipMapsToMiddleEntry) {
    for (const double clip_v : {0.0, -0.5}) {
        EXPECT_EQ(noise_table_index(clip_v, 0.0, 101), 50u);
        EXPECT_EQ(noise_table_index(clip_v, 123.0, 101), 50u);
        EXPECT_EQ(noise_table_index(clip_v, -123.0, 1025), 512u);
        EXPECT_EQ(noise_table_index(clip_v, 1.0, 2), 1u);
    }
}

TEST(NoiseTableIndex, TwoEntryTableSplitsAtMidpoint) {
    // entries = 2: one rounding boundary at t = 0.5 (noise 0). The exact
    // midpoint rounds up into index 1.
    EXPECT_EQ(noise_table_index(1.0, -1.0, 2), 0u);
    EXPECT_EQ(noise_table_index(1.0, -0.001, 2), 0u);
    EXPECT_EQ(noise_table_index(1.0, 0.0, 2), 1u);
    EXPECT_EQ(noise_table_index(1.0, 1.0, 2), 1u);
}

TEST(NoiseTableIndex, ClampsOutOfRangeDraws) {
    // The index clamps even when the draw was never clamped to the clip
    // level (t outside [0, 1]).
    EXPECT_EQ(noise_table_index(0.02, -10.0, 1025), 0u);
    EXPECT_EQ(noise_table_index(0.02, +10.0, 1025), 1024u);
}

// ---------------------------------------------------------------------------
// Scalar conversion vs the reference draw
// ---------------------------------------------------------------------------

/// The reference stream: one VddNoise::draw + noise_table_index per
/// element, exactly as the reference walks of models B and C sample.
std::vector<std::uint32_t> reference_indices(std::uint64_t seed,
                                             const NoiseConfig& config,
                                             std::size_t entries,
                                             std::size_t n) {
    const VddNoise noise(config);
    const double clip_v = config.clip_sigmas * config.sigma_mv * 1e-3;
    Rng rng(seed);
    std::vector<std::uint32_t> out(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = static_cast<std::uint32_t>(
            noise_table_index(clip_v, noise.draw(rng), entries));
    return out;
}

TEST(NoiseDrawsToIndices, ConversionMatchesTheReferencePerElement) {
    NoiseConfig config;
    config.sigma_mv = 10.0;
    config.clip_sigmas = 2.0;
    const double clip_mv = config.clip_sigmas * config.sigma_mv;
    const double clip_v = clip_mv * 1e-3;
    const std::size_t n = 4096;

    // Raw (unclamped) normals, one per element.
    Rng rng(77);
    const auto reference = reference_indices(77, config, 1025, n);
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(noise_draw_to_index(rng.normal(0.0, config.sigma_mv),
                                      clip_mv, clip_v, 1025),
                  reference[i])
            << "element " << i;
}

TEST(NoiseDrawsToIndices, DegenerateClipMapsToMiddleEntry) {
    for (const double draw : {-50.0, -1.0, 0.0, 50.0}) {
        EXPECT_EQ(noise_draw_to_index(draw, 0.0, 0.0, 1025), 512u);
        EXPECT_EQ(noise_draw_to_index(draw, 0.0, 0.0, 2), 1u);
    }
}

TEST(NoiseDrawsToIndices, GoldenIndexVectorsAtFixedSeeds) {
    // Pinned reference streams: a change that altered BOTH paths in
    // lockstep would pass the differential tests above but break these
    // committed vectors (and with them every stored experiment).
    const std::uint32_t golden_1025[12] = {488, 238, 210, 900, 903, 415,
                                           690, 823, 472, 496, 649, 243};
    NoiseConfig c1;
    c1.sigma_mv = 10.0;
    c1.clip_sigmas = 2.0;
    EXPECT_EQ(reference_indices(123, c1, 1025, 12),
              std::vector<std::uint32_t>(golden_1025, golden_1025 + 12));

    const std::uint32_t golden_33[12] = {21, 3,  21, 20, 19, 19,
                                         20, 13, 16, 16, 21, 19};
    NoiseConfig c2;
    c2.sigma_mv = 25.0;
    c2.clip_sigmas = 2.0;
    EXPECT_EQ(reference_indices(2026, c2, 33, 12),
              std::vector<std::uint32_t>(golden_33, golden_33 + 12));

    // And the models' draw, a polar half times its factor, lands on them.
    Rng rng(123);
    for (const std::uint32_t expected : golden_1025) {
        const Rng::PolarHalf half = rng.polar_half();
        ASSERT_EQ(noise_draw_to_index(
                      0.0 + 10.0 * (half.x * Rng::polar_factor(half.s)), 20.0,
                      0.02, 1025),
                  expected);
    }
}

// ---------------------------------------------------------------------------
// Quantized sampling: masses and alias tables
// ---------------------------------------------------------------------------

TEST(NoiseIndexMasses, SumToOneAndAreSymmetric) {
    const auto mass = noise_index_masses(10.0, 20.0, 33);
    ASSERT_EQ(mass.size(), 33u);
    double sum = 0.0;
    for (const double m : mass) {
        EXPECT_GE(m, 0.0);
        sum += m;
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
    // Zero-mean Gaussian, symmetric clip: mirrored bins carry equal mass.
    for (std::size_t i = 0; i < mass.size(); ++i)
        EXPECT_NEAR(mass[i], mass[mass.size() - 1 - i], 1e-12) << "bin " << i;
    // The boundary bins absorb the clamp tails (2 sigma: ~2.3% each).
    EXPECT_NEAR(mass.front(), 0.0275, 0.005);
}

TEST(NoiseIndexMasses, DegenerateInputs) {
    EXPECT_TRUE(noise_index_masses(0.0, 20.0, 33).empty());
    EXPECT_TRUE(noise_index_masses(-1.0, 20.0, 33).empty());
    EXPECT_TRUE(noise_index_masses(10.0, 20.0, 1).empty());
    const auto point_mass = noise_index_masses(10.0, 0.0, 33);
    ASSERT_EQ(point_mass.size(), 33u);
    EXPECT_EQ(point_mass[16], 1.0);
    for (std::size_t i = 0; i < point_mass.size(); ++i) {
        if (i != 16) {
            EXPECT_EQ(point_mass[i], 0.0) << "bin " << i;
        }
    }
}

TEST(NoiseIndexMasses, MatchTheEmpiricalReferenceQuantization) {
    // The masses claim to be the exact pushforward of the clamped draw
    // through noise_table_index; check against the reference draw's
    // actual empirical index distribution.
    NoiseConfig config;
    config.sigma_mv = 10.0;
    config.clip_sigmas = 2.0;
    const std::size_t entries = 17;
    const auto mass = noise_index_masses(
        config.sigma_mv, config.clip_sigmas * config.sigma_mv, entries);
    const std::size_t n = 200000;
    const auto indices = reference_indices(9001, config, entries, n);
    std::vector<double> freq(entries, 0.0);
    for (const std::uint32_t idx : indices) freq[idx] += 1.0 / n;
    for (std::size_t i = 0; i < entries; ++i) {
        // 4-sigma binomial tolerance.
        const double tol =
            4.0 * std::sqrt(mass[i] * (1.0 - mass[i]) / n) + 1e-9;
        EXPECT_NEAR(freq[i], mass[i], tol) << "bin " << i;
    }
}

TEST(AliasTable, SamplesTheConstructedDistribution) {
    const std::vector<double> mass = {0.5, 0.125, 0.0, 0.25, 0.125};
    const AliasTable table = build_alias_from_masses(mass);
    ASSERT_FALSE(table.empty());
    Rng rng(5);
    const std::size_t n = 400000;
    std::vector<double> freq(mass.size(), 0.0);
    for (std::size_t i = 0; i < n; ++i) freq[table.sample(rng)] += 1.0 / n;
    for (std::size_t i = 0; i < mass.size(); ++i) {
        const double tol =
            4.0 * std::sqrt(mass[i] * (1.0 - mass[i]) / n) + 1e-9;
        EXPECT_NEAR(freq[i], mass[i], tol) << "bin " << i;
    }
    // The zero-mass bin must be unreachable, not merely rare.
    EXPECT_EQ(freq[2], 0.0);
}

TEST(AliasTable, EmptyMassGivesEmptyTable) {
    EXPECT_TRUE(build_alias_from_masses({}).empty());
    EXPECT_TRUE(build_alias_from_masses(noise_index_masses(
                    /*sigma_mv=*/0.0, /*clip_mv=*/20.0, 33))
                    .empty());
}

TEST(AliasTable, NoiseIndexAliasIsDeterministicPerSeed) {
    const AliasTable table =
        build_alias_from_masses(noise_index_masses(10.0, 20.0, 1025));
    Rng a(7), b(7);
    for (int i = 0; i < 1000; ++i) ASSERT_EQ(table.sample(a), table.sample(b));
}

// ---------------------------------------------------------------------------
// Mode plumbing and fingerprints
// ---------------------------------------------------------------------------

TEST(FaultSamplingMode, ParsesBatchedAndQuantizedOnly) {
    EXPECT_EQ(parse_fault_sampling_mode("batched"),
              FaultSamplingMode::Batched);
    EXPECT_EQ(parse_fault_sampling_mode("quantized"),
              FaultSamplingMode::Quantized);
    // The one-draw-per-op reference is a test oracle, not a mode.
    EXPECT_EQ(parse_fault_sampling_mode("scalar"), std::nullopt);
    EXPECT_EQ(parse_fault_sampling_mode("avx2"), std::nullopt);
    EXPECT_EQ(parse_fault_sampling_mode(""), std::nullopt);
}

// core_config_fingerprint(CoreModelConfig{}): the key ingredient of every
// point a default-core campaign has stored since batched sampling shipped.
constexpr std::uint64_t kDefaultCoreFingerprint = 0x04b894b6b93744f2ULL;

TEST(FaultSamplingMode, QuantizedSeparatesTheCoreFingerprint) {
    CoreModelConfig batched_config;
    batched_config.fault_sampling = FaultSamplingMode::Batched;
    CoreModelConfig quantized_config;
    quantized_config.fault_sampling = FaultSamplingMode::Quantized;

    // Batched reproduces the reference stream, so it keeps the unsalted
    // key: the default core's fingerprint is pinned, and every store
    // written for the default core keeps hitting. Quantized
    // ("B-q") is a different stream: its summaries live under their own
    // keys.
    EXPECT_EQ(core_config_fingerprint(batched_config),
              kDefaultCoreFingerprint);
    EXPECT_NE(core_config_fingerprint(quantized_config),
              core_config_fingerprint(batched_config));
}

// ---------------------------------------------------------------------------
// Model-level differential: Batched vs the reference walks, bit for bit
// ---------------------------------------------------------------------------

ExEvent make_event(ExClass cls, std::uint32_t a, std::uint32_t b,
                   std::uint32_t prev = 0) {
    ExEvent ev;
    ev.cls = cls;
    ev.operand_a = a;
    ev.operand_b = b;
    ev.prev_result = prev;
    return ev;
}

OperatingPoint noisy_point(double freq_mhz, double sigma_mv) {
    OperatingPoint p;
    p.freq_mhz = freq_mhz;
    p.vdd = 0.7;
    p.noise.sigma_mv = sigma_mv;
    return p;
}

/// The i-th ALU op of a synthetic stream that cycles add, mul and cmp.
ExEvent stream_event(std::size_t i) {
    const ExClass cls = (i % 3 == 0)   ? ExClass::Add
                        : (i % 3 == 1) ? ExClass::Mul
                                       : ExClass::Cmp;
    return make_event(cls, static_cast<std::uint32_t>(0x9e3779b9u * i),
                      static_cast<std::uint32_t>(i), 0xffffffffu);
}

constexpr std::uint32_t kCorrect = 0xAAAA5555u;

/// Runs `trials` reseeded trials of `ops` ALU ops each through `model`
/// and folds every corrupt() output plus the final stats into one
/// signature — any single-bit divergence between two models changes it.
std::uint64_t corrupt_stream_signature(FaultModel& model, std::size_t trials,
                                       std::size_t ops) {
    std::uint64_t signature = 0;
    const auto mix = [&signature](std::uint64_t value) {
        signature ^= value + 0x9e3779b97f4a7c15ULL + (signature << 6) +
                     (signature >> 2);
    };
    for (std::size_t t = 0; t < trials; ++t) {
        model.reseed(1000 + t);
        for (std::size_t i = 0; i < ops; ++i) {
            model.on_cycle(true);
            mix(model.on_ex_result(stream_event(i), kCorrect));
        }
    }
    mix(model.stats().injections);
    mix(model.stats().corrupted_ops);
    mix(model.stats().alu_ops);
    mix(model.stats().fi_cycles);
    return signature;
}

std::unique_ptr<FaultModel> reference_model_b() {
    return std::make_unique<ReferenceModelB>(shared_core().sta(),
                                             shared_core().lib().fit());
}

TEST(SamplingModeDifferential, ModelBPlusBatchedMatchesTheReferenceWalk) {
    // B+ takes one polar half per op and settles it with its safe-row
    // pretest where it can. Every trial walks the pretest's three regimes
    // at sigma 10 and 25 mV, changing the point in mid-trial: every row
    // safe (below B+'s first fault), the first safe row interior (just
    // above it, where the pretest's edge sits near -clip, and just below
    // model B's first fault, where it sits just below 0 mV), and no row
    // safe. After every op the latched value and the generator must equal
    // the reference walk's: B+ never runs ahead of it.
    enum class Regime { EveryRowSafe, InteriorSafeRow, NoRowSafe };
    struct Leg {
        OperatingPoint point;
        Regime regime;
        FiStats seen;  // this leg's share of the model's stats
    };
    auto model = shared_core().make_model_b();
    auto reference = reference_model_b();
    ASSERT_EQ(model->sampling_mode(), FaultSamplingMode::Batched);
    const auto first_fault = [&](const OperatingPoint& point) {
        model->set_operating_point(point);
        return model->first_fault_frequency_mhz();
    };
    std::vector<Leg> legs;
    for (const double sigma : {10.0, 25.0}) {
        const OperatingPoint noisy = noisy_point(700.0, sigma);
        // The first fault of the -clip row (B+'s), of the middle row
        // (model B's) and of the +clip row (model B's at vdd + clip).
        OperatingPoint top = noisy_point(700.0, 0.0);
        top.vdd += noisy.noise.clip_sigmas * sigma * 1e-3;
        const double lowest = first_fault(noisy);
        const double middle = first_fault(noisy_point(700.0, 0.0));
        const double highest = first_fault(top);
        legs.push_back({noisy_point(lowest * 0.99, sigma),
                        Regime::EveryRowSafe, {}});
        legs.push_back({noisy_point(lowest * 1.005, sigma),
                        Regime::InteriorSafeRow, {}});
        legs.push_back({noisy_point(middle * 0.995, sigma),
                        Regime::InteriorSafeRow, {}});
        legs.push_back({noisy_point(highest * 1.01, sigma),
                        Regime::NoRowSafe, {}});
    }
    for (std::size_t trial = 0; trial < 60; ++trial) {
        model->reseed(1000 + trial);
        reference->reseed(1000 + trial);
        for (Leg& leg : legs) {
            model->set_operating_point(leg.point);
            reference->set_operating_point(leg.point);
            const FiStats before = model->stats();
            for (std::size_t i = 0; i < 200; ++i) {
                model->on_cycle(true);
                reference->on_cycle(true);
                const ExEvent ev = stream_event(i);
                ASSERT_EQ(model->on_ex_result(ev, kCorrect),
                          reference->on_ex_result(ev, kCorrect))
                    << "trial " << trial << " at " << leg.point.freq_mhz
                    << " MHz, sigma " << leg.point.noise.sigma_mv
                    << " mV, op " << i;
                ASSERT_TRUE(model->rng() == reference->rng())
                    << "trial " << trial << " at " << leg.point.freq_mhz
                    << " MHz, sigma " << leg.point.noise.sigma_mv
                    << " mV, op " << i;
            }
            leg.seen.alu_ops += model->stats().alu_ops - before.alu_ops;
            leg.seen.corrupted_ops +=
                model->stats().corrupted_ops - before.corrupted_ops;
        }
    }
    EXPECT_EQ(model->stats().injections, reference->stats().injections);
    EXPECT_EQ(model->stats().corrupted_ops, reference->stats().corrupted_ops);
    EXPECT_EQ(model->stats().alu_ops, reference->stats().alu_ops);
    EXPECT_EQ(model->stats().fi_cycles, reference->stats().fi_cycles);
    // Each leg is in the regime it was built for.
    for (const Leg& leg : legs) {
        model->set_operating_point(leg.point);
        const std::uint64_t corrupted = leg.seen.corrupted_ops;
        switch (leg.regime) {
            case Regime::EveryRowSafe:
                EXPECT_FALSE(model->can_inject()) << leg.point.freq_mhz;
                EXPECT_EQ(corrupted, 0u) << leg.point.freq_mhz;
                break;
            case Regime::InteriorSafeRow:
                EXPECT_GT(corrupted, 0u) << leg.point.freq_mhz;
                EXPECT_LT(corrupted, leg.seen.alu_ops) << leg.point.freq_mhz;
                break;
            case Regime::NoRowSafe:
                EXPECT_EQ(corrupted, leg.seen.alu_ops) << leg.point.freq_mhz;
                break;
        }
    }
}

TEST(SamplingModeDifferential, ModelCBatchedMatchesTheReferenceWalk) {
    // Model C interleaves Bernoulli uniforms with its on-demand noise
    // draws on the same stream.
    ReferenceModelC reference(shared_core().cdfs(), shared_core().lib().fit());
    auto batched_model = shared_core().make_model_c();
    ASSERT_EQ(batched_model->sampling_mode(), FaultSamplingMode::Batched);
    const double f0 = batched_model->first_fault_frequency_mhz(ExClass::Mul);
    reference.set_operating_point(noisy_point(f0 * 1.02, 10.0));
    batched_model->set_operating_point(noisy_point(f0 * 1.02, 10.0));
    EXPECT_EQ(corrupt_stream_signature(reference, 40, 500),
              corrupt_stream_signature(*batched_model, 40, 500));
    EXPECT_GT(reference.stats().injections, 0u)
        << "operating point too safe: the differential proved nothing";
    batched_model->set_sampling_mode(FaultSamplingMode::Quantized);
    EXPECT_TRUE(batched_model->rng() == reference.rng());
}

TEST(SamplingModeDifferential, SwitchingModesBackRestoresTheBatchedStream) {
    // Batched -> Quantized -> Batched must land exactly where Batched
    // alone would: mode switches rebuild derived state, never leak stream
    // position.
    const double fsta = shared_core().sta_fmax_mhz(0.7);
    auto model = shared_core().make_model_b();
    model->set_operating_point(noisy_point(fsta * 0.97, 10.0));
    const std::uint64_t before = corrupt_stream_signature(*model, 10, 200);
    model->set_sampling_mode(FaultSamplingMode::Quantized);
    corrupt_stream_signature(*model, 10, 200);
    model->set_sampling_mode(FaultSamplingMode::Batched);
    model->reset_stats();
    EXPECT_EQ(corrupt_stream_signature(*model, 10, 200), before);
}

TEST(SamplingModeQuantized, ModelBRateMatchesTheReferenceStatistically) {
    // "B-q" is NOT bit-identical — it draws the violation count from the
    // alias table directly — but it must be the same distribution: the
    // per-op injection rate agrees with the reference walk within
    // Monte-Carlo tolerance, and the name advertises the variant.
    const double fsta = shared_core().sta_fmax_mhz(0.7);
    auto reference = reference_model_b();
    auto quantized_model = shared_core().make_model_b();
    quantized_model->set_sampling_mode(FaultSamplingMode::Quantized);
    reference->set_operating_point(noisy_point(fsta * 0.99, 10.0));
    quantized_model->set_operating_point(noisy_point(fsta * 0.99, 10.0));
    EXPECT_EQ(quantized_model->name(), "B-q");
    quantized_model->set_sampling_mode(FaultSamplingMode::Batched);
    EXPECT_EQ(quantized_model->name(), "B+");
    quantized_model->set_sampling_mode(FaultSamplingMode::Quantized);

    const std::size_t ops = 200000;
    corrupt_stream_signature(*reference, 1, ops);
    corrupt_stream_signature(*quantized_model, 1, ops);
    const double reference_rate =
        static_cast<double>(reference->stats().injections) / ops;
    const double quantized_rate =
        static_cast<double>(quantized_model->stats().injections) / ops;
    ASSERT_GT(reference_rate, 0.0);
    EXPECT_NEAR(quantized_rate, reference_rate,
                5.0 * std::sqrt(reference_rate / ops) + 0.05 * reference_rate);

    // Determinism per seed still holds for the alias stream.
    quantized_model->reset_stats();
    const std::uint64_t a = corrupt_stream_signature(*quantized_model, 3, 500);
    quantized_model->reset_stats();
    const std::uint64_t b = corrupt_stream_signature(*quantized_model, 3, 500);
    EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace sfi
