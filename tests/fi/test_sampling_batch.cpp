// Contracts of the batched fault-sampling pipeline (fi/sampling_batch.*)
// against the one-draw-per-op reference (tests/testing/reference_noise.hpp):
//
//  * the reference noise_table_index rounds at the exact boundaries
//    (half-steps round up, clip_v <= 0 degenerates to the middle entry,
//    2-entry tables);
//  * the block conversion is elementwise bit-identical to the reference
//    VddNoise::draw + noise_table_index, including the AVX2 kernel when
//    this build carries one;
//  * NoiseIndexBatch reproduces the reference index stream draw for draw
//    at fixed seeds (golden vectors pin the stream itself against
//    lockstep drift), resync() and a mid-stream reconfiguration leave the
//    Rng in the reference's state, and the normals it draws stay within a
//    bound of those consumed (fills restart at one draw after an
//    interleave, yet still grow to kMaxFill without interleaves);
//  * the quantized alias tables reproduce the exact clipped-Gaussian bin
//    masses, and the "B-q" variant separates by fingerprint while Batched
//    keeps the unsalted one;
//  * models B+ and C under Batched sampling produce corrupt() streams and
//    FiStats bit-identical to their reference walks
//    (tests/testing/reference_model_{b,c}.hpp).
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
// Block conversion vs the reference draw
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

    // Raw (unclamped) normals, exactly as NoiseIndexBatch::refill fills.
    Rng rng(77);
    std::vector<double> draws(n);
    rng.normal_fill(0.0, config.sigma_mv, draws.data(), n);

    std::vector<std::uint32_t> indices(n);
    noise_draws_to_indices(draws.data(), indices.data(), n, clip_mv, clip_v,
                           1025);
    const auto reference = reference_indices(77, config, 1025, n);
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(indices[i], reference[i]) << "element " << i;
}

TEST(NoiseDrawsToIndices, DegenerateClipFillsMiddleEntry) {
    const double draws[4] = {-50.0, -1.0, 0.0, 50.0};
    std::uint32_t indices[4] = {9, 9, 9, 9};
    noise_draws_to_indices(draws, indices, 4, 0.0, 0.0, 1025);
    for (const std::uint32_t idx : indices) EXPECT_EQ(idx, 512u);
    noise_draws_to_indices(draws, indices, 4, 0.0, 0.0, 2);
    for (const std::uint32_t idx : indices) EXPECT_EQ(idx, 1u);
}

TEST(NoiseDrawsToIndices, Avx2DispatchMatchesScalarKernel) {
    // In a default build the dispatcher IS the scalar loop and this is a
    // tautology; in the SFI_ENABLE_AVX2 CI job it proves the vector
    // kernel bit-identical, boundary values included.
    const std::size_t n = 1027;  // deliberately not a multiple of 4
    std::vector<double> draws(n);
    Rng rng(31);
    rng.normal_fill(0.0, 10.0, draws.data(), n);
    // Splice in the hard cases: clamp boundaries, half-steps, huge values.
    draws[0] = -20.0;
    draws[1] = 20.0;
    draws[2] = 1e6;
    draws[3] = -1e6;
    draws[4] = 0.0;
    draws[5] = std::nextafter(20.0, 0.0);

    std::vector<std::uint32_t> dispatched(n), scalar(n);
    noise_draws_to_indices(draws.data(), dispatched.data(), n, 20.0, 0.02,
                           1025);
    noise_draws_to_indices_scalar(draws.data(), scalar.data(), n, 20.0, 0.02,
                                  1025);
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(dispatched[i], scalar[i]) << "element " << i;
}

// ---------------------------------------------------------------------------
// NoiseIndexBatch: bit-identity with the reference stream, golden vectors
// ---------------------------------------------------------------------------

TEST(NoiseIndexBatch, ReproducesTheReferenceIndexStreamAcrossTrials) {
    NoiseConfig config;
    config.sigma_mv = 10.0;
    config.clip_sigmas = 2.0;
    const double clip_mv = config.clip_sigmas * config.sigma_mv;

    NoiseIndexBatch batch;
    Rng unused;  // a fresh batch has no prefetch to give back
    batch.configure(config.sigma_mv, clip_mv, clip_mv * 1e-3, 1025,
                    FaultSamplingMode::Batched, unused);
    EXPECT_TRUE(batch.exact());

    // Trial lengths straddle the fill schedule (16, 32, 64, ...): short
    // trials that die inside the first fill, long ones that refill often.
    const std::size_t trial_draws[] = {3, 17, 16, 200, 1, 4096, 50};
    std::uint64_t seed = 1000;
    for (const std::size_t draws : trial_draws) {
        Rng rng(seed);
        batch.start_trial();
        const auto reference =
            reference_indices(seed, config, 1025, draws);
        for (std::size_t i = 0; i < draws; ++i)
            ASSERT_EQ(batch.next_index(rng), reference[i])
                << "trial seed " << seed << " draw " << i;
        ++seed;
    }
}

TEST(NoiseIndexBatch, GoldenIndexVectorsAtFixedSeeds) {
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

    // And the batch replays them identically.
    NoiseIndexBatch batch;
    Rng rng(123);
    batch.configure(10.0, 20.0, 0.02, 1025, FaultSamplingMode::Batched, rng);
    batch.start_trial();
    for (const std::uint32_t expected : golden_1025)
        ASSERT_EQ(batch.next_index(rng), expected);
}

TEST(NoiseIndexBatch, ResyncRestoresTheReferenceRngState) {
    NoiseConfig config;
    config.sigma_mv = 10.0;
    config.clip_sigmas = 2.0;
    const double clip_mv = config.clip_sigmas * config.sigma_mv;
    const VddNoise noise(config);

    NoiseIndexBatch batch;
    Rng unused;  // a fresh batch has no prefetch to give back
    batch.configure(config.sigma_mv, clip_mv, clip_mv * 1e-3, 1025,
                    FaultSamplingMode::Batched, unused);

    for (const std::size_t consumed : {std::size_t{1}, std::size_t{7},
                                       std::size_t{16}, std::size_t{23}}) {
        // Reference: draw `consumed` noise values, then one uniform (the
        // model C interleave), then one more noise value.
        Rng scalar_rng(42);
        std::vector<double> scalar_noise;
        for (std::size_t i = 0; i < consumed; ++i)
            scalar_noise.push_back(noise.draw(scalar_rng));
        const double scalar_uniform = scalar_rng.uniform();
        const double scalar_next = noise.draw(scalar_rng);

        // Batched path: same draws through the batch, resync, uniform,
        // next index.
        Rng rng(42);
        batch.start_trial();
        for (std::size_t i = 0; i < consumed; ++i)
            ASSERT_EQ(batch.next_index(rng),
                      noise_table_index(clip_mv * 1e-3, scalar_noise[i], 1025))
                << "consumed=" << consumed << " draw " << i;
        batch.resync(rng);
        EXPECT_EQ(batch.pending(), 0u);  // prefetch invalidated
        EXPECT_EQ(rng.uniform(), scalar_uniform) << "consumed=" << consumed;
        EXPECT_EQ(batch.next_index(rng),
                  noise_table_index(clip_mv * 1e-3, scalar_next, 1025))
            << "consumed=" << consumed;
    }
}

// Draw accounting: what the batch pulls from the Rng (fills plus replays,
// normals_drawn()) against what the model consumes.

TEST(NoiseIndexBatch, InterleavingOnEveryDrawCostsAtMostOneFirstFill) {
    // Model C at a point where every window violates: each draw opens an
    // interleave. Fills restart at one draw and a fully consumed fill
    // needs no replay, so the only overhead per trial is the kMinFill
    // prefetch of the trial's first fill.
    NoiseConfig config;
    config.sigma_mv = 10.0;
    config.clip_sigmas = 2.0;
    const double clip_mv = config.clip_sigmas * config.sigma_mv;
    const VddNoise noise(config);
    NoiseIndexBatch batch;
    Rng unused;
    batch.configure(config.sigma_mv, clip_mv, clip_mv * 1e-3, 1025,
                    FaultSamplingMode::Batched, unused);

    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        Rng rng(seed);
        Rng scalar(seed);
        batch.start_trial();
        const std::uint64_t before = batch.normals_drawn();
        const std::size_t consumed = 300;
        for (std::size_t i = 0; i < consumed; ++i) {
            ASSERT_EQ(batch.next_index(rng),
                      noise_table_index(clip_mv * 1e-3, noise.draw(scalar), 1025))
                << "seed " << seed << " draw " << i;
            batch.resync(rng);
            ASSERT_EQ(rng.uniform(), scalar.uniform())
                << "seed " << seed << " draw " << i;
        }
        EXPECT_LE(batch.normals_drawn() - before,
                  consumed + NoiseIndexBatch::kMinFill)
            << "seed " << seed;
    }
}

TEST(NoiseIndexBatch, SparseInterleavesWasteNoMoreThanTheyConsume) {
    // An interleave every 37 draws: between two interleaves the fills
    // double from one draw, and what the next interleave discards and
    // replays stays within the draws consumed since the previous one.
    NoiseIndexBatch batch;
    Rng rng(5);
    batch.configure(25.0, 50.0, 0.05, 1025, FaultSamplingMode::Batched, rng);
    Rng scalar(5);
    const VddNoise noise(NoiseConfig{25.0, 2.0});
    batch.start_trial();
    const std::size_t consumed = 37 * 40;
    for (std::size_t i = 1; i <= consumed; ++i) {
        ASSERT_EQ(batch.next_index(rng),
                  noise_table_index(0.05, noise.draw(scalar), 1025))
            << "draw " << i;
        if (i % 37 == 0) {
            batch.resync(rng);
            ASSERT_EQ(rng.uniform(), scalar.uniform()) << "draw " << i;
        }
    }
    EXPECT_LE(batch.normals_drawn(), 2 * consumed + NoiseIndexBatch::kMinFill);
}

TEST(NoiseIndexBatch, NonInterleavingStreamGrowsFillsToTheCap) {
    NoiseIndexBatch batch;
    Rng rng(11);
    batch.configure(10.0, 20.0, 0.02, 1025, FaultSamplingMode::Batched, rng);
    batch.start_trial();
    std::size_t largest_fill = 0;
    const std::size_t draws = 3 * NoiseIndexBatch::kMaxFill;
    for (std::size_t i = 0; i < draws; ++i) {
        const bool refills = batch.pending() == 0;
        batch.next_index(rng);
        if (refills) largest_fill = std::max(largest_fill, batch.pending() + 1);
    }
    EXPECT_EQ(largest_fill, NoiseIndexBatch::kMaxFill);
    // Without interleaves nothing is replayed: every normal drawn was
    // handed out or still sits in the last fill.
    EXPECT_EQ(batch.normals_drawn(), draws + batch.pending());
}

TEST(NoiseIndexBatch, ReconfiguringMidStreamGivesThePrefetchBack) {
    // A point change in mid-stream (new sigma) drops the prefetch; the
    // generator must first return to the reference's state, so the
    // stream continues exactly as the reference's would.
    NoiseIndexBatch batch;
    Rng rng(42);
    Rng scalar(42);
    batch.configure(10.0, 20.0, 0.02, 1025, FaultSamplingMode::Batched, rng);
    batch.start_trial();
    const VddNoise noise10(NoiseConfig{10.0, 2.0});
    for (int i = 0; i < 5; ++i)
        ASSERT_EQ(batch.next_index(rng),
                  noise_table_index(0.02, noise10.draw(scalar), 1025));
    ASSERT_GT(batch.pending(), 0u);
    batch.configure(25.0, 50.0, 0.05, 1025, FaultSamplingMode::Batched, rng);
    EXPECT_TRUE(rng == scalar);
    const VddNoise noise25(NoiseConfig{25.0, 2.0});
    for (int i = 0; i < 40; ++i)
        ASSERT_EQ(batch.next_index(rng),
                  noise_table_index(0.05, noise25.draw(scalar), 1025))
            << "draw " << i << " after the reconfiguration";
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
    EXPECT_TRUE(
        build_noise_index_alias(/*sigma_mv=*/0.0, /*clip_mv=*/20.0, 33)
            .empty());
}

TEST(AliasTable, NoiseIndexAliasIsDeterministicPerSeed) {
    const AliasTable table = build_noise_index_alias(10.0, 20.0, 1025);
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
            const ExClass cls = (i % 3 == 0) ? ExClass::Add
                                : (i % 3 == 1) ? ExClass::Mul
                                               : ExClass::Cmp;
            mix(model.on_ex_result(
                make_event(cls, static_cast<std::uint32_t>(0x9e3779b9u * i),
                           static_cast<std::uint32_t>(i), 0xffffffffu),
                0xAAAA5555u));
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
    // Just below the STA limit with noise: faulting yet not saturated —
    // the regime where the draw stream actually steers outcomes.
    const double fsta = shared_core().sta_fmax_mhz(0.7);
    auto reference = reference_model_b();
    auto batched_model = shared_core().make_model_b();
    ASSERT_EQ(batched_model->sampling_mode(), FaultSamplingMode::Batched);
    reference->set_operating_point(noisy_point(fsta * 0.97, 10.0));
    batched_model->set_operating_point(noisy_point(fsta * 0.97, 10.0));
    EXPECT_EQ(corrupt_stream_signature(*reference, 40, 500),
              corrupt_stream_signature(*batched_model, 40, 500));
    EXPECT_GT(reference->stats().injections, 0u)
        << "operating point too safe: the differential proved nothing";
    // A new noise level reconfigures the batch, which first gives its
    // prefetch back: the generators then agree to the bit.
    reference->set_operating_point(noisy_point(fsta * 0.97, 25.0));
    batched_model->set_operating_point(noisy_point(fsta * 0.97, 25.0));
    EXPECT_TRUE(batched_model->rng() == reference->rng());
}

TEST(SamplingModeDifferential, ModelCBatchedMatchesTheReferenceWalk) {
    // Model C interleaves Bernoulli uniforms with the noise draws on the
    // same stream — the resync()-heavy path.
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
