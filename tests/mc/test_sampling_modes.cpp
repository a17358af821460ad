// Batched-vs-reference differential suite at the Monte-Carlo level: the
// FaultSamplingMode::Batched pipeline must produce byte-identical
// PointSummaries (accumulator state included) to the one-draw-per-op
// reference walks of models B and C (tests/testing/), for every
// noise-modulated model, serial and threaded, with and without the
// mitigation decorator. This is the end-to-end form of the bit-identity
// contract pinned per-draw in tests/fi/test_sampling_batch.cpp — figure
// CSVs are a pure function of these summaries, so equality here is what
// keeps campaign artifacts byte-identical to the paper's per-cycle draw.
#include "mc/montecarlo.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>

#include "campaign/point_store.hpp"
#include "fi/mitigation.hpp"
#include "testing/reference_model_b.hpp"
#include "testing/reference_model_c.hpp"
#include "testing/shared_core.hpp"

namespace sfi {
namespace {

using testing::ReferenceModelB;
using testing::ReferenceModelC;
using testing::shared_core;

std::size_t max_threads() {
    if (const char* env = std::getenv("SFI_TEST_THREADS")) {
        const int cap = std::atoi(env);
        if (cap > 0) return static_cast<std::size_t>(cap);
    }
    return 8;
}

OperatingPoint noisy_point(double freq_mhz, double sigma_mv = 10.0) {
    OperatingPoint p;
    p.freq_mhz = freq_mhz;
    p.vdd = 0.7;
    p.noise.sigma_mv = sigma_mv;
    return p;
}

std::string bytes_of(const PointSummary& summary) {
    std::ostringstream os;
    campaign::save_point_summary(os, summary);
    return os.str();
}

McConfig config_for(std::size_t threads, std::size_t trials = 24) {
    McConfig config;
    config.trials = trials;
    config.seed = 77;
    config.threads = threads;
    return config;
}

/// Runs one point at `threads` on a fresh model from `make_model` set to
/// `mode` (the runner's worker contexts clone it) and returns the
/// summary's exact bytes.
template <typename MakeModel>
std::string run_bytes(const Benchmark& bench, MakeModel make_model,
                      const OperatingPoint& point, FaultSamplingMode mode,
                      std::size_t threads) {
    auto model = make_model();
    model->set_sampling_mode(mode);
    MonteCarloRunner runner(bench, *model, config_for(threads));
    return bytes_of(runner.run_point(point));
}

/// The reference walk's summary at one thread against the production
/// model's under Batched sampling at 1 and max_threads() threads.
template <typename MakeReference, typename MakeModel>
void expect_matches_reference(MakeReference make_reference,
                              MakeModel make_model,
                              const OperatingPoint& point, const char* label) {
    const auto bench = make_benchmark(BenchmarkId::Median);
    const std::string reference = run_bytes(
        *bench, make_reference, point, FaultSamplingMode::Batched, 1);
    for (const std::size_t threads : {std::size_t{1}, max_threads()}) {
        EXPECT_EQ(run_bytes(*bench, make_model, point,
                            FaultSamplingMode::Batched, threads),
                  reference)
            << label << ": batched diverged from the reference walk at "
            << "threads=" << threads;
    }
}

std::unique_ptr<FaultModel> reference_model_b() {
    return std::make_unique<ReferenceModelB>(shared_core().sta(),
                                             shared_core().lib().fit());
}

std::unique_ptr<FaultModel> reference_model_c() {
    return std::make_unique<ReferenceModelC>(shared_core().cdfs(),
                                             shared_core().lib().fit());
}

TEST(SamplingModeEquivalence, ModelBPlusSummariesAreByteIdentical) {
    // Transition region of B+ (noise straddles the STA limit): outcomes
    // mix, so the draw stream fully determines the summary.
    const double fsta = shared_core().sta_fmax_mhz(0.7);
    expect_matches_reference(reference_model_b,
                             [] { return shared_core().make_model_b(); },
                             noisy_point(fsta * 0.995), "model B+");
}

TEST(SamplingModeEquivalence, ModelCSummariesAreByteIdentical) {
    auto probe = shared_core().make_model_c();
    const double f0 = probe->first_fault_frequency_mhz(ExClass::Mul);
    expect_matches_reference(reference_model_c,
                             [] { return shared_core().make_model_c(); },
                             noisy_point(f0 * 1.02), "model C");
}

TEST(SamplingModeEquivalence, RazorDecoratedModelIsByteIdentical) {
    // The mitigation decorator adds a second consumer of the trial's Rng
    // stream (detection draws) around the inner model's noise draws.
    auto probe = shared_core().make_model_c();
    const double f0 = probe->first_fault_frequency_mhz(ExClass::Mul);
    RazorConfig razor;
    razor.detection_coverage = 0.7;
    expect_matches_reference(
        [&razor] {
            return std::make_unique<DetectionModel>(reference_model_c(),
                                                    razor);
        },
        [&razor] {
            return std::make_unique<DetectionModel>(
                shared_core().make_model_c(), razor);
        },
        noisy_point(f0 * 1.02), "razor(C)");
}

TEST(SamplingModeEquivalence, QuantizedIsDeterministicButItsOwnStream) {
    // "B-q" has no bit-identity contract with the reference walk — only
    // per-seed determinism and thread-count independence.
    const double fsta = shared_core().sta_fmax_mhz(0.7);
    const auto bench = make_benchmark(BenchmarkId::Median);
    const OperatingPoint point = noisy_point(fsta * 0.995);
    const auto make_model = [] { return shared_core().make_model_b(); };
    const std::string serial = run_bytes(*bench, make_model, point,
                                         FaultSamplingMode::Quantized, 1);
    EXPECT_EQ(run_bytes(*bench, make_model, point,
                        FaultSamplingMode::Quantized, 1),
              serial);
    EXPECT_EQ(run_bytes(*bench, make_model, point,
                        FaultSamplingMode::Quantized, max_threads()),
              serial);
}

}  // namespace
}  // namespace sfi
