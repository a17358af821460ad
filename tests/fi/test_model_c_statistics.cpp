// Statistical property tests: model C's empirical injection frequencies
// must match the CDF-store probabilities it samples from (the defining
// property of "statistical" fault injection) — per endpoint at the
// no-noise window, and under supply noise against the closed-form mixture
// over the quantized noise windows.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "fi/sampling_batch.hpp"
#include "testing/shared_core.hpp"

namespace sfi {
namespace {

using testing::shared_core;

TEST(ModelCStatistics, PerEndpointFlipRateMatchesCdfProbability) {
    auto model = shared_core().make_model_c();
    const TimingErrorCdfs& cdfs = *shared_core().cdfs();
    // Operating point with meaningful but sub-unity probabilities.
    OperatingPoint point;
    point.vdd = 0.7;
    point.freq_mhz = model->first_fault_frequency_mhz(ExClass::Mul) * 1.12;
    model->set_operating_point(point);
    model->reseed(77);

    const double window =
        point.period_ps() / shared_core().lib().fit().factor(point.vdd);
    std::array<std::uint64_t, 32> flips{};
    const int ops = 60000;
    Rng operands(5);
    for (int i = 0; i < ops; ++i) {
        model->on_cycle(true);
        ExEvent ev;
        ev.cls = ExClass::Mul;
        ev.operand_a = operands.u32();
        ev.operand_b = operands.u32();
        const std::uint32_t correct = ev.operand_a * ev.operand_b;
        const std::uint32_t got = model->on_ex_result(ev, correct);
        std::uint32_t diff = got ^ correct;
        while (diff) {
            const int bit = std::countr_zero(diff);
            ++flips[static_cast<std::size_t>(bit)];
            diff &= diff - 1;
        }
    }
    for (std::size_t bit = 0; bit < 32; ++bit) {
        const double expected = cdfs.violation_prob(ExClass::Mul, bit, window);
        const double observed =
            static_cast<double>(flips[bit]) / static_cast<double>(ops);
        // Binomial tolerance: 5 sigma plus a small absolute floor.
        const double sigma =
            std::sqrt(std::max(expected * (1.0 - expected), 1e-9) / ops);
        EXPECT_NEAR(observed, expected, 5.0 * sigma + 5e-4) << "bit " << bit;
    }
}

TEST(ModelCStatistics, TotalInjectionRateMatchesSumOfProbabilities) {
    auto model = shared_core().make_model_c();
    const TimingErrorCdfs& cdfs = *shared_core().cdfs();
    OperatingPoint point;
    point.vdd = 0.7;
    point.freq_mhz = model->first_fault_frequency_mhz(ExClass::Cmp) * 1.06;
    model->set_operating_point(point);
    model->reseed(78);
    const double window =
        point.period_ps() / shared_core().lib().fit().factor(point.vdd);
    double expected_per_op = 0.0;
    for (std::size_t bit = 0; bit < 32; ++bit)
        expected_per_op += cdfs.violation_prob(ExClass::Cmp, bit, window);
    ASSERT_GT(expected_per_op, 0.0);

    const int ops = 50000;
    for (int i = 0; i < ops; ++i) {
        model->on_cycle(true);
        ExEvent ev;
        ev.cls = ExClass::Cmp;
        ev.operand_a = 3u * i;
        ev.operand_b = 7u * i;
        model->on_ex_result(ev, ev.operand_a - ev.operand_b);
    }
    const double observed = static_cast<double>(model->stats().injections) /
                            static_cast<double>(ops);
    EXPECT_NEAR(observed, expected_per_op, 0.15 * expected_per_op + 1e-4);
}

TEST(ModelCStatistics, NoiseAveragedRateExceedsNoNoiseRateBelowThreshold) {
    // Below the no-noise onset, only noise produces injections; above it,
    // noise increases the average injection probability (the smoothing
    // that creates the paper's transition regions).
    auto clean = shared_core().make_model_c();
    auto noisy = shared_core().make_model_c();
    OperatingPoint point;
    point.vdd = 0.7;
    point.freq_mhz = clean->first_fault_frequency_mhz(ExClass::Mul) * 1.01;
    clean->set_operating_point(point);
    point.noise.sigma_mv = 15.0;
    noisy->set_operating_point(point);
    clean->reseed(79);
    noisy->reseed(79);
    for (int i = 0; i < 40000; ++i) {
        clean->on_cycle(true);
        noisy->on_cycle(true);
        ExEvent ev;
        ev.cls = ExClass::Mul;
        ev.operand_a = 0x9e3779b9u * i;
        ev.operand_b = 0x85ebca6bu * i;
        const std::uint32_t correct = ev.operand_a * ev.operand_b;
        clean->on_ex_result(ev, correct);
        noisy->on_ex_result(ev, correct);
    }
    EXPECT_GT(noisy->stats().injections, 2 * clean->stats().injections);
}

TEST(ModelCStatistics, NoisyInjectionRateMatchesTheWindowMixture) {
    // Under noise the window is row i of the noise-window table with the
    // clipped-Gaussian mass m_i of its rounding cell, and given the row
    // the endpoints flip independently. So injections per op have mean
    //   mu = sum_i m_i mu_i,  mu_i = sum_e p(c, e, w_i)
    // and variance
    //   sum_i m_i sum_e p (1 - p) + sum_i m_i (mu_i - mu)^2
    // (within-row plus between-row). This pins which window each memo row
    // stands for to the paper's definition, not to another engine.
    const TimingErrorCdfs& cdfs = *shared_core().cdfs();
    const VddDelayFit& fit = shared_core().lib().fit();
    std::uint64_t seed = 90;
    for (const double sigma_mv : {10.0, 25.0}) {
        for (const ExClass cls : {ExClass::Add, ExClass::Mul}) {
            // Just past the onset (noise alone reaches the faulting rows)
            // and well above it.
            for (const double factor : {1.02, 1.15}) {
                auto model = shared_core().make_model_c();
                OperatingPoint point;
                point.vdd = 0.7;
                point.noise.sigma_mv = sigma_mv;
                model->set_operating_point(point);
                point.freq_mhz = model->first_fault_frequency_mhz(cls) * factor;
                model->set_operating_point(point);
                model->reseed(seed++);

                const std::vector<double> windows =
                    build_noise_window_table(point, fit);
                const std::vector<double> masses = noise_index_masses(
                    sigma_mv, point.noise.clip_sigmas * sigma_mv,
                    windows.size());
                ASSERT_EQ(masses.size(), windows.size());
                std::vector<double> row_mean(windows.size(), 0.0);
                double mean = 0.0;
                double within = 0.0;
                for (std::size_t i = 0; i < windows.size(); ++i) {
                    for (std::size_t e = 0; e < cdfs.endpoint_count(); ++e) {
                        const double p = cdfs.violation_prob(cls, e, windows[i]);
                        row_mean[i] += p;
                        within += masses[i] * p * (1.0 - p);
                    }
                    mean += masses[i] * row_mean[i];
                }
                double between = 0.0;
                for (std::size_t i = 0; i < windows.size(); ++i)
                    between += masses[i] * (row_mean[i] - mean) *
                               (row_mean[i] - mean);
                ASSERT_GT(mean, 0.0) << "sigma " << sigma_mv << " factor "
                                     << factor << ": nothing to measure";

                const int ops = 50000;
                Rng operands(seed);
                for (int i = 0; i < ops; ++i) {
                    model->on_cycle(true);
                    ExEvent ev;
                    ev.cls = cls;
                    ev.operand_a = operands.u32();
                    ev.operand_b = operands.u32();
                    model->on_ex_result(ev, ev.operand_a ^ ev.operand_b);
                }
                const double observed =
                    static_cast<double>(model->stats().injections) / ops;
                const double standard_error =
                    std::sqrt((within + between) / ops);
                EXPECT_NEAR(observed, mean, 5.0 * standard_error)
                    << ex_class_name(cls) << " sigma " << sigma_mv
                    << " mV, " << factor << "x first fault";
            }
        }
    }
}

}  // namespace
}  // namespace sfi
