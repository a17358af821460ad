#include "fi/sampling_batch.hpp"

#include <algorithm>
#include <cmath>

namespace sfi {

std::optional<FaultSamplingMode> parse_fault_sampling_mode(
    const std::string& name) {
    if (name == "batched") return FaultSamplingMode::Batched;
    if (name == "quantized") return FaultSamplingMode::Quantized;
    return std::nullopt;
}

void noise_draws_to_indices(const double* draws, std::uint32_t* indices,
                            std::size_t n, double clip_mv, double clip_v,
                            std::size_t entries) {
    // Elementwise this must stay the exact IEEE operation sequence of the
    // reference draw + noise_table_index (tests/testing/reference_noise.hpp):
    // clamp in mV, scale to volts, affine map to [0, 1], round half up by
    // +0.5 and truncate.
    if (clip_v <= 0.0) {
        // The reference's degenerate case: no clip span, every draw maps
        // to the middle entry.
        const auto mid = static_cast<std::uint32_t>(entries / 2);
        for (std::size_t i = 0; i < n; ++i) indices[i] = mid;
        return;
    }
    const double scale = static_cast<double>(entries - 1);
    const double inv_span = 2.0 * clip_v;
    const auto max_index = static_cast<std::int64_t>(entries - 1);
    for (std::size_t i = 0; i < n; ++i) {
        const double clamped =
            std::min(std::max(draws[i], -clip_mv), clip_mv);
        const double noise_v = clamped * 1e-3;
        const double t = (noise_v + clip_v) / inv_span;
        auto idx = static_cast<std::int64_t>(t * scale + 0.5);
        idx = std::min(std::max(idx, std::int64_t{0}), max_index);
        indices[i] = static_cast<std::uint32_t>(idx);
    }
}

std::vector<double> noise_index_masses(double sigma_mv, double clip_mv,
                                       std::size_t entries) {
    std::vector<double> mass;
    if (sigma_mv <= 0.0 || entries < 2) return mass;
    mass.assign(entries, 0.0);
    if (clip_mv <= 0.0) {
        // The reference's degenerate case: every draw maps to the middle
        // entry.
        mass[entries / 2] = 1.0;
        return mass;
    }

    // Exact bin masses of the clamped draw under round-half-up binning: index i collects t in [(i-0.5)/(E-1), (i+0.5)/(E-1)),
    // i.e. noise below (2t-1)*clip in mV; the boundary bins additionally
    // absorb the clamp mass beyond +/-clip. Masses depend only on
    // clip_mv/sigma_mv, so the table survives frequency/voltage sweeps.
    const std::size_t n = entries;
    const auto cdf = [&](double x_mv) {
        return 0.5 * std::erfc(-(x_mv / sigma_mv) / std::sqrt(2.0));
    };
    double below = 0.0;
    for (std::size_t i = 0; i + 1 < n; ++i) {
        const double upper_t =
            (static_cast<double>(i) + 0.5) / static_cast<double>(n - 1);
        const double upper = cdf((2.0 * upper_t - 1.0) * clip_mv);
        mass[i] = upper - below;
        below = upper;
    }
    mass[n - 1] = 1.0 - below;
    return mass;
}

AliasTable build_alias_from_masses(const std::vector<double>& mass) {
    AliasTable table;
    const std::size_t n = mass.size();
    if (n == 0) return table;

    // Vose's alias construction; thresholds quantized to Q0.64.
    std::vector<double> scaled(n);
    for (std::size_t i = 0; i < n; ++i) {
        scaled[i] = mass[i] * static_cast<double>(n);
    }
    table.threshold.assign(n, ~std::uint64_t{0});
    table.alias.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        table.alias[i] = static_cast<std::uint32_t>(i);
    }
    std::vector<std::uint32_t> small;
    std::vector<std::uint32_t> large;
    for (std::size_t i = 0; i < n; ++i) {
        (scaled[i] < 1.0 ? small : large)
            .push_back(static_cast<std::uint32_t>(i));
    }
    const auto to_q64 = [](double q) -> std::uint64_t {
        if (q >= 1.0) return ~std::uint64_t{0};
        if (q <= 0.0) return 0;
        return static_cast<std::uint64_t>(q * 0x1.0p64);
    };
    while (!small.empty() && !large.empty()) {
        const std::uint32_t s = small.back();
        small.pop_back();
        const std::uint32_t l = large.back();
        large.pop_back();
        table.threshold[s] = to_q64(scaled[s]);
        table.alias[s] = l;
        scaled[l] = (scaled[l] + scaled[s]) - 1.0;
        (scaled[l] < 1.0 ? small : large).push_back(l);
    }
    // Leftovers (numerical dust on either stack) are full bins: keep the
    // all-ones threshold and the self alias they already have.
    return table;
}

AliasTable build_noise_index_alias(double sigma_mv, double clip_mv,
                                   std::size_t entries) {
    return build_alias_from_masses(
        noise_index_masses(sigma_mv, clip_mv, entries));
}

void NoiseIndexBatch::configure(double sigma_mv, double clip_mv,
                                double clip_v, std::size_t entries,
                                FaultSamplingMode mode, Rng& rng) {
    if (mode == mode_ && sigma_mv == sigma_mv_ && clip_mv == clip_mv_ &&
        clip_v == clip_v_ && entries == entries_) {
        return;
    }
    resync(rng);  // the prefetch is about to go: give its lead back
    mode_ = mode;
    sigma_mv_ = sigma_mv;
    clip_mv_ = clip_mv;
    clip_v_ = clip_v;
    entries_ = entries;
    pos_ = 0;
    size_ = 0;
    next_fill_ = kMinFill;
    alias_ = AliasTable{};
    if (mode_ == FaultSamplingMode::Quantized && entries_ >= 2 &&
        sigma_mv_ > 0.0) {
        alias_ = build_noise_index_alias(sigma_mv_, clip_mv_, entries_);
    }
}

void NoiseIndexBatch::start_trial() {
    pos_ = 0;
    size_ = 0;
    next_fill_ = kMinFill;
}

void NoiseIndexBatch::refill(Rng& rng) {
    const std::size_t want = next_fill_;
    next_fill_ = std::min(next_fill_ * 2, kMaxFill);
    if (indices_.size() < want) indices_.resize(want);
    if (normals_.size() < want) normals_.resize(want);
    snapshot_ = rng;
    rng.normal_fill(0.0, sigma_mv_, normals_.data(), want);
    normals_drawn_ += want;
    noise_draws_to_indices(normals_.data(), indices_.data(), want,
                           clip_mv_, clip_v_, entries_);
    pos_ = 0;
    size_ = want;
}

void NoiseIndexBatch::resync(Rng& rng) {
    // Interleaves cluster: whatever the next fill prefetches, the next
    // interleave likely discards, so restart the schedule at one draw.
    next_fill_ = 1;
    // A fully consumed fill (or none at all) left the generator exactly
    // where pos_ reference draws would: nothing to undo.
    if (pos_ == size_) return;
    // pos_ draws of the current fill have been consumed (including the
    // one that opened the interleave). Rewind to the fill snapshot and
    // replay exactly those draws — bit-identical values, so the caller's
    // past decisions stay valid and the generator lands in the state the
    // reference draws would leave right now.
    rng = snapshot_;
    if (pos_ > 0) {
        rng.normal_fill(0.0, sigma_mv_, normals_.data(), pos_);
        normals_drawn_ += pos_;
    }
    size_ = pos_;  // the unconsumed prefetch is now stale
}

}  // namespace sfi
