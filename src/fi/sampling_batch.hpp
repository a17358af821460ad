// Batched fault sampling for the noise-modulated models (B+/C): draw
// whole blocks of supply-noise values from the per-trial Rng stream at
// once, convert them to noise-window table indices with one vectorizable
// pass, and hand the models integer indices instead of one Gaussian draw
// per ALU op.
//
// Draw-order contract (what keeps the batched path bit-identical to the
// one-draw-per-op reference — VddNoise::draw + noise_table_index and the
// reference walks of models B and C, all test oracles in tests/testing/):
//
//  * a fill of n draws consumes the Rng exactly like n successive
//    reference draws (Rng::normal_fill has the prefix property: the
//    first m <= n values of a fill equal the first m sequential draws,
//    polar spare included);
//  * draws are consumed strictly in fill order, one per corrupt() call;
//  * unconsumed draws are discarded unobservably: at trial boundaries the
//    per-trial reseed restarts the stream, and a configuration change
//    (new point or sampling mode) first resyncs the generator as below;
//  * model C interleaves Bernoulli uniforms with the noise draws on the
//    SAME stream whenever a violation is possible, so before each
//    interleave resync() puts the generator where the reference walk
//    would have it. A fully consumed fill needs nothing: n draws of a
//    fill advance the Rng exactly like n reference draws. Otherwise the
//    batch rewinds to the snapshot it took at fill time, replays exactly
//    the consumed draws and invalidates the rest of the prefetch;
//  * fills double from kMinFill at a trial start and from ONE draw after
//    an interleave, up to kMaxFill. Interleaves cluster (a point where
//    model C can violate usually violates again soon), so restarting
//    small bounds what the next interleave throws away: every earlier
//    fill since the last interleave was consumed in full, so the normals
//    a discard wastes (prefetch plus replay) never exceed the draws
//    consumed since that interleave — plus kMinFill after a trial start.
//
// The index conversion quantizes each clamped draw to one of the
// `entries` window-table bins with the same IEEE double operation
// sequence as the reference noise_table_index (clamp, mV->V scale,
// affine map, round-half-up via +0.5 and truncation) — an integer result,
// so the decision tables (violation counts, cumulative fault masks in
// models.cpp) are exact, not approximate. An AVX2 variant of the pass is
// compiled behind the SFI_ENABLE_AVX2 CMake toggle; it uses only
// mul/add/div/min/max/cvtt intrinsics (no FMA contraction), so its
// indices are bit-identical to the plain loop's.
//
// FaultSamplingMode::Quantized replaces the Gaussian draw + conversion
// with direct alias-method sampling of the table index from the
// quantized clipped-normal distribution (Walker alias table with Q0.64
// fixed-point thresholds, two raw 64-bit draws per index). That is a
// different random stream — statistically equivalent, NOT bit-identical
// — so it ships as the fingerprinted model variant "B-q":
// core_config_fingerprint() mixes a salt for it and the campaign point
// store can never collide quantized summaries with exact ones.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace sfi {

/// How the noise-modulated fault models consume their per-op draws.
enum class FaultSamplingMode : std::uint8_t {
    Batched,    ///< block prefetch + index conversion; bit-identical
    Quantized,  ///< alias-method index sampling ("B-q"; not bit-identical)
};

/// Parses a --fault-sampling flag value ("batched" / "quantized");
/// nullopt for anything else.
std::optional<FaultSamplingMode> parse_fault_sampling_mode(
    const std::string& name);

/// Converts raw normal draws (mV units, mean 0 / stddev sigma as produced
/// by Rng::normal_fill) into window-table indices. Elementwise this is
/// exactly the reference draw's clamp + mV->V scale followed by the
/// reference noise_table_index's affine map and round-half-up — the
/// plain loop is auto-vectorizable, and the AVX2 variant below produces
/// bit-identical indices. `clip_mv` is the clamp level in mV (clip_sigmas * sigma_mv)
/// and `clip_v` the same level in volts, computed by the caller with the
/// models' own expressions so no re-derivation can diverge.
/// Requires entries >= 2 (and, for the AVX2 path, entries <= 2^31).
void noise_draws_to_indices(const double* draws, std::uint32_t* indices,
                            std::size_t n, double clip_mv, double clip_v,
                            std::size_t entries);

/// The plain-loop implementation of the above (always available; the
/// AVX2-vs-scalar equivalence test compares against it directly).
void noise_draws_to_indices_scalar(const double* draws,
                                   std::uint32_t* indices, std::size_t n,
                                   double clip_mv, double clip_v,
                                   std::size_t entries);

/// True when this build carries the AVX2 conversion kernel AND the CPU
/// supports it (the dispatcher falls back to the scalar loop otherwise).
bool noise_conversion_uses_avx2();

/// Walker alias table over the quantized clipped-normal index
/// distribution: P(i) = probability that a clamped N(0, sigma) draw maps
/// to table index i under round-half-up binning. Thresholds are
/// Q0.64 fixed point (a uniform u64 below threshold[j] accepts bin j,
/// otherwise its alias), so sampling is two raw draws and one compare —
/// no floating point at all.
struct AliasTable {
    std::vector<std::uint64_t> threshold;  ///< Q0.64 acceptance levels
    std::vector<std::uint32_t> alias;      ///< fallback bin per column

    bool empty() const { return threshold.empty(); }

    /// Samples one index (consumes exactly two raw 64-bit draws).
    std::uint32_t sample(Rng& rng) const {
        // Multiply-shift bin pick: bias < 2^-64 * bins, far below the
        // Q0.64 threshold quantization itself.
        const std::uint32_t j = static_cast<std::uint32_t>(
            (static_cast<__uint128_t>(rng()) * threshold.size()) >> 64);
        return rng() < threshold[j] ? j : alias[j];
    }
};

/// Exact clipped-Gaussian masses of the round-half-up index cells
/// for `entries` bins at the given noise parameters (mV): element i is
/// P(clamped N(0, sigma_mv) draw maps to index i), with the clamp mass
/// beyond +/-clip collapsed into the boundary bins and the clip_mv <= 0
/// degenerate case a point mass at entries / 2. Empty when sigma_mv <= 0
/// or entries < 2. Depends only on clip_mv / sigma_mv and `entries` —
/// not on frequency or voltage — so operating-point sweeps reuse it.
std::vector<double> noise_index_masses(double sigma_mv, double clip_mv,
                                       std::size_t entries);

/// Vose alias construction over an arbitrary mass vector (must sum to ~1;
/// thresholds are quantized to Q0.64). Empty input gives an empty table.
AliasTable build_alias_from_masses(const std::vector<double>& mass);

/// build_alias_from_masses(noise_index_masses(...)): the table-index
/// sampler of FaultSamplingMode::Quantized. Model B compresses further —
/// it aliases the pushforward of these masses through its per-index
/// violation counts, sampling the count directly (see ModelB).
AliasTable build_noise_index_alias(double sigma_mv, double clip_mv,
                                   std::size_t entries);

/// Block buffer of prefetched window-table indices for one fault model.
/// Value-semantic on purpose: FaultModel::clone() copies it, and a copy
/// reproduces the identical index/resync stream from the identical Rng.
class NoiseIndexBatch {
public:
    static constexpr std::size_t kMinFill = 16;    ///< first fill of a trial
    static constexpr std::size_t kMaxFill = 4096;  ///< fill-size cap

    /// (Re)configures for an operating point. A no-op when nothing
    /// changed (preserves the buffered draws); otherwise resyncs `rng`
    /// (see resync) and drops the buffer, so a configuration change in
    /// mid-stream continues exactly where the reference draws would.
    /// entries == 0 disables the batch (no noise at this point).
    void configure(double sigma_mv, double clip_mv, double clip_v,
                   std::size_t entries, FaultSamplingMode mode, Rng& rng);

    /// Trial boundary (call from FaultModel::reseed): drops unconsumed
    /// draws — unobservable, the trial reseed restarts the stream — and
    /// resets the fill schedule. Fills grow geometrically from kMinFill
    /// within a trial, so prefetched-but-discarded normals are bounded by
    /// the trial's own consumption (trial lengths at a faulting point are
    /// heavy-tailed; sizing fills from a *previous* trial's demand wastes
    /// whole blocks of draws after every long trial).
    void start_trial();

    /// The next table index. Quantized mode samples the alias table
    /// directly — two raw u64 draws, already O(1), so buffering it would
    /// only add prefetch waste; exact mode refills the block buffer from
    /// `rng` when it runs dry.
    std::uint32_t next_index(Rng& rng) {
        if (mode_ == FaultSamplingMode::Quantized) return alias_.sample(rng);
        if (pos_ == size_) refill(rng);
        return indices_[pos_++];
    }

    /// Exact-mode rollback for interleaved consumers (model C). When the
    /// current fill is fully consumed the generator already sits where
    /// the reference draws would put it, and nothing happens; otherwise rewinds
    /// `rng` to the fill snapshot, replays exactly the draws consumed
    /// from this fill (bit-identical values, so nothing observable
    /// changes), and invalidates the remaining prefetch. Either way the
    /// next fill starts at one draw. On return the generator state equals
    /// the reference's after the same draws, and the caller may consume
    /// uniforms directly.
    void resync(Rng& rng);

    /// True when draws are bit-identical to the one-draw-per-op reference
    /// (Batched); false for Quantized, whose indices come from the alias
    /// table and support no resync.
    bool exact() const { return mode_ == FaultSamplingMode::Batched; }

    /// Buffered-but-unconsumed indices (testing aid).
    std::size_t pending() const { return size_ - pos_; }

    /// Normals this batch has pulled from its Rng — generated by fills
    /// plus replayed by resync — over its lifetime (testing aid: against
    /// the draws consumed, it measures the prefetch overhead).
    std::uint64_t normals_drawn() const { return normals_drawn_; }

private:
    void refill(Rng& rng);

    FaultSamplingMode mode_ = FaultSamplingMode::Batched;
    double sigma_mv_ = 0.0;
    double clip_mv_ = 0.0;
    double clip_v_ = 0.0;
    std::size_t entries_ = 0;

    std::vector<double> normals_;          // fill scratch (exact mode)
    std::vector<std::uint32_t> indices_;   // the prefetched indices
    std::size_t pos_ = 0;                  // next index to hand out
    std::size_t size_ = 0;                 // valid prefix of indices_
    std::size_t next_fill_ = kMinFill;     // size of the next refill
    std::uint64_t normals_drawn_ = 0;      // see normals_drawn()
    Rng snapshot_;                         // Rng state at fill time (exact)
    AliasTable alias_;                     // Quantized only
};

}  // namespace sfi
