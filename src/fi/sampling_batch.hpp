// Fault sampling for the noise-modulated models (B+/C): each ALU op
// takes one clipped-Gaussian supply-noise draw from the per-trial Rng
// stream and maps it to a row of the point's noise-window table. The
// one-draw-per-op reference (VddNoise::draw + noise_table_index and the
// reference walks of models B and C, all test oracles in tests/testing/)
// fixes which uniforms each draw consumes and which row it lands on; the
// library reproduces both exactly, in two ways.
//
// Model B+ needs a row for every draw and draws nothing else, so
// NoiseIndexBatch prefetches whole blocks of draws and converts them in
// one vectorizable pass. Its draw-order contract:
//
//  * a fill of n draws consumes the Rng exactly like n successive
//    reference draws (Rng::normal_fill has the prefix property: the
//    first m <= n values of a fill equal the first m sequential draws,
//    polar spare included);
//  * draws are consumed strictly in fill order, one per corrupt() call;
//  * unconsumed draws are discarded unobservably: at trial boundaries the
//    per-trial reseed restarts the stream, and a configuration change
//    (new point or sampling mode) first resyncs the generator: a fully
//    consumed fill needs nothing, since n draws of a fill advance the Rng
//    exactly like n reference draws; otherwise the batch rewinds to the
//    snapshot it took at fill time, replays exactly the consumed draws
//    and invalidates the rest of the prefetch;
//  * fills double from kMinFill, at a trial start and after a
//    configuration change, up to kMaxFill.
//
// Model C does not go through the batch. It reads its row only to decide
// whether the op's class can violate, and it interleaves Bernoulli
// uniforms with the draws whenever a violation is possible, so it draws
// on demand: one Rng::polar_half per op, which consumes the stream
// exactly as one reference draw does. The generator never runs ahead of
// the reference walk, so the uniforms need no resync. SafeRowPretest
// settles most ops from the polar half alone; only the rest pay for the
// half's factor (a log, a sqrt and a division) and the row.
//
// The index conversion (noise_draw_to_index, which the block pass loops
// over) quantizes each clamped draw to one of the `entries` window-table
// bins with the same IEEE double operation sequence as the reference
// noise_table_index (clamp, mV->V scale, affine map, round-half-up via
// +0.5 and truncation) — an integer result, so the decision tables
// (violation counts, cumulative fault masks in models.cpp) are exact, not
// approximate.
//
// FaultSamplingMode::Quantized replaces the Gaussian draw + conversion
// with direct alias-method sampling from the quantized clipped-normal
// distribution (Walker alias table with Q0.64 fixed-point thresholds,
// two raw 64-bit draws per sample). Model C samples the table row, model
// B its violation count. That is a different random stream —
// statistically equivalent, NOT bit-identical — so it ships as the
// fingerprinted model variants "B-q" and "C-q": core_config_fingerprint()
// mixes a salt for it and the campaign point store can never collide
// quantized summaries with exact ones.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace sfi {

/// How the noise-modulated fault models consume their per-op draws.
enum class FaultSamplingMode : std::uint8_t {
    Batched,    ///< the reference draws, bit-identical (block prefetch for
                ///< B+, on-demand polar halves for C)
    Quantized,  ///< alias-method sampling ("B-q", "C-q"; not bit-identical)
};

/// Parses a --fault-sampling flag value ("batched" / "quantized");
/// nullopt for anything else.
std::optional<FaultSamplingMode> parse_fault_sampling_mode(
    const std::string& name);

/// Converts one raw normal draw (mV units, mean 0 / stddev sigma as
/// produced by Rng::normal(0.0, sigma)) into its window-table index:
/// exactly the reference draw's clamp + mV->V scale followed by the
/// reference noise_table_index's affine map and round-half-up. `clip_mv`
/// is the clamp level in mV (clip_sigmas * sigma_mv) and `clip_v` the
/// same level in volts, computed by the caller with the models' own
/// expressions so no re-derivation can diverge. Requires entries >= 2.
/// Every step is monotone, so the index never decreases as the draw
/// grows (SafeRowPretest relies on that).
inline std::uint32_t noise_draw_to_index(double draw, double clip_mv,
                                         double clip_v, std::size_t entries) {
    if (clip_v <= 0.0) {
        // The reference's degenerate case: no clip span, every draw maps
        // to the middle entry.
        return static_cast<std::uint32_t>(entries / 2);
    }
    const double clamped = std::min(std::max(draw, -clip_mv), clip_mv);
    const double noise_v = clamped * 1e-3;
    const double t = (noise_v + clip_v) / (2.0 * clip_v);
    auto idx = static_cast<std::int64_t>(
        t * static_cast<double>(entries - 1) + 0.5);
    idx = std::min(std::max(idx, std::int64_t{0}),
                   static_cast<std::int64_t>(entries - 1));
    return static_cast<std::uint32_t>(idx);
}

/// noise_draw_to_index over a block of draws (Rng::normal_fill's output),
/// in one plain loop the compiler may vectorize.
void noise_draws_to_indices(const double* draws, std::uint32_t* indices,
                            std::size_t n, double clip_mv, double clip_v,
                            std::size_t entries);

/// Decides from a polar half (Rng::PolarHalf) alone, before its factor,
/// that the draw it stands for lands at or above one row of the
/// noise-window table: model C builds one per (op class, point) for the
/// class's first safe row, above which every window is at least the
/// class's worst window and the op cannot violate. The answer is exact
/// when it says "at or above"; "cannot tell" is always allowed and sends
/// the caller to the row itself.
///
/// The draw is d = 0.0 + sigma * (x * polar_factor(s)), and the safe
/// draws are those d >= edge for one double `edge` (the index is
/// monotone in the draw). Two tests prove d >= edge:
///  * the sign: x >= 0 gives d >= 0, enough when edge <= 0;
///  * the magnitude: x^2 <= s gives |d| <= sigma * sqrt(-2 ln s), which
///    is below -edge once s >= s_limit = exp(-(edge / sigma)^2 / 2), for
///    edge < 0. The constructor rounds s_limit up (see the .cpp).
class SafeRowPretest {
public:
    /// Never passes.
    SafeRowPretest() = default;

    /// The test for rows >= first_safe_row at the given noise parameters
    /// (noise_draw_to_index's, and sigma_mv > 0; without noise it never
    /// passes). first_safe_row == 0 always passes, and first_safe_row >=
    /// entries never does.
    SafeRowPretest(std::size_t first_safe_row, double sigma_mv,
                   double clip_mv, double clip_v, std::size_t entries);

    /// True only if the draw `half` stands for lands at or above the
    /// first safe row.
    bool passes(const Rng::PolarHalf& half) const {
        return half.s >= s_limit_ || (half.x >= 0.0 && sign_passes_);
    }

private:
    double s_limit_ = 2.0;      // above every s: the magnitude test is off
    bool sign_passes_ = false;  // the edge lies at or below 0 mV
};

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

/// Block buffer of prefetched window-table indices for one fault model
/// (B+). Value-semantic on purpose: FaultModel::clone() copies it, and a
/// copy reproduces the identical index stream from the identical Rng.
class NoiseIndexBatch {
public:
    static constexpr std::size_t kMinFill = 16;    ///< first fill of a trial
    static constexpr std::size_t kMaxFill = 4096;  ///< fill-size cap

    /// (Re)configures for an operating point. A no-op when nothing
    /// changed (preserves the buffered draws); otherwise gives the
    /// prefetch's lead back to `rng` (see resync), drops the buffer and
    /// restarts fills at kMinFill, so a configuration change in
    /// mid-stream continues exactly where the reference draws would.
    /// entries == 0 disables the batch (no noise at this point), and so
    /// does Quantized: its models sample their own alias tables.
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

    /// The next table index (Batched only), refilling the block buffer
    /// from `rng` when it runs dry.
    std::uint32_t next_index(Rng& rng) {
        if (pos_ == size_) refill(rng);
        return indices_[pos_++];
    }

    /// Buffered-but-unconsumed indices (testing aid).
    std::size_t pending() const { return size_ - pos_; }

    /// Normals this batch has pulled from its Rng — generated by fills
    /// plus replayed by a reconfiguration — over its lifetime (testing
    /// aid: against the draws consumed, it measures the prefetch
    /// overhead).
    std::uint64_t normals_drawn() const { return normals_drawn_; }

private:
    void refill(Rng& rng);
    /// The first step of every reconfiguration. When the current fill is
    /// fully consumed the generator already sits where the reference
    /// draws would put it, and nothing happens; otherwise rewinds `rng`
    /// to the fill snapshot, replays exactly the draws consumed from this
    /// fill (bit-identical values, so nothing observable changes), and
    /// invalidates the remaining prefetch. On return the generator state
    /// equals the reference's after the same draws.
    void resync(Rng& rng);

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
    Rng snapshot_;                         // Rng state at fill time
};

}  // namespace sfi
