// Fault sampling for the noise-modulated models (B+/C): each ALU op
// takes one clipped-Gaussian supply-noise draw from the per-trial Rng
// stream and maps it to a row of the point's noise-window table. The
// one-draw-per-op reference (VddNoise::draw + noise_table_index and the
// reference walks of models B and C, all test oracles in tests/testing/)
// fixes which uniforms each draw consumes and which row it lands on; the
// library reproduces both exactly.
//
// The draw-order contract is one rule: models B+ and C both draw on
// demand, one Rng::polar_half per op, which consumes the stream exactly
// as one reference draw does. No generator ever runs ahead of the
// reference walk, so model C's Bernoulli uniforms come where the
// reference takes them, and a new point, a sampling-mode switch or a
// trial reseed needs no bookkeeping. SafeRowPretest settles most ops
// from the polar half alone; only the rest pay for the half's factor (a
// log, a sqrt and a division) and the row.
//
// The index conversion (noise_draw_to_index) quantizes each clamped draw
// to one of the `entries` window-table bins with the same IEEE double
// operation sequence as the reference noise_table_index (clamp, mV->V
// scale, affine map, round-half-up via +0.5 and truncation) — an integer
// result, so the decision tables (violation counts, cumulative fault
// masks in models.cpp) are exact, not approximate.
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
    Batched,    ///< the reference draws, bit-identical (one on-demand
                ///< polar half per op)
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

/// Decides from a polar half (Rng::PolarHalf) alone, before its factor,
/// that the draw it stands for lands at or above one row of the
/// noise-window table: model C builds one per (op class, point) for the
/// class's first safe row, above which every window is at least the
/// class's worst window and the op cannot violate, and model B+ one per
/// point for its first row from which no endpoint violates. The answer
/// is exact when it says "at or above"; "cannot tell" is always allowed
/// and sends the caller to the row itself.
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

}  // namespace sfi
