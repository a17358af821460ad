// Constant-weight-code (CWC) error detection on top of any fault model —
// the second mitigation family next to Razor replay (fi/mitigation.hpp),
// motivated by Sasidharan/Viterbo/Dau's low-complexity binary constant-
// Hamming-weight codes: encode each k-bit block of the EX result as an
// n-bit codeword of constant weight w, and flag a timing fault whenever
// the latched codeword's weight is off. Unlike Razor there is no shadow
// latch and no replay — detection is a cheap popcount check — but the
// code has genuine coverage holes: a violation that latches a *balanced*
// mix of old and new codeword bits preserves the weight and escapes.
//
// The detection math is exact and a-priori (no fitting):
//   * A k-bit data value x maps to enc(x), the x-th n-bit word of weight
//     w in lexicographic order (enumerative coding, Cover 1973), computed
//     with the sequential low-complexity scheme that updates one binomial
//     coefficient per bit (the Sasidharan paper's contribution); tests
//     hold it bit-equal to the plain enumerative form
//     (tests/testing/cwc_enumerative.hpp) over the full index space.
//   * When a timing fault corrupts a block from x to x', the d =
//     popcount(enc(x) ^ enc(x')) differing codeword bits each settle to
//     the old or the new value independently (the partial-capture model,
//     matching FaultPolicy semantics: some endpoints latch late). The
//     weight is preserved — the fault escapes — exactly when the captured
//     subset is balanced between the d/2 rising and d/2 falling bits, so
//     P(escape) = C(d, d/2) / 2^d and P(detect) = 1 - C(d, d/2) / 2^d.
//   * Per corrupted op the per-block detection probabilities combine as
//     1 - prod_b P(escape_b), and the decorator resolves the verdict with
//     ONE deterministic rng_.chance() draw.
//
// cwc_coverage_table() averages the same formula over every operand pair
// of a small-width ALU-result distribution, giving the exact per-
// (ExClass, bit) single-bit-flip coverage that scripts/check_cwc.py
// re-derives independently by brute force. docs/MITIGATIONS.md has the
// full derivation and the cost model (cwc_cost).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fi/mitigation.hpp"
#include "fi/models.hpp"

namespace sfi {

/// Binomial coefficient C(n, r) in exact 64-bit arithmetic (n <= 62 is
/// plenty for every code this library builds); r > n gives 0.
std::uint64_t cwc_binomial(unsigned n, unsigned r);

/// Code geometry for one protected block: k data bits carried by n-bit
/// codewords of constant Hamming weight w.
struct CwcCode {
    unsigned k = 8;   ///< data bits per block
    unsigned n = 11;  ///< codeword bits
    unsigned w = 5;   ///< codeword weight

    /// Number of weight-w words, C(n, w) — the code's index space.
    std::uint64_t codewords() const { return cwc_binomial(n, w); }

    /// Smallest code carrying k data bits: the least n with
    /// C(n, floor(n/2)) >= 2^k, at the central weight w = floor(n/2)
    /// (k = 4 -> (6, 3), k = 8 -> (11, 5), k = 16 -> (19, 9)).
    /// Throws std::invalid_argument unless 1 <= k <= 16 and k divides 32.
    static CwcCode for_block_bits(unsigned k);
};

/// Lexicographic unranking: data index in [0, C(n, w)) to the index-th
/// n-bit word of weight w, bit strings ordered MSB-first. The low-
/// complexity sequential scheme: one multiplicative binomial update per
/// bit position instead of a binomial evaluation per position. Bit-equal
/// to the enumerative reference form over the whole index space
/// (tests/fi/test_cwc.cpp).
std::uint64_t cwc_encode_sequential(const CwcCode& code, std::uint64_t index);

/// P(escape) of one corrupted block whose correct and corrupted codewords
/// differ in `code_distance` bits: C(d, d/2) / 2^d under the partial-
/// capture model (balanced subsets preserve the weight). d = 0 returns
/// 1.0 (nothing to detect); d is even for any constant-weight pair.
double cwc_block_escape_probability(unsigned code_distance);

/// P(detect) for one corrupted EX result: the 32-bit values are split
/// into 32/k blocks and the per-block escape probabilities multiply,
/// detect = 1 - prod. Returns 0.0 when correct == corrupted.
double cwc_detect_probability(const CwcCode& code, std::uint32_t correct,
                              std::uint32_t corrupted);

/// Exact a-priori single-bit-flip coverage of one (ExClass, result-bit)
/// pair: the mean of cwc_detect_probability(r, r ^ (1 << bit)) over the
/// ALU results r = alu_result(cls, a, b) of ALL operand pairs (a, b) in
/// [0, 2^operand_bits)^2 — the weight-violation detection derivation,
/// brute-force checkable because the operand space is enumerated, not
/// sampled.
struct CwcCoverageRow {
    ExClass cls = ExClass::Add;
    unsigned bit = 0;        ///< result bit position flipped (0..31)
    double coverage = 0.0;   ///< mean P(detect) over the operand space
};

/// Rows for every ALU class (Add..Cmp) x bit (0..31), class-major and
/// bit-ascending. `operand_bits` must be small (<= 8: the enumeration is
/// 4^operand_bits result evaluations per class).
std::vector<CwcCoverageRow> cwc_coverage_table(const CwcCode& code,
                                               unsigned operand_bits);

/// Writes the coverage table as CSV (columns: block_bits, code_n, code_w,
/// operand_bits, ex_class, bit, coverage) — the artifact
/// scripts/check_cwc.py validates against its own brute-force
/// enumeration. Throws std::runtime_error on I/O failure.
void write_cwc_coverage_csv(const std::string& path, const CwcCode& code,
                            unsigned operand_bits);

/// Knobs of the CWC detection stage.
struct CwcConfig {
    unsigned block_bits = 8;  ///< k; must divide 32 (CwcCode::for_block_bits)
    /// Pipeline stall per detection — the corrupted result is recomputed
    /// at a relaxed (checker) path, not replayed through the pipeline, so
    /// this is a fraction of Razor's 11-cycle replay.
    unsigned recovery_penalty_cycles = 2;
};

/// CWC's price (DetectorCost, fi/mitigation.hpp), derived from the code
/// geometry of `config.block_bits`: the encode/decode logic in series
/// with the EX stage derates the clock by one percent per check bit,
/// 0.01 · (n − k); the widened n-bit datapath costs 0.5 · (n − k) / k
/// switching energy per protected k-bit block; each detection stalls for
/// `recovery_penalty_cycles`. Throws std::invalid_argument on a block
/// width CwcCode::for_block_bits rejects.
DetectorCost cwc_cost(const CwcConfig& config);

/// CWC detection decorator: keeps ErrorDetectionModel's contract (deep
/// clone, lock-step reseed of the inner model on a distinct stream,
/// forwarded sampling mode / clean-op credit / shared forensic probe,
/// delegated reachability), but the per-corruption verdict is drawn from
/// the exact code-domain detection probability instead of a flat
/// coverage knob. The probe counts the verdicts; cwc_cost prices them.
class CwcDetectionModel final : public FaultModel {
public:
    CwcDetectionModel(std::unique_ptr<FaultModel> inner, CwcConfig config);

    std::string name() const override {
        return "cwc" + std::to_string(code_.k) + "(" + inner_->name() + ")";
    }
    ModelFeatures features() const override { return inner_->features(); }
    /// Deep copy: clones the inner fault model, like the Razor decorator.
    std::unique_ptr<FaultModel> clone() const override;

    const FaultModel& inner() const { return *inner_; }
    const CwcCode& code() const { return code_; }
    const CwcConfig& config() const { return config_; }

    /// Reseeds the verdict-draw stream and the inner fault model on a
    /// distinct stream (a different salt than Razor's, so razor(C) and
    /// cwc(C) decorating the same inner model draw independently).
    void reseed(std::uint64_t seed) override {
        FaultModel::reseed(seed);
        inner_->reseed(seed ^ 0x43574331ULL);  // "CWC1"
    }

    void set_sampling_mode(FaultSamplingMode mode) override {
        FaultModel::set_sampling_mode(mode);
        inner_->set_sampling_mode(mode);
    }

    /// Weight checks only react to inner injections, so reachability is
    /// the inner model's (arms the zero-fault trial fast path).
    bool can_inject() const override { return inner_->can_inject(); }

    void count_clean_ops(std::uint64_t n) override {
        FaultModel::count_clean_ops(n);
        inner_->count_clean_ops(n);
    }

    /// Shared with the inner model, exactly like the Razor decorator: the
    /// inner corrupt() records injections, this decorator stamps the CWC
    /// verdict (fates kCwcDetected / kCwcEscaped) onto those records.
    void set_forensic_probe(ForensicProbe* probe) override {
        FaultModel::set_forensic_probe(probe);
        inner_->set_forensic_probe(probe);
    }

protected:
    std::uint32_t corrupt(const ExEvent& ev, std::uint32_t correct) override;
    void operating_point_changed() override;

private:
    CwcDetectionModel(const CwcDetectionModel& other);

    std::unique_ptr<FaultModel> inner_;
    CwcConfig config_;
    CwcCode code_;
};

}  // namespace sfi
