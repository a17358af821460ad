// Constant-weight-code (CWC) error detection — the code behind the second
// detector of DetectionModel next to Razor replay (fi/mitigation.hpp),
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
//     1 - prod_b P(escape_b), and DetectionModel resolves the verdict
//     with ONE deterministic rng_.chance() draw.
//
// cwc_coverage_table() averages the same formula over every operand pair
// of a small-width ALU-result distribution, giving the exact per-
// (ExClass, bit) single-bit-flip coverage that scripts/check_cwc.py
// re-derives independently by brute force. docs/MITIGATIONS.md has the
// full derivation and the cost model (cwc_cost, fi/mitigation.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

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

}  // namespace sfi
