#include "fi/cwc.hpp"

#include <array>
#include <bit>
#include <stdexcept>

#include "isa/isa.hpp"
#include "util/csv.hpp"

namespace sfi {

// ---------------------------------------------------------------------------
// Code geometry
// ---------------------------------------------------------------------------

std::uint64_t cwc_binomial(unsigned n, unsigned r) {
    if (r > n) return 0;
    if (r > n - r) r = n - r;
    std::uint64_t result = 1;
    // Multiply-before-divide keeps every intermediate C(n-r+i, i) exact.
    for (unsigned i = 1; i <= r; ++i) result = result * (n - r + i) / i;
    return result;
}

CwcCode CwcCode::for_block_bits(unsigned k) {
    if (k < 1 || k > 16 || 32 % k != 0)
        throw std::invalid_argument(
            "CwcCode: block_bits must divide 32 and be in [1, 16]");
    const std::uint64_t needed = 1ull << k;
    for (unsigned n = k;; ++n) {
        const unsigned w = n / 2;
        if (cwc_binomial(n, w) >= needed) return CwcCode{k, n, w};
    }
}

// ---------------------------------------------------------------------------
// Sequential codec (low-complexity scheme: one multiplicative update per
// position — C(p-1, r-1) = C(p, r) * r / p on a taken bit and
// C(p-1, r) = C(p, r) * (p - r) / p otherwise, both divisions exact)
// ---------------------------------------------------------------------------

std::uint64_t cwc_encode_sequential(const CwcCode& code, std::uint64_t index) {
    std::uint64_t word = 0;
    unsigned r = code.w;
    if (r == 0 || code.n == 0) return 0;
    std::uint64_t c = cwc_binomial(code.n - 1, r);
    for (unsigned p = code.n; p-- > 0;) {
        if (r == 0) break;
        if (index >= c) {
            word |= 1ull << p;
            index -= c;
            if (p > 0) c = c * r / p;
            --r;
        } else if (p > 0) {
            c = c * (p - r) / p;
        }
    }
    return word;
}

// ---------------------------------------------------------------------------
// Detection math
// ---------------------------------------------------------------------------

double cwc_block_escape_probability(unsigned code_distance) {
    if (code_distance == 0) return 1.0;
    // Of the 2^d capture subsets of the d differing bits, the weight is
    // preserved exactly by the balanced ones: C(d, d/2).
    return static_cast<double>(cwc_binomial(code_distance, code_distance / 2)) /
           static_cast<double>(1ull << code_distance);
}

double cwc_detect_probability(const CwcCode& code, std::uint32_t correct,
                              std::uint32_t corrupted) {
    if (correct == corrupted) return 0.0;
    const unsigned blocks = 32 / code.k;
    const std::uint32_t mask = (code.k >= 32)
                                   ? 0xffffffffu
                                   : ((1u << code.k) - 1u);
    double escape = 1.0;
    for (unsigned b = 0; b < blocks; ++b) {
        const std::uint32_t x = (correct >> (b * code.k)) & mask;
        const std::uint32_t y = (corrupted >> (b * code.k)) & mask;
        if (x == y) continue;
        const std::uint64_t cx = cwc_encode_sequential(code, x);
        const std::uint64_t cy = cwc_encode_sequential(code, y);
        const unsigned d =
            static_cast<unsigned>(std::popcount(cx ^ cy));
        escape *= cwc_block_escape_probability(d);
    }
    return 1.0 - escape;
}

// ---------------------------------------------------------------------------
// Coverage table
// ---------------------------------------------------------------------------

std::vector<CwcCoverageRow> cwc_coverage_table(const CwcCode& code,
                                               unsigned operand_bits) {
    if (operand_bits < 1 || operand_bits > 8)
        throw std::invalid_argument(
            "cwc_coverage_table: operand_bits must be in [1, 8]");
    const std::uint32_t operands = 1u << operand_bits;
    const double pairs =
        static_cast<double>(operands) * static_cast<double>(operands);
    std::vector<CwcCoverageRow> rows;
    rows.reserve((kExClassCount - 1) * 32);
    for (std::size_t c = static_cast<std::size_t>(ExClass::Add);
         c < kExClassCount; ++c) {
        const ExClass cls = static_cast<ExClass>(c);
        std::array<double, 32> sums{};
        for (std::uint32_t a = 0; a < operands; ++a)
            for (std::uint32_t b = 0; b < operands; ++b) {
                const std::uint32_t r = alu_result(cls, a, b);
                for (unsigned bit = 0; bit < 32; ++bit)
                    sums[bit] += cwc_detect_probability(code, r, r ^ (1u << bit));
            }
        for (unsigned bit = 0; bit < 32; ++bit)
            rows.push_back({cls, bit, sums[bit] / pairs});
    }
    return rows;
}

void write_cwc_coverage_csv(const std::string& path, const CwcCode& code,
                            unsigned operand_bits) {
    CsvWriter csv(path);
    csv.header({"block_bits", "code_n", "code_w", "operand_bits", "ex_class",
                "bit", "coverage"});
    for (const CwcCoverageRow& row : cwc_coverage_table(code, operand_bits)) {
        csv.cell(static_cast<std::uint64_t>(code.k))
            .cell(static_cast<std::uint64_t>(code.n))
            .cell(static_cast<std::uint64_t>(code.w))
            .cell(static_cast<std::uint64_t>(operand_bits))
            .cell(ex_class_name(row.cls))
            .cell(static_cast<std::uint64_t>(row.bit))
            .cell(row.coverage);
        csv.end_row();
    }
    csv.close();
}

}  // namespace sfi
