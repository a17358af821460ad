#include "testing/cwc_enumerative.hpp"

namespace sfi::testing {

std::uint64_t cwc_encode_enumerative(const CwcCode& code, std::uint64_t index) {
    std::uint64_t word = 0;
    unsigned r = code.w;
    for (unsigned p = code.n; p-- > 0;) {
        if (r == 0) break;
        const std::uint64_t c = cwc_binomial(p, r);
        if (index >= c) {
            word |= 1ull << p;
            index -= c;
            --r;
        }
    }
    return word;
}

std::uint64_t cwc_decode_enumerative(const CwcCode& code, std::uint64_t word) {
    std::uint64_t index = 0;
    unsigned r = code.w;
    for (unsigned p = code.n; p-- > 0;) {
        if (r == 0) break;
        if ((word >> p) & 1) {
            index += cwc_binomial(p, r);
            --r;
        }
    }
    return index;
}

}  // namespace sfi::testing
