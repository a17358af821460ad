// Enumerative constant-weight codec (test oracle): the textbook
// lexicographic ranking/unranking with one binomial evaluation per bit
// position (Cover 1973). tests/fi/test_cwc.cpp proves the library's
// low-complexity sequential codec (src/fi/cwc.hpp) bit-equal to it.
#pragma once

#include <cstdint>

#include "fi/cwc.hpp"

namespace sfi::testing {

/// Data index in [0, C(n, w)) to the index-th n-bit word of weight w, bit
/// strings ordered MSB-first.
std::uint64_t cwc_encode_enumerative(const CwcCode& code, std::uint64_t index);

/// Inverse of cwc_encode_enumerative (ranking). `word` must have weight w.
std::uint64_t cwc_decode_enumerative(const CwcCode& code, std::uint64_t word);

}  // namespace sfi::testing
