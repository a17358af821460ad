// Forged CDF-store payloads for the loader's hostile-input tests
// (tests/fi/test_cdf.cpp, tests/fi/test_cdf_cache.cpp): each keeps the
// header and the framing intact and lies in exactly one place.
#pragma once

#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace sfi::testing {

struct CdfForgery {
    std::string label;
    std::string bytes;
};

/// Forgeries of the TimingErrorCdfs::save stream starting at `offset` in
/// `saved`: a huge endpoint count and a huge sample count (2^40 — no
/// allocation may trust them), one adjacent pair of samples swapped out
/// of order, a NaN sample, an extra endpoint beyond the header's count
/// (its samples later than any real one, so it would be the most
/// critical endpoint — for a 32-endpoint store, bit 32), and a first
/// endpoint one sample short of the header's count. The last two keep
/// every count consistent with the bytes that follow, so only the
/// header cross-check can catch them. All target the first present
/// class and its first endpoint, which must hold two distinct sample
/// values.
inline std::vector<CdfForgery> forge_cdf_payloads(const std::string& saved,
                                                  std::size_t offset = 0) {
    // Layout: magic u32, version u32, setup_ps f64, endpoints u64,
    // samples u64, then per class a present byte and, when present, an
    // endpoint count followed by (sample count, samples) per endpoint.
    std::size_t at = offset + 32;
    while (saved.at(at) == 0) ++at;  // absent classes are one byte each
    const std::size_t endpoint_count_at = at + 1;
    const std::size_t sample_count_at = at + 9;
    const std::size_t samples_at = at + 17;

    std::uint64_t n = 0;
    std::memcpy(&n, saved.data() + sample_count_at, sizeof n);
    const auto sample = [&](std::uint64_t i) {
        float value = 0.0f;
        std::memcpy(&value, saved.data() + samples_at + 4 * i, sizeof value);
        return value;
    };
    std::uint64_t rise = 0;  // first strictly increasing adjacent pair
    while (rise + 1 < n && !(sample(rise) < sample(rise + 1))) ++rise;
    if (rise + 1 >= n)
        throw std::logic_error("forge_cdf_payloads: no distinct samples");

    const auto patched = [&](std::size_t pos, const void* data, std::size_t len) {
        std::string bytes = saved;
        std::memcpy(bytes.data() + pos, data, len);
        return bytes;
    };
    const std::uint64_t huge = std::uint64_t{1} << 40;
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float lo = sample(rise);
    const float hi = sample(rise + 1);
    std::string swapped = patched(samples_at + 4 * rise, &hi, sizeof hi);
    std::memcpy(swapped.data() + samples_at + 4 * (rise + 1), &lo, sizeof lo);

    std::uint64_t endpoints = 0;
    std::memcpy(&endpoints, saved.data() + endpoint_count_at, sizeof endpoints);
    const std::uint64_t more = endpoints + 1;
    std::string extra = patched(endpoint_count_at, &more, sizeof more);
    std::string record(sizeof n + 4 * n, '\0');
    std::memcpy(record.data(), &n, sizeof n);
    const float late = sample(n - 1) + 1000.0f;
    for (std::uint64_t i = 0; i < n; ++i)
        std::memcpy(record.data() + sizeof n + 4 * i, &late, sizeof late);
    extra.insert(sample_count_at, record);

    const std::uint64_t fewer = n - 1;
    std::string shorter = patched(sample_count_at, &fewer, sizeof fewer);
    shorter.erase(samples_at + 4 * (n - 1), 4);

    return {{"huge endpoint count", patched(endpoint_count_at, &huge, sizeof huge)},
            {"huge sample count", patched(sample_count_at, &huge, sizeof huge)},
            {"swapped sample pair", std::move(swapped)},
            {"NaN sample", patched(samples_at, &nan, sizeof nan)},
            {"endpoint beyond the header", std::move(extra)},
            {"endpoint short of the header", std::move(shorter)}};
}

}  // namespace sfi::testing
