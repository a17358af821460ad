#include "fi/cdf.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <numeric>
#include <ostream>
#include <stdexcept>

namespace sfi {

namespace {
constexpr std::uint32_t kMagic = 0x53464943;  // "SFIC"
constexpr std::uint32_t kVersion = 1;

template <typename T>
void put(std::ostream& os, const T& v) {
    os.write(reinterpret_cast<const char*>(&v), sizeof v);
}

template <typename T>
T get(std::istream& is) {
    T v{};
    is.read(reinterpret_cast<char*>(&v), sizeof v);
    if (!is) throw std::runtime_error("TimingErrorCdfs: truncated stream");
    return v;
}

/// Reads `n` arrival samples. The count comes from the file, so the
/// vector grows chunk by chunk with the bytes that actually arrive: a
/// forged count fails at end of stream instead of allocating up front.
/// violation_prob's upper_bound needs finite, non-decreasing samples, so
/// anything else is rejected as corrupt.
std::vector<float> get_samples(std::istream& is, std::uint64_t n) {
    constexpr std::uint64_t kChunk = 1u << 14;
    std::vector<float> samples;
    while (samples.size() < n) {
        const std::size_t have = samples.size();
        const auto take =
            static_cast<std::size_t>(std::min<std::uint64_t>(kChunk, n - have));
        samples.resize(have + take);
        is.read(reinterpret_cast<char*>(samples.data() + have),
                static_cast<std::streamsize>(take * sizeof(float)));
        if (!is) throw std::runtime_error("TimingErrorCdfs: truncated samples");
    }
    for (std::size_t i = 0; i < samples.size(); ++i) {
        if (!std::isfinite(samples[i]))
            throw std::runtime_error("TimingErrorCdfs: non-finite sample");
        if (i > 0 && samples[i] < samples[i - 1])
            throw std::runtime_error("TimingErrorCdfs: unsorted samples");
    }
    return samples;
}
}  // namespace

TimingErrorCdfs TimingErrorCdfs::from_dta(const DtaResult& dta) {
    TimingErrorCdfs store;
    store.setup_ps_ = dta.setup_ps;
    store.samples_ = dta.cycles;
    for (const DtaClassResult& cls_result : dta.classes) {
        PerClass& pc = store.classes_.at(static_cast<std::size_t>(cls_result.cls));
        pc.present = true;
        pc.sorted_arrivals = cls_result.arrivals_ps;
        for (auto& samples : pc.sorted_arrivals) {
            if (samples.size() != store.samples_)
                throw std::invalid_argument(
                    "TimingErrorCdfs: endpoint sample count differs from "
                    "the DTA cycle count");
            std::sort(samples.begin(), samples.end());
        }
        store.endpoints_ =
            std::max(store.endpoints_, pc.sorted_arrivals.size());
    }
    // The same shape load() demands of a file: one endpoint count for
    // every class, at most kMaxEndpoints.
    for (const PerClass& pc : store.classes_)
        if (pc.present && (pc.sorted_arrivals.size() != store.endpoints_ ||
                           store.endpoints_ > kMaxEndpoints))
            throw std::invalid_argument(
                "TimingErrorCdfs: classes need one endpoint count of at "
                "most 32");
    store.rebuild_derived();
    return store;
}

void TimingErrorCdfs::rebuild_derived() {
    for (PerClass& pc : classes_) {
        if (!pc.present) continue;
        const std::size_t n = pc.sorted_arrivals.size();
        pc.max_window_ps.assign(n, 0.0);
        for (std::size_t e = 0; e < n; ++e)
            if (!pc.sorted_arrivals[e].empty())
                pc.max_window_ps[e] =
                    static_cast<double>(pc.sorted_arrivals[e].back()) + setup_ps_;
        pc.order.resize(n);
        std::iota(pc.order.begin(), pc.order.end(), 0u);
        std::sort(pc.order.begin(), pc.order.end(),
                  [&](std::uint32_t lhs, std::uint32_t rhs) {
                      return pc.max_window_ps[lhs] > pc.max_window_ps[rhs];
                  });
        pc.class_max_window_ps =
            n ? *std::max_element(pc.max_window_ps.begin(), pc.max_window_ps.end())
              : 0.0;
    }
}

const TimingErrorCdfs::PerClass& TimingErrorCdfs::per_class(ExClass cls) const {
    const PerClass& pc = classes_.at(static_cast<std::size_t>(cls));
    if (!pc.present)
        throw std::out_of_range(std::string("TimingErrorCdfs: class not characterized: ") +
                                ex_class_name(cls));
    return pc;
}

bool TimingErrorCdfs::has_class(ExClass cls) const {
    return classes_.at(static_cast<std::size_t>(cls)).present;
}

std::size_t TimingErrorCdfs::violation_count(ExClass cls, std::size_t endpoint,
                                             double capture_window_ps) const {
    const auto& samples = per_class(cls).sorted_arrivals.at(endpoint);
    const double threshold = capture_window_ps - setup_ps_;
    // Violated samples are those with arrival > threshold.
    const auto it = std::upper_bound(samples.begin(), samples.end(), threshold,
                                     [](double t, float s) {
                                         return t < static_cast<double>(s);
                                     });
    return static_cast<std::size_t>(samples.end() - it);
}

double TimingErrorCdfs::violation_prob(ExClass cls, std::size_t endpoint,
                                       double capture_window_ps) const {
    const std::size_t count = violation_count(cls, endpoint, capture_window_ps);
    if (samples_ == 0) return 0.0;
    return static_cast<double>(count) / static_cast<double>(samples_);
}

double TimingErrorCdfs::class_max_window_ps(ExClass cls) const {
    return per_class(cls).class_max_window_ps;
}

double TimingErrorCdfs::endpoint_max_window_ps(ExClass cls,
                                               std::size_t endpoint) const {
    return per_class(cls).max_window_ps.at(endpoint);
}

const std::vector<double>& TimingErrorCdfs::endpoint_max_windows_ps(
    ExClass cls) const {
    return per_class(cls).max_window_ps;
}

double TimingErrorCdfs::max_window_ps() const {
    double worst = 0.0;
    for (const PerClass& pc : classes_)
        if (pc.present) worst = std::max(worst, pc.class_max_window_ps);
    return worst;
}

const std::vector<std::uint32_t>& TimingErrorCdfs::endpoints_by_criticality(
    ExClass cls) const {
    return per_class(cls).order;
}

void TimingErrorCdfs::save(std::ostream& os) const {
    put(os, kMagic);
    put(os, kVersion);
    put(os, setup_ps_);
    put(os, static_cast<std::uint64_t>(endpoints_));
    put(os, static_cast<std::uint64_t>(samples_));
    for (std::size_t c = 0; c < classes_.size(); ++c) {
        const PerClass& pc = classes_[c];
        put(os, static_cast<std::uint8_t>(pc.present));
        if (!pc.present) continue;
        put(os, static_cast<std::uint64_t>(pc.sorted_arrivals.size()));
        for (const auto& samples : pc.sorted_arrivals) {
            put(os, static_cast<std::uint64_t>(samples.size()));
            os.write(reinterpret_cast<const char*>(samples.data()),
                     static_cast<std::streamsize>(samples.size() * sizeof(float)));
        }
    }
}

TimingErrorCdfs TimingErrorCdfs::load(std::istream& is) {
    if (get<std::uint32_t>(is) != kMagic)
        throw std::runtime_error("TimingErrorCdfs: bad magic");
    if (get<std::uint32_t>(is) != kVersion)
        throw std::runtime_error("TimingErrorCdfs: unsupported version");
    TimingErrorCdfs store;
    store.setup_ps_ = get<double>(is);
    const auto endpoints = get<std::uint64_t>(is);
    const auto samples = get<std::uint64_t>(is);
    // The header fixes the shape of every class: model C walks endpoint
    // indices into a 32-bit mask, and divides each violation count by the
    // header's sample count. A file that disagrees with itself is corrupt.
    if (endpoints > kMaxEndpoints)
        throw std::runtime_error("TimingErrorCdfs: more than 32 endpoints");
    store.endpoints_ = static_cast<std::size_t>(endpoints);
    store.samples_ = static_cast<std::size_t>(samples);
    for (std::size_t c = 0; c < store.classes_.size(); ++c) {
        PerClass& pc = store.classes_[c];
        pc.present = get<std::uint8_t>(is) != 0;
        if (!pc.present) continue;
        if (get<std::uint64_t>(is) != endpoints)
            throw std::runtime_error(
                "TimingErrorCdfs: class endpoint count disagrees with the header");
        // Endpoints are appended as they are read (see get_samples).
        for (std::uint64_t e = 0; e < endpoints; ++e) {
            if (get<std::uint64_t>(is) != samples)
                throw std::runtime_error(
                    "TimingErrorCdfs: endpoint sample count disagrees with "
                    "the header");
            pc.sorted_arrivals.push_back(get_samples(is, samples));
        }
    }
    store.rebuild_derived();
    return store;
}

bool TimingErrorCdfs::operator==(const TimingErrorCdfs& other) const {
    if (setup_ps_ != other.setup_ps_ || endpoints_ != other.endpoints_ ||
        samples_ != other.samples_)
        return false;
    for (std::size_t c = 0; c < classes_.size(); ++c) {
        if (classes_[c].present != other.classes_[c].present) return false;
        if (classes_[c].present &&
            classes_[c].sorted_arrivals != other.classes_[c].sorted_arrivals)
            return false;
    }
    return true;
}

}  // namespace sfi
