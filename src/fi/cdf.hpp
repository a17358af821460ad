// Timing-error-probability CDF store: the interface between dynamic
// timing analysis (characterization time) and fault model C (simulation
// time).
//
// For every (instruction class, endpoint) pair the store keeps the sorted
// per-cycle arrival-time samples of the DTA characterization kernel, all
// at the reference voltage. The probability that instruction I violates
// endpoint E at clock frequency f, supply voltage V and per-cycle noise n
// is evaluated as
//     P = fraction of samples with  arrival + setup > window,
//     window = (1/f) / delay_factor(V + n)
// i.e. all operating-point and noise dependence is folded into a single
// capture-window scaling, exactly the "CDF scaling-factor" of Fig. 3.
// (Under the paper's own approximation that path delays scale uniformly
// with voltage, this is equivalent to re-characterizing at each voltage.)
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "isa/isa.hpp"
#include "timing/dta.hpp"

namespace sfi {

class TimingErrorCdfs {
public:
    TimingErrorCdfs() = default;

    /// Builds the store from a DTA characterization result.
    static TimingErrorCdfs from_dta(const DtaResult& dta);

    /// True if `cls` was characterized.
    bool has_class(ExClass cls) const;

    std::size_t endpoint_count() const { return endpoints_; }
    double setup_ps() const { return setup_ps_; }
    std::size_t samples_per_endpoint() const { return samples_; }

    /// Endpoints per class are capped at the ALU's 32 result bits: the
    /// fault models inject by shifting 1u by the endpoint index.
    static constexpr std::size_t kMaxEndpoints = 32;

    /// Number of samples with arrival + setup > capture_window_ps for one
    /// endpoint — exact, so violation_prob is this count over
    /// samples_per_endpoint() (every endpoint of a store carries exactly
    /// that many samples; from_dta and load enforce it).
    std::size_t violation_count(ExClass cls, std::size_t endpoint,
                                double capture_window_ps) const;

    /// P[arrival + setup > capture_window_ps] for one endpoint:
    /// violation_count / samples_per_endpoint (0 for an empty store).
    double violation_prob(ExClass cls, std::size_t endpoint,
                          double capture_window_ps) const;

    /// Worst arrival + setup over all endpoints of `cls` (ps @ Vref):
    /// the class is error-free whenever the capture window exceeds this.
    double class_max_window_ps(ExClass cls) const;
    /// Worst arrival + setup for one endpoint of `cls`.
    double endpoint_max_window_ps(ExClass cls, std::size_t endpoint) const;
    /// The same for every endpoint of `cls` at once (indexed by endpoint):
    /// lets a per-op walk hoist the class lookup out of its loop.
    const std::vector<double>& endpoint_max_windows_ps(ExClass cls) const;
    /// Worst over all classes.
    double max_window_ps() const;

    /// Endpoint indices of `cls` sorted by decreasing max window — the
    /// fault models walk this list and stop at the first safe endpoint.
    const std::vector<std::uint32_t>& endpoints_by_criticality(ExClass cls) const;

    // ---- persistence (binary, versioned) --------------------------------
    void save(std::ostream& os) const;
    /// Rejects (std::runtime_error) anything save() cannot have written:
    /// bad magic/version, truncation, non-finite or unsorted samples, a
    /// header above kMaxEndpoints endpoints, and a present class whose
    /// endpoint count, or an endpoint whose sample count, disagrees with
    /// the header.
    static TimingErrorCdfs load(std::istream& is);

    bool operator==(const TimingErrorCdfs& other) const;

private:
    struct PerClass {
        bool present = false;
        std::vector<std::vector<float>> sorted_arrivals;  // [endpoint][sample]
        std::vector<double> max_window_ps;                // per endpoint
        std::vector<std::uint32_t> order;                 // endpoints by criticality
        double class_max_window_ps = 0.0;
    };

    const PerClass& per_class(ExClass cls) const;
    void rebuild_derived();

    std::vector<PerClass> classes_{kExClassCount};
    std::size_t endpoints_ = 0;
    std::size_t samples_ = 0;
    double setup_ps_ = 0.0;
};

}  // namespace sfi
