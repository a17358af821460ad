// Deterministic named counters for run telemetry.
//
// A registry belongs to one campaign run (or to a driver that threads one
// registry through several runs) and is touched only on the dispatch
// thread — the class is NOT thread-safe. Where time went is not counted
// here: it is recorded as spans on the run ledger (obs/ledger.hpp).
//
// Naming convention: metrics whose name starts with "run." describe the
// specific execution (store hits, batch counts, forensic trials) and are
// excluded from logical-mode ledger emission so that warm reruns and
// different thread counts stay byte-identical. Everything else must be a
// pure function of the campaign spec and is emitted in both trace modes.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace sfi::obs {

/// True when `name` is volatile by convention ("run." prefix) and must be
/// kept out of byte-stable (logical-mode) ledger output.
bool volatile_metric_name(std::string_view name);

class MetricsRegistry {
public:
    /// Adds `delta` to the named counter, creating it at zero first.
    void add(std::string_view name, std::uint64_t delta = 1);

    /// Current counter value; absent counters read as 0.
    std::uint64_t counter(std::string_view name) const;

    /// Ordered view (std::map keeps lexicographic key order, which is
    /// what makes emission deterministic).
    const std::map<std::string, std::uint64_t, std::less<>>& counters() const {
        return counters_;
    }

private:
    std::map<std::string, std::uint64_t, std::less<>> counters_;
};

}  // namespace sfi::obs
