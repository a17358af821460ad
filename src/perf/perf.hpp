// Monotonic stopwatch for drivers that report seconds (sfi_perf's kernel
// samples, sfi_forensics' forensic pass). Where the library's own time
// goes is recorded as wall-mode ledger spans instead (obs/ledger.hpp);
// BENCH_core.json's phase rows are summed from them (perf/report.hpp).
#pragma once

#include <chrono>

namespace sfi::perf {

/// Monotonic stopwatch: seconds() can never go backwards between calls
/// (steady_clock), and restart() re-arms it.
class Stopwatch {
public:
    Stopwatch() : start_(Clock::now()) {}

    void restart() { start_ = Clock::now(); }

    /// Seconds since construction / the last restart (>= 0).
    double seconds() const {
        return std::chrono::duration<double>(Clock::now() - start_).count();
    }

private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point start_;
};

}  // namespace sfi::perf
