// The process's parallel-for: a chunked, self-scheduling worker pool over
// an index range. Both fan-outs run on it: the Monte-Carlo trials of one
// operating point (src/mc/parallel.hpp) and the cycle chunks of one DTA
// characterization (src/timing/dta.hpp). Callers keep their results
// schedule-independent by writing them per index and reducing in index
// order (or with an order-free reduction such as a sum of integers).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace sfi {

/// Resolves a requested worker count: 0 = one per hardware thread
/// (at least 1), anything else is taken literally.
std::size_t resolve_thread_count(std::size_t requested);

/// Chunked self-scheduling parallel-for over indices [0, trials):
/// `threads` workers (the calling thread is worker 0) atomically grab
/// `chunk` consecutive indices at a time from a shared counter — dynamic
/// load balancing without per-index locking, which matters because
/// Monte-Carlo trial cost varies by ~an order of magnitude (watchdog runs
/// are `watchdog_factor`× longer than clean runs). Calls fn(worker,
/// index) at most once per index (exactly once when no worker throws);
/// each worker index is used by one thread only. With one worker the
/// indices run in order on the calling thread. The first exception thrown
/// by any worker is rethrown after all workers stopped; a failure flag
/// makes the surviving workers quit at their next chunk boundary instead
/// of finishing work whose results will be discarded.
void for_each_trial(std::size_t trials, std::size_t threads,
                    std::size_t chunk,
                    const std::function<void(std::size_t worker,
                                             std::uint64_t trial)>& fn);

}  // namespace sfi
