#include "obs/metrics.hpp"

namespace sfi::obs {

bool volatile_metric_name(std::string_view name) {
    return name.rfind("run.", 0) == 0;
}

void MetricsRegistry::add(std::string_view name, std::uint64_t delta) {
    auto it = counters_.find(name);
    if (it == counters_.end()) {
        counters_.emplace(std::string(name), delta);
    } else {
        it->second += delta;
    }
}

std::uint64_t MetricsRegistry::counter(std::string_view name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

}  // namespace sfi::obs
