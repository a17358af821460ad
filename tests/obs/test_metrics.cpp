// MetricsRegistry contract: counters accumulate from zero, the ordered
// view is sorted (what makes ledger and BENCH_core.json emission
// deterministic), and the "run." naming convention separates volatile run
// telemetry from the spec-pure counters the logical ledger may emit.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

namespace sfi::obs {
namespace {

TEST(Metrics, CountersAccumulateAndDefaultToZero) {
    MetricsRegistry m;
    EXPECT_TRUE(m.counters().empty());
    EXPECT_EQ(m.counter("campaign.points"), 0u);
    m.add("campaign.points");
    m.add("campaign.points", 4);
    EXPECT_EQ(m.counter("campaign.points"), 5u);
    EXPECT_EQ(m.counters().size(), 1u);
}

TEST(Metrics, VolatileNamingConvention) {
    EXPECT_TRUE(volatile_metric_name("run.store_hits"));
    EXPECT_TRUE(volatile_metric_name("run."));
    EXPECT_FALSE(volatile_metric_name("campaign.points"));
    EXPECT_FALSE(volatile_metric_name("rerun.store_hits"));
    EXPECT_FALSE(volatile_metric_name("panel.run.x"));
    EXPECT_FALSE(volatile_metric_name(""));
}

TEST(Metrics, OrderedViewsAreSorted) {
    MetricsRegistry m;
    m.add("zeta");
    m.add("alpha");
    m.add("mid");
    std::vector<std::string> names;
    for (const auto& [name, value] : m.counters()) names.push_back(name);
    EXPECT_EQ(names, (std::vector<std::string>{"alpha", "mid", "zeta"}));
}

}  // namespace
}  // namespace sfi::obs
