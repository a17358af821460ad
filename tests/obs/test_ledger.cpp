// Ledger writer/reader contract: JSONL round-trip fidelity, the logical
// determinism guarantees (zeroed timestamps, dropped worker lanes,
// volatile counters withheld), and byte-stability of the event stream
// modulo the documented volatile header line.
#include "obs/ledger.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <string>

namespace sfi::obs {
namespace {

/// Everything after the volatile header line (the part the byte-equality
/// contract covers; CI strips it the same way with `tail -n +2`).
std::string body(const std::ostringstream& os) {
    const std::string text = os.str();
    const std::size_t eol = text.find('\n');
    return eol == std::string::npos ? std::string{} : text.substr(eol + 1);
}

TEST(Ledger, ParseTraceMode) {
    EXPECT_EQ(parse_trace_mode("logical"), TraceMode::Logical);
    EXPECT_EQ(parse_trace_mode("wall"), TraceMode::Wall);
    EXPECT_FALSE(parse_trace_mode("WALL").has_value());
    EXPECT_FALSE(parse_trace_mode("").has_value());
}

TEST(Ledger, RoundTripPreservesEvents) {
    std::ostringstream os;
    {
        Ledger ledger(os, TraceMode::Wall);
        ledger.begin("campaign", {{"name", "tiny"}, {"trials", 5}});
        ledger.instant("probe",
                       {{"freq_mhz", 712.5}, {"failing", true}});
        ledger.worker_span(3, "trials", 10.0, 42.5, {{"trials", 7}});
        ledger.end("campaign", {{"completed", false}});
        EXPECT_EQ(ledger.events_written(), 4u);
    }
    std::istringstream is(os.str());
    const LedgerFile file = read_ledger(is);
    EXPECT_EQ(file.mode, TraceMode::Wall);
    EXPECT_EQ(file.version, 1);
    ASSERT_EQ(file.events.size(), 4u);

    const LedgerEvent& b = file.events[0];
    EXPECT_EQ(b.seq, 1u);
    EXPECT_EQ(b.ph, 'B');
    EXPECT_EQ(b.name, "campaign");
    EXPECT_EQ(b.tid, 0u);
    EXPECT_EQ(b.arg_string("name"), "tiny");
    EXPECT_EQ(b.arg_uint("trials"), 5u);

    const LedgerEvent& probe = file.events[1];
    EXPECT_EQ(probe.ph, 'i');
    EXPECT_DOUBLE_EQ(probe.arg_double("freq_mhz"), 712.5);
    EXPECT_EQ(probe.args[1].second, "true");  // raw JSON boolean
    EXPECT_TRUE(probe.arg_bool("failing"));
    EXPECT_FALSE(probe.arg_bool("freq_mhz", false));  // not a boolean
    EXPECT_TRUE(probe.arg_bool("missing", true));

    const LedgerEvent& span = file.events[2];
    EXPECT_EQ(span.ph, 'X');
    EXPECT_EQ(span.tid, 3u);
    EXPECT_DOUBLE_EQ(span.ts_us, 10.0);
    EXPECT_DOUBLE_EQ(span.dur_us, 42.5);
    EXPECT_EQ(span.arg_uint("trials"), 7u);

    EXPECT_EQ(file.events[3].ph, 'E');
    EXPECT_FALSE(file.events[3].has_arg("missing"));
    EXPECT_EQ(file.events[3].arg_uint("missing", 9), 9u);
}

TEST(Ledger, StringEscapingRoundTrips) {
    const std::string nasty = "a\"b\\c\nd\te";
    std::ostringstream os;
    {
        Ledger ledger(os, TraceMode::Logical);
        ledger.instant(nasty, {{"path", nasty}});
    }
    // The JSONL stays one line per event despite the embedded newline.
    const std::string text = os.str();
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
    std::istringstream is(os.str());
    const LedgerFile file = read_ledger(is);
    ASSERT_EQ(file.events.size(), 1u);
    EXPECT_EQ(file.events[0].name, nasty);
    EXPECT_EQ(file.events[0].arg_string("path"), nasty);
}

TEST(Ledger, LogicalModeZeroesTimeAndDropsWorkerLanes) {
    std::ostringstream os;
    {
        Ledger ledger(os, TraceMode::Logical);
        EXPECT_TRUE(ledger.logical());
        EXPECT_EQ(ledger.now_us(), 0.0);
        ledger.begin("panel", {{"name", "p"}});
        ledger.worker_span(1, "trials", 5.0, 6.0);  // must be dropped
        ledger.end("panel");
        EXPECT_EQ(ledger.events_written(), 2u);
    }
    std::istringstream is(os.str());
    const LedgerFile file = read_ledger(is);
    ASSERT_EQ(file.events.size(), 2u);
    for (const LedgerEvent& ev : file.events) {
        EXPECT_EQ(ev.ts_us, 0.0);
        EXPECT_EQ(ev.tid, 0u);
        EXPECT_NE(ev.ph, 'X');
    }
}

TEST(Ledger, LogicalEmitMetricsSkipsVolatileNames) {
    MetricsRegistry metrics;
    metrics.add("campaign.points", 4);
    metrics.add("run.store_hits", 9);
    metrics.add("panel.fig1.points", 7);

    std::ostringstream logical_os, wall_os;
    {
        Ledger ledger(logical_os, TraceMode::Logical);
        ledger.emit_metrics(metrics);
    }
    {
        Ledger ledger(wall_os, TraceMode::Wall);
        ledger.emit_metrics(metrics);
    }
    std::istringstream logical_is(logical_os.str());
    std::istringstream wall_is(wall_os.str());
    const LedgerFile logical = read_ledger(logical_is);
    const LedgerFile wall = read_ledger(wall_is);

    ASSERT_EQ(logical.events.size(), 2u);
    EXPECT_EQ(logical.events[0].name, "campaign.points");
    EXPECT_EQ(logical.events[0].ph, 'C');
    EXPECT_EQ(logical.events[0].arg_uint("value"), 4u);
    EXPECT_EQ(logical.events[1].name, "panel.fig1.points");

    ASSERT_EQ(wall.events.size(), 3u);  // wall mode emits everything
}

TEST(Ledger, LogicalStreamIsByteStableModuloHeader) {
    const auto write = [](std::ostringstream& os) {
        Ledger ledger(os, TraceMode::Logical);
        ledger.begin("campaign", {{"name", "tiny"}});
        ledger.begin("point", {{"index", 0}, {"freq_mhz", 500.0}});
        ledger.end("point", {{"stop", "ci-met"}, {"half_width", 0.0325}});
        ledger.end("campaign", {{"completed", true}});
    };
    std::ostringstream first, second;
    write(first);
    write(second);
    EXPECT_EQ(body(first), body(second));
    EXPECT_FALSE(body(first).empty());

    // The header is volatile (wall-clock provenance) but well-formed.
    std::istringstream is(first.str());
    const LedgerFile file = read_ledger(is);
    EXPECT_EQ(file.header_line.rfind("{\"schema\":\"sfi-ledger\"", 0), 0u);
    EXPECT_EQ(file.mode, TraceMode::Logical);
}

TEST(Ledger, RejectsForeignStreams) {
    std::istringstream empty("");
    EXPECT_THROW(read_ledger(empty), std::runtime_error);
    std::istringstream foreign("{\"schema\":\"other\"}\n");
    EXPECT_THROW(read_ledger(foreign), std::runtime_error);
    std::istringstream garbage("not json\n");
    EXPECT_THROW(read_ledger(garbage), std::runtime_error);
}

TEST(Ledger, FileConstructorThrowsOnUnwritablePath) {
    EXPECT_THROW(Ledger("/nonexistent-dir/x/ledger.jsonl", TraceMode::Wall),
                 std::runtime_error);
}

/// A sink that refuses every byte, like a full disk.
class FailingBuf : public std::streambuf {
protected:
    int_type overflow(int_type) override { return traits_type::eof(); }
    std::streamsize xsputn(const char*, std::streamsize) override { return 0; }
};

// A ledger that cannot be written is never lost silently: flush() throws
// and says which ledger failed, while the destructor still never throws.
TEST(Ledger, FlushThrowsOnceTheStreamHasFailed) {
    FailingBuf buf;
    std::ostream os(&buf);
    Ledger ledger(os, TraceMode::Wall);
    ledger.begin("campaign");
    try {
        ledger.flush();
        FAIL() << "flush() on a failed stream did not throw";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("<stream>"), std::string::npos)
            << e.what();
    }
}

TEST(Ledger, FlushNamesTheFileThatCannotBeWritten) {
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full on this system";
    Ledger ledger("/dev/full", TraceMode::Wall);
    ledger.begin("campaign", {{"name", std::string(8192, 'x')}});
    try {
        ledger.flush();
        FAIL() << "flush() to /dev/full did not throw";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos)
            << e.what();
    }
}

TEST(Ledger, WallModeTimestampsAreMonotonic) {
    std::ostringstream os;
    {
        Ledger ledger(os, TraceMode::Wall);
        ledger.begin("a");
        ledger.instant("b");
        ledger.end("a");
    }
    std::istringstream is(os.str());
    const LedgerFile file = read_ledger(is);
    ASSERT_EQ(file.events.size(), 3u);
    EXPECT_LE(file.events[0].ts_us, file.events[1].ts_us);
    EXPECT_LE(file.events[1].ts_us, file.events[2].ts_us);
    EXPECT_GE(file.events[0].ts_us, 0.0);
}

}  // namespace
}  // namespace sfi::obs
