// Contracts of the perf reporting subsystem (src/perf/):
//  * Stopwatch is monotonic (steady clock, never negative, never
//    decreasing);
//  * phase_rows() sums a ledger's dispatch-lane spans by name — the
//    BENCH_core.json phase rows are a view of the run ledger, so their
//    calls/items columns are exactly the ledger's;
//  * the JSON emitter is stable (same input -> identical bytes) and
//    produces well-formed JSON: a minimal recursive-descent parser here
//    round-trips a full PerfReport and checks the schema keys.
#include <cctype>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/ledger.hpp"
#include "perf/json_writer.hpp"
#include "perf/perf.hpp"
#include "perf/report.hpp"

namespace sfi::perf {
namespace {

// ---------------------------------------------------------------------------
// Stopwatch
// ---------------------------------------------------------------------------

TEST(Stopwatch, Monotonic) {
    Stopwatch watch;
    double last = watch.seconds();
    EXPECT_GE(last, 0.0);
    for (int i = 0; i < 1000; ++i) {
        const double now = watch.seconds();
        EXPECT_GE(now, last) << "steady clock went backwards";
        last = now;
    }
}

TEST(Stopwatch, RestartRearms) {
    // Scheduling-proof formulation: after restart(), `watch`'s interval is
    // a strict subset of `reference`'s (started earlier, read later), so
    // watch.seconds() <= reference.seconds() holds on a steady clock no
    // matter how the thread is preempted between the calls.
    Stopwatch watch;
    Stopwatch reference;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    watch.restart();
    const double restarted = watch.seconds();
    const double elapsed = reference.seconds();
    EXPECT_LE(restarted, elapsed);
    EXPECT_GE(restarted, 0.0);
}

// ---------------------------------------------------------------------------
// phase_rows: BENCH_core.json's phases as a view of the run ledger
// ---------------------------------------------------------------------------

obs::LedgerEvent event(char ph, std::string name, double ts_us,
                       std::uint64_t tid = 0, std::string items = "") {
    obs::LedgerEvent ev;
    ev.ph = ph;
    ev.name = std::move(name);
    ev.ts_us = ts_us;
    ev.tid = tid;
    if (!items.empty()) ev.args.emplace_back("items", std::move(items));
    return ev;
}

TEST(PhaseRows, SumsDispatchLaneSpansByNameInFirstAppearanceOrder) {
    obs::LedgerFile ledger;
    ledger.events = {
        event('B', "characterize", 0.0),
        event('B', "dta_class", 10.0),
        event('E', "dta_class", 1010.0, 0, "1024"),
        event('B', "dta_class", 1010.0),
        event('E', "dta_class", 3010.0, 0, "1024"),
        event('E', "characterize", 4000.0),
        event('B', "trial_run", 5000.0),
        event('i', "fast_path", 5100.0),
        event('B', "decode", 5200.0),
        event('E', "decode", 5300.0, 0, "660"),
        // Worker lanes run beside the dispatch thread: not a phase.
        event('X', "trials", 5300.0, 1, "8"),
        event('E', "trial_run", 9000.0, 0, "8"),
    };
    const std::vector<PhaseRow> rows = phase_rows(ledger);
    ASSERT_EQ(rows.size(), 4u);
    EXPECT_EQ(rows[0].phase, "characterize");
    EXPECT_EQ(rows[0].calls, 1u);
    EXPECT_EQ(rows[0].items, 0u);
    EXPECT_DOUBLE_EQ(rows[0].seconds, 4000e-6);  // includes its children
    EXPECT_EQ(rows[1].phase, "dta_class");
    EXPECT_EQ(rows[1].calls, 2u);
    EXPECT_EQ(rows[1].items, 2048u);
    EXPECT_DOUBLE_EQ(rows[1].seconds, 3000e-6);
    EXPECT_EQ(rows[2].phase, "trial_run");
    EXPECT_EQ(rows[2].items, 8u);
    EXPECT_EQ(rows[3].phase, "decode");
    EXPECT_EQ(rows[3].items, 660u);
    EXPECT_DOUBLE_EQ(rows[3].seconds, 100e-6);
}

TEST(PhaseRows, ReadsALedgerAsWritten) {
    std::stringstream text;
    {
        obs::Ledger ledger(text, obs::TraceMode::Wall);
        for (int i = 0; i < 3; ++i) {
            ledger.begin("fault_sampling");
            ledger.end("fault_sampling", {{"items", std::uint64_t{1000}}});
        }
        ledger.flush();
    }
    const std::vector<PhaseRow> rows = phase_rows(obs::read_ledger(text));
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].phase, "fault_sampling");
    EXPECT_EQ(rows[0].calls, 3u);
    EXPECT_EQ(rows[0].items, 3000u);
    EXPECT_GE(rows[0].seconds, 0.0);
}

TEST(PhaseRows, RejectsAnEndWithoutItsBegin) {
    obs::LedgerFile ledger;
    ledger.events = {event('B', "characterize", 0.0),
                     event('E', "calibrate", 1.0)};
    EXPECT_THROW(phase_rows(ledger), std::runtime_error);
    ledger.events = {event('E', "decode", 1.0)};
    EXPECT_THROW(phase_rows(ledger), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Minimal JSON parser (tests only): enough of RFC 8259 to round-trip
// BENCH_core.json — objects, arrays, strings, numbers, booleans, null.
// ---------------------------------------------------------------------------

struct JsonValue {
    enum class Kind { Object, Array, String, Number, Bool, Null } kind;
    std::map<std::string, std::shared_ptr<JsonValue>> object;
    std::vector<std::shared_ptr<JsonValue>> array;
    std::vector<std::string> object_key_order;
    std::string string;
    double number = 0.0;
    bool boolean = false;

    const JsonValue& at(const std::string& key) const {
        const auto it = object.find(key);
        if (it == object.end()) throw std::out_of_range("no key: " + key);
        return *it->second;
    }
};

class JsonParser {
public:
    explicit JsonParser(std::string_view text) : text_(text) {}

    std::shared_ptr<JsonValue> parse() {
        auto v = parse_value();
        skip_ws();
        if (pos_ != text_.size()) throw std::runtime_error("trailing data");
        return v;
    }

private:
    void skip_ws() {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }
    char peek() {
        skip_ws();
        if (pos_ >= text_.size()) throw std::runtime_error("unexpected end");
        return text_[pos_];
    }
    void expect(char c) {
        if (peek() != c)
            throw std::runtime_error(std::string("expected ") + c);
        ++pos_;
    }
    bool consume(std::string_view word) {
        skip_ws();
        if (text_.substr(pos_, word.size()) != word) return false;
        pos_ += word.size();
        return true;
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size()) throw std::runtime_error("bad string");
            const char c = text_[pos_++];
            if (c == '"') break;
            if (c == '\\') {
                const char esc = text_[pos_++];
                switch (esc) {
                    case '"': out += '"'; break;
                    case '\\': out += '\\'; break;
                    case '/': out += '/'; break;
                    case 'n': out += '\n'; break;
                    case 'r': out += '\r'; break;
                    case 't': out += '\t'; break;
                    case 'u': {
                        const unsigned code = static_cast<unsigned>(
                            std::stoul(std::string(text_.substr(pos_, 4)),
                                       nullptr, 16));
                        pos_ += 4;
                        out += static_cast<char>(code);  // ASCII range only
                        break;
                    }
                    default: throw std::runtime_error("bad escape");
                }
            } else {
                out += c;
            }
        }
        return out;
    }

    std::shared_ptr<JsonValue> parse_value() {
        auto value = std::make_shared<JsonValue>();
        const char c = peek();
        if (c == '{') {
            value->kind = JsonValue::Kind::Object;
            expect('{');
            if (peek() != '}') {
                while (true) {
                    std::string key = parse_string();
                    expect(':');
                    value->object_key_order.push_back(key);
                    value->object[key] = parse_value();
                    if (peek() == ',') { expect(','); continue; }
                    break;
                }
            }
            expect('}');
        } else if (c == '[') {
            value->kind = JsonValue::Kind::Array;
            expect('[');
            if (peek() != ']') {
                while (true) {
                    value->array.push_back(parse_value());
                    if (peek() == ',') { expect(','); continue; }
                    break;
                }
            }
            expect(']');
        } else if (c == '"') {
            value->kind = JsonValue::Kind::String;
            value->string = parse_string();
        } else if (consume("true")) {
            value->kind = JsonValue::Kind::Bool;
            value->boolean = true;
        } else if (consume("false")) {
            value->kind = JsonValue::Kind::Bool;
            value->boolean = false;
        } else if (consume("null")) {
            value->kind = JsonValue::Kind::Null;
        } else {
            value->kind = JsonValue::Kind::Number;
            skip_ws();
            std::size_t end = pos_;
            while (end < text_.size() &&
                   (std::isdigit(static_cast<unsigned char>(text_[end])) ||
                    text_[end] == '-' || text_[end] == '+' ||
                    text_[end] == '.' || text_[end] == 'e' || text_[end] == 'E'))
                ++end;
            if (end == pos_) throw std::runtime_error("bad number");
            value->number = std::stod(std::string(text_.substr(pos_, end - pos_)));
            pos_ = end;
        }
        return value;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------------

TEST(JsonWriter, EscapesControlCharactersAndQuotes) {
    EXPECT_EQ(JsonWriter::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(JsonWriter::escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(JsonWriter, RoundTripsScalars) {
    std::ostringstream os;
    JsonWriter json(os);
    json.begin_object();
    json.field("text", "hi \"there\"");
    json.field("pi", 3.141592653589793);
    json.field("count", std::uint64_t{18446744073709551615ULL});
    json.field("negative", std::int64_t{-42});
    json.field("yes", true);
    json.null_field("nothing");
    json.end_object();

    const auto doc = JsonParser(os.str()).parse();
    EXPECT_EQ(doc->at("text").string, "hi \"there\"");
    EXPECT_DOUBLE_EQ(doc->at("pi").number, 3.141592653589793);
    EXPECT_EQ(doc->at("negative").number, -42.0);
    EXPECT_TRUE(doc->at("yes").boolean);
    EXPECT_EQ(doc->at("nothing").kind, JsonValue::Kind::Null);
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
    std::ostringstream os;
    JsonWriter json(os);
    json.begin_object();
    json.field("nan", std::nan(""));
    json.field("inf", std::numeric_limits<double>::infinity());
    json.end_object();
    const auto doc = JsonParser(os.str()).parse();
    EXPECT_EQ(doc->at("nan").kind, JsonValue::Kind::Null);
    EXPECT_EQ(doc->at("inf").kind, JsonValue::Kind::Null);
}

// ---------------------------------------------------------------------------
// BENCH_core.json schema stability
// ---------------------------------------------------------------------------

PerfReport make_report() {
    PerfReport report;
    report.seed = 7;
    report.dta_cycles = 1024;
    report.trials = 256;
    report.benchmark = "median";
    report.phases = {{"dta_class", 1.25, 10, 10240},
                     {"trial_run", 0.5, 10, 2560},
                     {"decode", 0.0625, 4, 512}};
    KernelBench kernel;
    kernel.label = "fig1-modelB-fault";
    kernel.model = "B";
    kernel.benchmark = "median";
    kernel.freq_mhz = 708.5;
    kernel.vdd = 0.7;
    kernel.sigma_mv = 0.0;
    kernel.trials = 256;
    kernel.fast_path = true;
    kernel.scaling.push_back({1, 0.25, 1024.0});
    kernel.scaling.push_back({4, 0.0625, 4096.0});
    report.kernels.push_back(kernel);
    report.fast_path = {700.0, 42000.0, 60.0};
    report.fault_sampling = {4.3e7, 8.9e7};
    report.campaign = CampaignSample{"fig1", 1.5, 330};
    report.metrics.add("campaign.points", 33);
    report.metrics.add("campaign.trials_spent", 330);
    report.metrics.add("run.store_misses", 33);
    report.wall_clock_s = 5.75;
    return report;
}

TEST(BenchCoreJson, EmissionIsByteStable) {
    const PerfReport report = make_report();
    std::ostringstream first, second;
    write_bench_core_json(first, report);
    write_bench_core_json(second, report);
    EXPECT_EQ(first.str(), second.str());
}

TEST(BenchCoreJson, RoundTripParseMatchesSchema) {
    const PerfReport report = make_report();
    std::ostringstream os;
    write_bench_core_json(os, report);
    const auto doc = JsonParser(os.str()).parse();

    // Top-level schema: exact keys in exact order (the stability contract
    // scripts/check_perf_regression.py and artifact diffs rely on).
    // Schema v4 inserted "metrics" (campaign counters) before "campaign".
    const std::vector<std::string> expected_keys = {
        "schema",    "schema_version", "config",  "phases",
        "kernels",   "fast_path",      "fault_sampling",
        "metrics",   "campaign",       "wall_clock_s"};
    EXPECT_EQ(doc->object_key_order, expected_keys);
    EXPECT_EQ(doc->at("schema").string, "sfi-bench-core");
    EXPECT_EQ(doc->at("schema_version").number, kSchemaVersion);

    EXPECT_EQ(doc->at("config").at("seed").number, 7.0);
    EXPECT_EQ(doc->at("config").at("benchmark").string, "median");
    // Schema v5 dropped v2's "dispatch" from the config block: the ISS
    // has one execution engine. v6 dropped the scalar sampling column; v7
    // made the phases a view of the run ledger and dropped the gauges; v8
    // dropped fault_sampling's kernel flag (scripts/perf_baseline.json
    // pins v8).
    EXPECT_EQ(kSchemaVersion, 8);
    const std::vector<std::string> config_keys = {"seed", "dta_cycles",
                                                  "trials", "benchmark"};
    EXPECT_EQ(doc->at("config").object_key_order, config_keys);

    // Schema v7: the rows as given (phase_rows' first-appearance order),
    // named after ledger spans, values preserved.
    const auto& phases = doc->at("phases").array;
    ASSERT_EQ(phases.size(), 3u);
    const std::vector<std::string> row_keys = {"phase", "seconds", "calls",
                                               "items"};
    EXPECT_EQ(phases[0]->object_key_order, row_keys);
    EXPECT_EQ(phases[0]->at("phase").string, "dta_class");
    EXPECT_DOUBLE_EQ(phases[0]->at("seconds").number, 1.25);
    EXPECT_EQ(phases[0]->at("calls").number, 10.0);
    EXPECT_EQ(phases[0]->at("items").number, 10240.0);
    EXPECT_EQ(phases[1]->at("phase").string, "trial_run");
    EXPECT_EQ(phases[2]->at("phase").string, "decode");
    EXPECT_EQ(phases[2]->at("items").number, 512.0);

    const auto& kernels = doc->at("kernels").array;
    ASSERT_EQ(kernels.size(), 1u);
    EXPECT_EQ(kernels[0]->at("label").string, "fig1-modelB-fault");
    EXPECT_TRUE(kernels[0]->at("fast_path").boolean);
    ASSERT_EQ(kernels[0]->at("scaling").array.size(), 2u);
    EXPECT_EQ(kernels[0]->at("scaling").array[1]->at("threads").number, 4.0);
    EXPECT_DOUBLE_EQ(
        kernels[0]->at("scaling").array[1]->at("trials_per_sec").number,
        4096.0);

    EXPECT_DOUBLE_EQ(doc->at("fast_path").at("speedup").number, 60.0);
    // Schema v3: the fault-sampling throughputs the perf gate reads (it
    // floors batched_ops_per_sec). v6 dropped the scalar column and the
    // batched/scalar ratio with the scalar draw path, v8 the "avx2" flag
    // with the AVX2 conversion kernel.
    const std::vector<std::string> sampling_keys = {
        "batched_ops_per_sec", "quantized_ops_per_sec"};
    EXPECT_EQ(doc->at("fault_sampling").object_key_order, sampling_keys);
    EXPECT_DOUBLE_EQ(
        doc->at("fault_sampling").at("batched_ops_per_sec").number, 4.3e7);
    EXPECT_DOUBLE_EQ(
        doc->at("fault_sampling").at("quantized_ops_per_sec").number, 8.9e7);
    EXPECT_EQ(doc->at("campaign").at("figure").string, "fig1");
    EXPECT_EQ(doc->at("campaign").at("trials_spent").number, 330.0);

    // Schema v4: counters in sorted name order (v7: counters only).
    const std::vector<std::string> metrics_keys = {"counters"};
    EXPECT_EQ(doc->at("metrics").object_key_order, metrics_keys);
    const auto& counters = doc->at("metrics").at("counters").array;
    ASSERT_EQ(counters.size(), 3u);
    EXPECT_EQ(counters[0]->at("name").string, "campaign.points");
    EXPECT_EQ(counters[0]->at("value").number, 33.0);
    EXPECT_EQ(counters[1]->at("name").string, "campaign.trials_spent");
    EXPECT_EQ(counters[2]->at("name").string, "run.store_misses");

    EXPECT_DOUBLE_EQ(doc->at("wall_clock_s").number, 5.75);
}

TEST(BenchCoreJson, AbsentCampaignIsNull) {
    PerfReport report = make_report();
    report.campaign.reset();
    std::ostringstream os;
    write_bench_core_json(os, report);
    const auto doc = JsonParser(os.str()).parse();
    EXPECT_EQ(doc->at("campaign").kind, JsonValue::Kind::Null);
}

}  // namespace
}  // namespace sfi::perf
