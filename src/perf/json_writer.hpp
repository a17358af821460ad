// Minimal streaming JSON emitter with a *stable* output format: keys are
// written in call order, numbers in a fixed round-trippable format, and
// indentation is deterministic — emitting the same data twice yields
// byte-identical text. That stability is what lets CI diff BENCH_*.json
// artifacts across commits and lets scripts/check_perf_regression.py
// parse them without a schema migration story.
//
// The campaign manifest writer (src/campaign/runner.cpp) predates this
// class and hand-rolls its line layout, escaping strings through
// JsonWriter::escape; new JSON producers should use JsonWriter.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace sfi::perf {

class JsonWriter {
public:
    /// Writes to `os` with two-space indentation. The writer does not own
    /// the stream; the document must be closed (all begin_* matched) before
    /// the stream is used elsewhere.
    explicit JsonWriter(std::ostream& os);

    // Structure. A document is one top-level value (usually an object).
    void begin_object();
    void end_object();
    void begin_array();
    void end_array();

    /// Names the next value inside an object.
    void key(std::string_view name);

    // Scalars.
    void value(std::string_view text);
    void value(const char* text) { value(std::string_view(text)); }
    void value(double number);
    void value(std::uint64_t number);
    void value(std::int64_t number);
    void value(int number) { value(static_cast<std::int64_t>(number)); }
    void value(bool flag);
    void null();

    // key() + value() in one call.
    template <typename T>
    void field(std::string_view name, T v) {
        key(name);
        value(v);
    }
    void null_field(std::string_view name) {
        key(name);
        null();
    }

    /// JSON string escaping (quotes not included).
    static std::string escape(std::string_view text);

private:
    void before_value();
    void newline_indent();

    std::ostream& os_;
    // One frame per open container: whether it is an array and whether it
    // already holds a value (comma handling).
    struct Frame {
        bool array = false;
        bool has_value = false;
    };
    std::vector<Frame> stack_;
    bool key_pending_ = false;
};

}  // namespace sfi::perf
