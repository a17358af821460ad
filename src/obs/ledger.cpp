#include "obs/ledger.hpp"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "perf/json_writer.hpp"
#include "util/csv.hpp"

namespace sfi::obs {

namespace {

std::string quoted(std::string_view text) {
    std::string out;
    out.reserve(text.size() + 2);
    out += '"';
    out += perf::JsonWriter::escape(text);
    out += '"';
    return out;
}

std::int64_t steady_now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

}  // namespace

const char* trace_mode_name(TraceMode mode) {
    return mode == TraceMode::Logical ? "logical" : "wall";
}

std::optional<TraceMode> parse_trace_mode(std::string_view text) {
    if (text == "logical") return TraceMode::Logical;
    if (text == "wall") return TraceMode::Wall;
    return std::nullopt;
}

Field::Field(std::string_view key, std::string_view value)
    : key(key), json(quoted(value)) {}
Field::Field(std::string_view key, const char* value)
    : Field(key, std::string_view(value)) {}
Field::Field(std::string_view key, double value)
    : key(key), json(format_double(value)) {}
Field::Field(std::string_view key, bool value)
    : key(key), json(value ? "true" : "false") {}
Field::Field(std::string_view key, std::uint64_t value)
    : key(key), json(std::to_string(value)) {}
Field::Field(std::string_view key, std::int64_t value)
    : key(key), json(std::to_string(value)) {}

Ledger::Ledger(const std::string& path, TraceMode mode)
    : mode_(mode), name_(path) {
    owned_ = std::make_unique<std::ofstream>(path, std::ios::binary |
                                                       std::ios::trunc);
    if (!*owned_) {
        throw std::runtime_error("cannot open trace ledger for writing: " +
                                 path);
    }
    epoch_ns_ = steady_now_ns();
    write_header();
}

Ledger::Ledger(std::ostream& os, TraceMode mode)
    : mode_(mode), name_("<stream>"), external_(&os) {
    epoch_ns_ = steady_now_ns();
    write_header();
}

Ledger::~Ledger() { out().flush(); }

void Ledger::write_header() {
    std::string line = "{\"schema\":\"sfi-ledger\",\"version\":1,\"mode\":\"";
    line += trace_mode_name(mode_);
    line += "\",\"created_unix_s\":";
    line += std::to_string(static_cast<std::int64_t>(std::time(nullptr)));
    line += "}\n";
    out() << line;
}

double Ledger::now_us() const {
    if (logical()) return 0.0;
    return static_cast<double>(steady_now_ns() - epoch_ns_) / 1000.0;
}

void Ledger::emit(char ph, std::uint64_t tid, std::string_view name,
                  double ts_us, double dur_us, bool has_dur,
                  std::initializer_list<Field> args) {
    ++seq_;
    std::string line;
    line.reserve(96);
    line += "{\"seq\":";
    line += std::to_string(seq_);
    line += ",\"ts\":";
    line += format_double(logical() ? 0.0 : ts_us);
    if (has_dur) {
        line += ",\"dur\":";
        line += format_double(logical() ? 0.0 : dur_us);
    }
    line += ",\"tid\":";
    line += std::to_string(logical() ? 0 : tid);
    line += ",\"ph\":\"";
    line += ph;
    line += "\",\"name\":";
    line += quoted(name);
    if (args.size() != 0) {
        line += ",\"args\":{";
        bool first = true;
        for (const Field& field : args) {
            if (!first) line += ',';
            first = false;
            line += quoted(field.key);
            line += ':';
            line += field.json;
        }
        line += '}';
    }
    line += "}\n";
    out() << line;
}

void Ledger::begin(std::string_view name, std::initializer_list<Field> args) {
    emit('B', 0, name, now_us(), 0.0, false, args);
}

void Ledger::end(std::string_view name, std::initializer_list<Field> args) {
    emit('E', 0, name, now_us(), 0.0, false, args);
}

void Ledger::instant(std::string_view name,
                     std::initializer_list<Field> args) {
    emit('i', 0, name, now_us(), 0.0, false, args);
}

void Ledger::worker_span(std::uint64_t tid, std::string_view name,
                         double ts_us, double dur_us,
                         std::initializer_list<Field> args) {
    if (logical()) return;
    emit('X', tid, name, ts_us, dur_us, true, args);
}

void Ledger::emit_metrics(const MetricsRegistry& metrics) {
    const double ts = now_us();
    for (const auto& [name, value] : metrics.counters()) {
        if (logical() && volatile_metric_name(name)) continue;
        emit('C', 0, name, ts, 0.0, false, {Field("value", value)});
    }
}

void Ledger::flush() {
    if (!out().flush())
        throw std::runtime_error("cannot write trace ledger: " + name_);
}

// ---------------------------------------------------------------------------
// Reader: a minimal parser for the flat JSON this file emits (objects,
// strings, numbers, booleans, null, and one nested object for "args").

namespace {

struct Cursor {
    const char* p;
    const char* end;
    bool done() const { return p >= end; }
};

void skip_ws(Cursor& c) {
    while (!c.done() &&
           (*c.p == ' ' || *c.p == '\t' || *c.p == '\r' || *c.p == '\n')) {
        ++c.p;
    }
}

[[noreturn]] void fail(const char* what) {
    throw std::runtime_error(std::string("malformed ledger line: ") + what);
}

void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
        out += static_cast<char>(cp);
    } else if (cp < 0x800) {
        out += static_cast<char>(0xC0 | (cp >> 6));
        out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
        out += static_cast<char>(0xE0 | (cp >> 12));
        out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
        out += static_cast<char>(0x80 | (cp & 0x3F));
    }
}

std::string parse_string(Cursor& c) {
    if (c.done() || *c.p != '"') fail("expected string");
    ++c.p;
    std::string out;
    while (true) {
        if (c.done()) fail("unterminated string");
        const char ch = *c.p++;
        if (ch == '"') return out;
        if (ch != '\\') {
            out += ch;
            continue;
        }
        if (c.done()) fail("dangling escape");
        const char esc = *c.p++;
        switch (esc) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u': {
                if (c.end - c.p < 4) fail("short \\u escape");
                char hex[5] = {c.p[0], c.p[1], c.p[2], c.p[3], 0};
                char* stop = nullptr;
                const unsigned cp =
                    static_cast<unsigned>(std::strtoul(hex, &stop, 16));
                if (stop != hex + 4) fail("bad \\u escape");
                c.p += 4;
                append_utf8(out, cp);
                break;
            }
            default: fail("unknown escape");
        }
    }
}

/// Scans one JSON value without interpreting it, returning the raw slice.
std::string scan_value(Cursor& c) {
    skip_ws(c);
    if (c.done()) fail("expected value");
    const char* start = c.p;
    if (*c.p == '"') {
        parse_string(c);
    } else if (*c.p == '{' || *c.p == '[') {
        int depth = 0;
        while (!c.done()) {
            if (*c.p == '"') {
                parse_string(c);
                continue;
            }
            if (*c.p == '{' || *c.p == '[') ++depth;
            if (*c.p == '}' || *c.p == ']') --depth;
            ++c.p;
            if (depth == 0) break;
        }
        if (depth != 0) fail("unbalanced container");
    } else {
        while (!c.done() && *c.p != ',' && *c.p != '}' && *c.p != ']' &&
               *c.p != ' ' && *c.p != '\t') {
            ++c.p;
        }
    }
    return std::string(start, static_cast<std::size_t>(c.p - start));
}

using RawObject = std::vector<std::pair<std::string, std::string>>;

RawObject parse_object(std::string_view text) {
    Cursor c{text.data(), text.data() + text.size()};
    skip_ws(c);
    if (c.done() || *c.p != '{') fail("expected object");
    ++c.p;
    RawObject fields;
    skip_ws(c);
    if (!c.done() && *c.p == '}') return fields;
    while (true) {
        skip_ws(c);
        std::string key = parse_string(c);
        skip_ws(c);
        if (c.done() || *c.p != ':') fail("expected ':'");
        ++c.p;
        fields.emplace_back(std::move(key), scan_value(c));
        skip_ws(c);
        if (c.done()) fail("unterminated object");
        if (*c.p == ',') {
            ++c.p;
            continue;
        }
        if (*c.p == '}') return fields;
        fail("expected ',' or '}'");
    }
}

const std::string* find_raw(const RawObject& fields, std::string_view key) {
    for (const auto& [k, v] : fields) {
        if (k == key) return &v;
    }
    return nullptr;
}

double raw_double(const RawObject& fields, std::string_view key,
                  double fallback) {
    const std::string* raw = find_raw(fields, key);
    if (raw == nullptr || raw->empty() || (*raw)[0] == '"') return fallback;
    return std::strtod(raw->c_str(), nullptr);
}

std::uint64_t raw_uint(const RawObject& fields, std::string_view key,
                       std::uint64_t fallback) {
    const std::string* raw = find_raw(fields, key);
    if (raw == nullptr || raw->empty() || (*raw)[0] == '"') return fallback;
    return std::strtoull(raw->c_str(), nullptr, 10);
}

std::string raw_string(const RawObject& fields, std::string_view key) {
    const std::string* raw = find_raw(fields, key);
    if (raw == nullptr || raw->empty() || (*raw)[0] != '"') return {};
    Cursor c{raw->data(), raw->data() + raw->size()};
    return parse_string(c);
}

}  // namespace

bool LedgerEvent::has_arg(std::string_view key) const {
    return find_raw(args, key) != nullptr;
}

std::string LedgerEvent::arg_string(std::string_view key) const {
    return raw_string(args, key);
}

double LedgerEvent::arg_double(std::string_view key, double fallback) const {
    return raw_double(args, key, fallback);
}

std::uint64_t LedgerEvent::arg_uint(std::string_view key,
                                    std::uint64_t fallback) const {
    return raw_uint(args, key, fallback);
}

bool LedgerEvent::arg_bool(std::string_view key, bool fallback) const {
    const std::string* raw = find_raw(args, key);
    if (raw == nullptr) return fallback;
    if (*raw == "true") return true;
    if (*raw == "false") return false;
    return fallback;
}

LedgerFile read_ledger(std::istream& is) {
    LedgerFile file;
    std::string line;
    if (!std::getline(is, line)) {
        throw std::runtime_error("empty ledger: missing header line");
    }
    const RawObject header = parse_object(line);
    if (raw_string(header, "schema") != "sfi-ledger") {
        throw std::runtime_error("not a sfi-ledger file (bad schema field)");
    }
    file.header_line = line;
    file.version = static_cast<int>(raw_uint(header, "version", 0));
    const auto mode = parse_trace_mode(raw_string(header, "mode"));
    if (!mode) throw std::runtime_error("ledger header has unknown mode");
    file.mode = *mode;

    while (std::getline(is, line)) {
        if (line.empty()) continue;
        const RawObject fields = parse_object(line);
        LedgerEvent event;
        event.seq = raw_uint(fields, "seq", 0);
        event.ts_us = raw_double(fields, "ts", 0.0);
        event.dur_us = raw_double(fields, "dur", 0.0);
        event.tid = raw_uint(fields, "tid", 0);
        const std::string ph = raw_string(fields, "ph");
        if (ph.size() != 1) throw std::runtime_error("event has bad ph");
        event.ph = ph[0];
        event.name = raw_string(fields, "name");
        if (const std::string* raw = find_raw(fields, "args")) {
            event.args = parse_object(*raw);
        }
        file.events.push_back(std::move(event));
    }
    return file;
}

LedgerFile read_ledger_file(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        throw std::runtime_error("cannot open trace ledger: " + path);
    }
    return read_ledger(is);
}

}  // namespace sfi::obs
