#include "fi/forensics.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "perf/json_writer.hpp"
#include "util/csv.hpp"

namespace sfi {

namespace {

/// Detector family ordinal used as the by_class_detector_ map key —
/// 0 none, 1 razor, 2 cwc (the map order fixes the artifact row order).
std::uint8_t detector_family_ordinal(std::uint8_t fate) {
    switch (fate) {
        case kRazorDetected:
        case kRazorEscaped: return 1;
        case kCwcDetected:
        case kCwcEscaped: return 2;
        default: return 0;
    }
}

const char* detector_family_ordinal_name(std::uint8_t ordinal) {
    switch (ordinal) {
        case 1: return "razor";
        case 2: return "cwc";
        default: return "none";
    }
}

}  // namespace

const char* outcome_class_name(OutcomeClass cls) {
    switch (cls) {
        case OutcomeClass::Masked: return "masked";
        case OutcomeClass::LatentCorrupt: return "latent_corrupt";
        case OutcomeClass::SDC: return "sdc";
        case OutcomeClass::Hang: return "hang";
        case OutcomeClass::Detected: return "detected";
        case OutcomeClass::kCount: break;
    }
    return "?";
}

// ---------------------------------------------------------------------------
// Binary record stream
// ---------------------------------------------------------------------------

namespace {

void put_u16(std::string& out, std::uint16_t v) {
    out.push_back(static_cast<char>(v & 0xff));
    out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void put_u32(std::string& out, std::uint32_t v) {
    put_u16(out, static_cast<std::uint16_t>(v & 0xffff));
    put_u16(out, static_cast<std::uint16_t>(v >> 16));
}

void put_u64(std::string& out, std::uint64_t v) {
    put_u32(out, static_cast<std::uint32_t>(v & 0xffffffffu));
    put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

std::uint16_t get_u16(const unsigned char* p) {
    return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t get_u32(const unsigned char* p) {
    return static_cast<std::uint32_t>(get_u16(p)) |
           (static_cast<std::uint32_t>(get_u16(p + 2)) << 16);
}

std::uint64_t get_u64(const unsigned char* p) {
    return static_cast<std::uint64_t>(get_u32(p)) |
           (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
}

}  // namespace

void write_fault_records(std::ostream& os,
                         const std::vector<FaultRecord>& records) {
    // Serialized explicitly field by field (little-endian, no struct
    // padding) so the byte stream is host-layout-independent.
    std::string buffer;
    buffer.reserve(16 + records.size() * kFaultRecordBytes);
    buffer.append(kForensicMagic, 8);
    put_u32(buffer, static_cast<std::uint32_t>(kFaultRecordBytes));
    put_u32(buffer, static_cast<std::uint32_t>(records.size()));
    for (const FaultRecord& rec : records) {
        put_u32(buffer, rec.trial);
        put_u32(buffer, rec.point_id);
        put_u64(buffer, rec.cycle);
        put_u32(buffer, rec.pc);
        put_u16(buffer, rec.window);
        buffer.push_back(static_cast<char>(rec.op));
        buffer.push_back(static_cast<char>(rec.cls));
        buffer.push_back(static_cast<char>(rec.endpoint));
        buffer.push_back(static_cast<char>(rec.policy));
        buffer.push_back(static_cast<char>(rec.pre_bit));
        buffer.push_back(static_cast<char>(rec.post_bit));
        buffer.push_back(static_cast<char>(rec.razor));
        buffer.push_back(0);  // reserved (keeps the record size even)
    }
    os.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
}

std::vector<FaultRecord> read_fault_records(std::istream& is) {
    char header[16];
    if (!is.read(header, sizeof(header)))
        throw std::runtime_error("fault records: truncated header");
    if (std::memcmp(header, kForensicMagic, 8) != 0)
        throw std::runtime_error("fault records: bad magic");
    const auto* h = reinterpret_cast<const unsigned char*>(header);
    const std::uint32_t record_size = get_u32(h + 8);
    const std::uint32_t count = get_u32(h + 12);
    if (record_size != kFaultRecordBytes)
        throw std::runtime_error("fault records: unexpected record size");
    // No reserve(count): the count is the file's claim, and a forged one
    // must not allocate before the payload proves it.
    std::vector<FaultRecord> records;
    unsigned char raw[kFaultRecordBytes];
    for (std::uint32_t i = 0; i < count; ++i) {
        if (!is.read(reinterpret_cast<char*>(raw), sizeof(raw)))
            throw std::runtime_error("fault records: truncated payload");
        FaultRecord rec;
        rec.trial = get_u32(raw);
        rec.point_id = get_u32(raw + 4);
        rec.cycle = get_u64(raw + 8);
        rec.pc = get_u32(raw + 16);
        rec.window = get_u16(raw + 20);
        rec.op = raw[22];
        rec.cls = raw[23];
        rec.endpoint = raw[24];
        rec.policy = raw[25];
        rec.pre_bit = raw[26];
        rec.post_bit = raw[27];
        rec.razor = raw[28];
        records.push_back(rec);
    }
    return records;
}

std::size_t latency_bucket(std::uint32_t latency_cycles) {
    if (latency_cycles == 0) return 0;
    std::size_t bucket = 1;
    while (bucket + 1 < kLatencyBuckets &&
           latency_cycles >= (1u << bucket))
        ++bucket;
    return bucket;
}

// ---------------------------------------------------------------------------
// ForensicSink
// ---------------------------------------------------------------------------

const ForensicPointInfo& ForensicSink::add_point(
    std::string panel, std::string model, std::string kernel,
    const OperatingPoint& point, std::vector<TrialForensics> trials) {
    ForensicPointInfo& info = points_.emplace_back();
    info.point_id = static_cast<std::uint32_t>(points_.size() - 1);
    info.panel = std::move(panel);
    info.model = std::move(model);
    info.kernel = std::move(kernel);
    info.freq_mhz = point.freq_mhz;
    info.vdd = point.vdd;
    info.sigma_mv = point.noise.sigma_mv;

    for (TrialForensics& fx : trials) {
        ++info.trials_sampled;
        ++trials_recorded_;
        if (fx.outcome.finished) ++info.finished;
        if (fx.outcome.correct) ++info.correct;
        ++info.outcomes[static_cast<std::size_t>(fx.cls)];
        info.injections += fx.records.size();
        info.razor_detected += fx.razor_detected;
        info.razor_escaped += fx.razor_escaped;

        // Derating attribution: one trial counts once per distinct key it
        // injected into, regardless of how many records share the key.
        const bool sdc = fx.cls == OutcomeClass::SDC;
        const auto fold = [sdc](auto& map, auto key, std::uint64_t injections) {
            KeyTally& tally = map[key];
            tally.injections += injections;
            ++tally.trials;
            if (sdc) ++tally.sdc_trials;
        };
        std::map<std::uint8_t, std::uint64_t> cls_seen, bit_seen;
        std::map<std::uint32_t, std::uint64_t> pc_seen;
        std::map<std::pair<std::uint8_t, std::uint8_t>, std::uint64_t>
            cls_detector_seen;
        for (FaultRecord& rec : fx.records) {
            rec.point_id = info.point_id;
            ++cls_seen[rec.cls];
            ++bit_seen[rec.endpoint];
            ++pc_seen[rec.pc];
            ++cls_detector_seen[{rec.cls, detector_family_ordinal(rec.razor)}];
        }
        for (const auto& [key, n] : cls_seen) fold(by_class_, key, n);
        for (const auto& [key, n] : bit_seen) fold(by_bit_, key, n);
        for (const auto& [key, n] : pc_seen) fold(by_pc_, key, n);
        for (const auto& [key, n] : cls_detector_seen)
            fold(by_class_detector_, key, n);
        for (const std::uint32_t latency : fx.detection_latencies) {
            ++latency_hist_[latency_bucket(latency)];
            ++detections_;
        }
        records_.insert(records_.end(), fx.records.begin(), fx.records.end());
    }
    return info;
}

void ForensicSink::write_records(std::ostream& os) const {
    write_fault_records(os, records_);
}

void ForensicSink::write_artifacts(const std::string& dir) const {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);  // ok if it exists

    const std::string records_path = dir + "/records.bin";
    {
        std::ofstream os(records_path, std::ios::binary | std::ios::trunc);
        if (!os)
            throw std::runtime_error("forensics: cannot write " + records_path);
        write_records(os);
        os.flush();
        if (!os)
            throw std::runtime_error("forensics: write to " + records_path +
                                     " failed");
    }

    // The derating tables as the artifacts print them: key cells, then
    // the tally. ExClass order, endpoint bit order, PC hotspots
    // (injections descending, PC ascending on ties), (ExClass, detector
    // family).
    using Rows = std::vector<std::pair<std::vector<std::string>, KeyTally>>;
    Rows by_class, by_bit, by_pc, by_class_detector;
    for (const auto& [cls, tally] : by_class_)
        by_class.push_back({{ex_class_name(static_cast<ExClass>(cls))}, tally});
    for (const auto& [bit, tally] : by_bit_)
        by_bit.push_back({{"bit" + std::to_string(bit)}, tally});
    for (const auto& [pc, tally] : by_pc_) {
        char name[16];
        std::snprintf(name, sizeof(name), "0x%08x", pc);
        by_pc.push_back({{name}, tally});
    }
    std::stable_sort(by_pc.begin(), by_pc.end(),
                     [](const auto& lhs, const auto& rhs) {
                         return lhs.second.injections > rhs.second.injections;
                     });
    for (const auto& [key, tally] : by_class_detector_)
        by_class_detector.push_back(
            {{ex_class_name(static_cast<ExClass>(key.first)),
              detector_family_ordinal_name(key.second)},
             tally});

    const std::string json_path = dir + "/forensics.json";
    std::ofstream os(json_path, std::ios::trunc);
    if (!os) throw std::runtime_error("forensics: cannot write " + json_path);
    perf::JsonWriter json(os);
    json.begin_object();
    json.field("schema", "sfi-forensics");
    json.field("version", 1);
    json.field("record_count", static_cast<std::uint64_t>(records_.size()));
    json.field("trials", trials_recorded_);
    json.key("points");
    json.begin_array();
    for (const ForensicPointInfo& info : points_) {
        json.begin_object();
        json.field("point_id", static_cast<std::uint64_t>(info.point_id));
        json.field("panel", info.panel);
        json.field("model", info.model);
        json.field("kernel", info.kernel);
        json.field("freq_mhz", info.freq_mhz);
        json.field("vdd", info.vdd);
        json.field("sigma_mv", info.sigma_mv);
        json.field("trials_sampled", info.trials_sampled);
        json.field("finished", info.finished);
        json.field("correct", info.correct);
        json.key("outcomes");
        json.begin_object();
        for (std::size_t i = 0; i < kOutcomeClassCount; ++i)
            json.field(outcome_class_name(static_cast<OutcomeClass>(i)),
                       info.outcomes[i]);
        json.end_object();
        json.field("injections", info.injections);
        json.field("razor_detected", info.razor_detected);
        json.field("razor_escaped", info.razor_escaped);
        json.end_object();
    }
    json.end_array();

    // Each derating table goes to forensics.json's "report" object (keys
    // named `json_keys`) and to its own forensics_<name>.csv (`csv_keys`).
    const auto table = [&](const std::string& name,
                           const std::vector<std::string>& json_keys,
                           std::vector<std::string> csv_keys, const Rows& rows) {
        CsvWriter csv(dir + "/forensics_" + name + ".csv");
        csv_keys.insert(csv_keys.end(),
                        {"injections", "trials", "sdc_trials", "sdc_derating"});
        csv.header(csv_keys);
        json.key(name);
        json.begin_array();
        for (const auto& [keys, tally] : rows) {
            const double sdc_derating =
                tally.trials ? static_cast<double>(tally.sdc_trials) /
                                   static_cast<double>(tally.trials)
                             : 0.0;
            json.begin_object();
            for (std::size_t i = 0; i < keys.size(); ++i) {
                json.field(json_keys[i], keys[i]);
                csv.cell(keys[i]);
            }
            json.field("injections", tally.injections);
            json.field("trials", tally.trials);
            json.field("sdc_trials", tally.sdc_trials);
            json.field("sdc_derating", sdc_derating);
            json.end_object();
            csv.cell(tally.injections)
                .cell(tally.trials)
                .cell(tally.sdc_trials)
                .cell(sdc_derating);
            csv.end_row();
        }
        json.end_array();
        csv.close();
    };
    json.key("report");
    json.begin_object();
    table("by_class", {"key"}, {"ex_class"}, by_class);
    table("by_bit", {"key"}, {"bit"}, by_bit);
    table("by_pc", {"key"}, {"pc"}, by_pc);
    table("by_class_detector", {"ex_class", "detector"},
          {"ex_class", "detector"}, by_class_detector);
    json.field("detections", detections_);
    json.key("detection_latency_hist");
    json.begin_array();
    for (const std::uint64_t count : latency_hist_) json.value(count);
    json.end_array();
    json.end_object();
    json.end_object();
    os << "\n";
    os.flush();
    if (!os)
        throw std::runtime_error("forensics: write to " + json_path +
                                 " failed");

    {
        CsvWriter csv(dir + "/forensics_points.csv");
        std::vector<std::string> columns = {
            "panel",   "model",    "kernel",  "point_id", "freq_mhz",
            "vdd",     "sigma_mv", "trials",  "finished", "correct"};
        for (std::size_t i = 0; i < kOutcomeClassCount; ++i)
            columns.push_back(outcome_class_name(static_cast<OutcomeClass>(i)));
        columns.insert(columns.end(),
                       {"injections", "razor_detected", "razor_escaped"});
        csv.header(columns);
        for (const ForensicPointInfo& info : points_) {
            csv.cell(info.panel)
                .cell(info.model)
                .cell(info.kernel)
                .cell(static_cast<std::uint64_t>(info.point_id))
                .cell(info.freq_mhz)
                .cell(info.vdd)
                .cell(info.sigma_mv)
                .cell(info.trials_sampled)
                .cell(info.finished)
                .cell(info.correct);
            for (std::size_t i = 0; i < kOutcomeClassCount; ++i)
                csv.cell(info.outcomes[i]);
            csv.cell(info.injections)
                .cell(info.razor_detected)
                .cell(info.razor_escaped);
            csv.end_row();
        }
        csv.close();
    }

    {
        CsvWriter csv(dir + "/forensics_latency.csv");
        csv.header({"bucket", "min_cycles", "max_cycles", "detections"});
        for (std::size_t i = 0; i < kLatencyBuckets; ++i) {
            const std::uint64_t lo = i == 0 ? 0 : (1ull << (i - 1));
            const std::uint64_t hi = i == 0 ? 0 : (1ull << i) - 1;
            csv.cell(static_cast<std::uint64_t>(i))
                .cell(lo)
                .cell(hi)
                .cell(latency_hist_[i]);
            csv.end_row();
        }
        csv.close();
    }
}

// ---------------------------------------------------------------------------
// forensics_points.csv reader
// ---------------------------------------------------------------------------

namespace {

/// Splits one CSV line with the quoting conventions of csv_escape
/// (fields containing separators/quotes are double-quote wrapped,
/// embedded quotes doubled).
std::vector<std::string> split_csv_line(const std::string& line) {
    std::vector<std::string> fields;
    std::string field;
    bool quoted = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
        const char c = line[i];
        if (quoted) {
            if (c == '"') {
                if (i + 1 < line.size() && line[i + 1] == '"') {
                    field.push_back('"');
                    ++i;
                } else {
                    quoted = false;
                }
            } else {
                field.push_back(c);
            }
        } else if (c == '"' && field.empty()) {
            quoted = true;
        } else if (c == ',') {
            fields.push_back(std::move(field));
            field.clear();
        } else {
            field.push_back(c);
        }
    }
    fields.push_back(std::move(field));
    return fields;
}

}  // namespace

std::vector<ForensicPointInfo> read_forensic_points(
    const std::string& csv_path) {
    std::vector<ForensicPointInfo> rows;
    std::ifstream is(csv_path);
    std::string line;
    if (!is || !std::getline(is, line)) return rows;
    const std::vector<std::string> header = split_csv_line(line);
    const auto column = [&header](const std::string& name) {
        return static_cast<std::size_t>(
            std::find(header.begin(), header.end(), name) - header.begin());
    };
    if (column("panel") == header.size()) return rows;
    while (std::getline(is, line)) {
        if (line.empty()) continue;
        const std::vector<std::string> fields = split_csv_line(line);
        if (fields.size() < header.size()) continue;
        bool ok = true;
        // A column the header lacks reads as empty / 0; a present cell
        // must parse whole.
        const auto text = [&](const char* name) {
            const std::size_t col = column(name);
            return col < header.size() ? fields[col] : std::string();
        };
        const auto number = [&](const char* name, auto& value) {
            const std::size_t col = column(name);
            if (col == header.size()) return;
            const std::string& cell = fields[col];
            const char* end = cell.data() + cell.size();
            const auto [ptr, ec] = std::from_chars(cell.data(), end, value);
            ok = ok && ec == std::errc() && ptr == end;
        };
        ForensicPointInfo& info = rows.emplace_back();
        info.panel = text("panel");
        info.model = text("model");
        info.kernel = text("kernel");
        number("point_id", info.point_id);
        number("freq_mhz", info.freq_mhz);
        number("vdd", info.vdd);
        number("sigma_mv", info.sigma_mv);
        number("trials", info.trials_sampled);
        number("finished", info.finished);
        number("correct", info.correct);
        for (std::size_t i = 0; i < kOutcomeClassCount; ++i)
            number(outcome_class_name(static_cast<OutcomeClass>(i)),
                   info.outcomes[i]);
        number("injections", info.injections);
        number("razor_detected", info.razor_detected);
        number("razor_escaped", info.razor_escaped);
        if (!ok) rows.pop_back();
    }
    return rows;
}

}  // namespace sfi
