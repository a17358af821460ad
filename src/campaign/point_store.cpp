#include "campaign/point_store.hpp"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/fingerprint.hpp"

namespace sfi::campaign {

namespace {

constexpr char kMagic[8] = {'S', 'F', 'I', 'P', 'T', 'S', '\x01', '\n'};
constexpr std::uint32_t kVersion = 1;
constexpr std::uint64_t kHeaderBytes = sizeof kMagic + sizeof kVersion;
// A PointSummary payload is ~150 bytes; anything larger than this is a
// corrupt size field, not a record.
constexpr std::uint32_t kMaxPayload = 1u << 20;

template <typename T>
void put(std::ostream& os, const T& value) {
    os.write(reinterpret_cast<const char*>(&value), sizeof value);
}

template <typename T>
bool get(std::istream& is, T& value) {
    is.read(reinterpret_cast<char*>(&value), sizeof value);
    return static_cast<bool>(is);
}

}  // namespace

void save_point_summary(std::ostream& os, const PointSummary& summary) {
    put(os, summary.point.freq_mhz);
    put(os, summary.point.vdd);
    put(os, summary.point.noise.sigma_mv);
    put(os, summary.point.noise.clip_sigmas);
    put(os, static_cast<std::uint64_t>(summary.trials));
    put(os, static_cast<std::uint64_t>(summary.finished_count));
    put(os, static_cast<std::uint64_t>(summary.correct_count));
    put(os, summary.fi_rate);
    put(os, summary.mean_error);
    summary.error_stats.save(os);
    summary.fi_rate_stats.save(os);
}

PointSummary load_point_summary(std::istream& is) {
    PointSummary summary;
    std::uint64_t trials = 0, finished = 0, correct = 0;
    if (!get(is, summary.point.freq_mhz) || !get(is, summary.point.vdd) ||
        !get(is, summary.point.noise.sigma_mv) ||
        !get(is, summary.point.noise.clip_sigmas) || !get(is, trials) ||
        !get(is, finished) || !get(is, correct) || !get(is, summary.fi_rate) ||
        !get(is, summary.mean_error))
        throw std::runtime_error("load_point_summary: truncated stream");
    summary.trials = static_cast<std::size_t>(trials);
    summary.finished_count = static_cast<std::size_t>(finished);
    summary.correct_count = static_cast<std::size_t>(correct);
    summary.error_stats = RunningStats::load(is);
    summary.fi_rate_stats = RunningStats::load(is);
    return summary;
}

const char* store_diagnostic_name(StoreDiagnostic::Kind kind) {
    switch (kind) {
        case StoreDiagnostic::Kind::ForeignFile: return "foreign-file";
        case StoreDiagnostic::Kind::CorruptTail: return "corrupt-tail";
        case StoreDiagnostic::Kind::BitRot: return "bit-rot";
    }
    return "unknown";
}

PointStore::PointStore(std::string path, obs::Ledger* ledger)
    : path_(std::move(path)), ledger_(ledger) {
    if (!path_.empty()) {
        read_records();
        report_diagnostics();
    }
}

void PointStore::read_records() {
    valid_bytes_ = kHeaderBytes;
    std::ifstream is(path_, std::ios::binary);
    if (!is) return;  // no file yet: created with a header on first insert

    std::error_code ec;
    const std::uint64_t file_size = std::filesystem::file_size(path_, ec);

    char magic[sizeof kMagic] = {};
    std::uint32_t version = 0;
    is.read(magic, sizeof magic);
    if (!is || std::memcmp(magic, kMagic, sizeof kMagic) != 0 ||
        !get(is, version) || version != kVersion) {
        // Foreign or old-format file: read as empty; the first insert
        // rewrites it from scratch.
        recovered_bytes_ = ec ? 0 : file_size;
        diagnostics_.push_back({StoreDiagnostic::Kind::ForeignFile,
                                recovered_bytes_, 0});
        return;
    }
    header_ok_ = true;

    std::uint64_t good_end = kHeaderBytes;
    std::vector<char> payload;
    auto damage = StoreDiagnostic::Kind::CorruptTail;
    bool damaged = false;
    for (;;) {
        std::uint64_t key = 0;
        std::uint32_t size = 0;
        if (!get(is, key)) {
            // A clean end of file fails the key read with nothing
            // consumed; any partial read is a torn record.
            damaged = is.gcount() > 0;
            break;
        }
        if (!get(is, size)) {
            damaged = true;
            break;
        }
        if (size > kMaxPayload) {
            damaged = true;  // corrupt size field, not a record
            break;
        }
        payload.resize(size);
        is.read(payload.data(), size);
        std::uint64_t stored_hash = 0;
        if (!is || !get(is, stored_hash)) {
            damaged = true;
            break;
        }
        if (Fingerprint().bytes(payload.data(), size).value() != stored_hash) {
            // Bit rot / torn write: drop this record and the rest.
            damaged = true;
            damage = StoreDiagnostic::Kind::BitRot;
            break;
        }
        std::istringstream ps(std::string(payload.data(), size));
        try {
            entries_[key] = load_point_summary(ps);
        } catch (const std::exception&) {
            damaged = true;
            break;
        }
        good_end += sizeof key + sizeof size + size + sizeof stored_hash;
    }
    valid_bytes_ = good_end;
    if (!ec && file_size > valid_bytes_)
        recovered_bytes_ = file_size - valid_bytes_;
    if (damaged)
        diagnostics_.push_back({damage, recovered_bytes_, entries_.size()});
}

void PointStore::report_diagnostics() const {
    for (const StoreDiagnostic& diag : diagnostics_) {
        if (ledger_ != nullptr) {
            ledger_->instant(
                "store_warning",
                {{"kind", store_diagnostic_name(diag.kind)},
                 {"path", path_},
                 {"dropped_bytes", diag.dropped_bytes},
                 {"records_loaded",
                  static_cast<std::uint64_t>(diag.records_loaded)}});
        } else {
            std::fprintf(
                stderr,
                "sfi: point store %s: %s — dropped %llu byte(s), "
                "%zu record(s) loaded\n",
                path_.c_str(), store_diagnostic_name(diag.kind),
                static_cast<unsigned long long>(diag.dropped_bytes),
                diag.records_loaded);
        }
    }
}

void PointStore::append_record(std::uint64_t key, const PointSummary& summary) {
    if (!out_.is_open()) {
        if (!header_ok_) {
            // Missing or unrecognizable file: start fresh.
            out_.open(path_, std::ios::binary | std::ios::trunc);
            if (out_) {
                out_.write(kMagic, sizeof kMagic);
                put(out_, kVersion);
            }
        } else {
            // Cut corrupt trailing data back to the last good record,
            // then append behind it. ios::app (O_APPEND) writes at the
            // OS-maintained end of file, so a second process appending
            // to the same store cannot overwrite this one's records —
            // see the concurrency note in the header.
            if (recovered_bytes_ > 0) {
                std::error_code ec;
                std::filesystem::resize_file(path_, valid_bytes_, ec);
            }
            out_.open(path_, std::ios::binary | std::ios::app);
        }
        if (!out_)
            throw std::runtime_error("PointStore: cannot open " + path_ +
                                     " for writing");
        header_ok_ = true;
    }
    std::ostringstream ps(std::ios::binary);
    save_point_summary(ps, summary);
    const std::string payload = ps.str();
    put(out_, key);
    put(out_, static_cast<std::uint32_t>(payload.size()));
    out_.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    put(out_, Fingerprint().bytes(payload.data(), payload.size()).value());
    out_.flush();  // the resume guarantee: completed points hit the disk
    if (!out_)
        throw std::runtime_error("PointStore: write to " + path_ + " failed");
    valid_bytes_ += sizeof key + sizeof(std::uint32_t) + payload.size() +
                    sizeof(std::uint64_t);
}

std::optional<PointSummary> PointStore::lookup(std::uint64_t key) const {
    const auto it = entries_.find(key);
    if (it == entries_.end()) return std::nullopt;
    return it->second;
}

void PointStore::insert(std::uint64_t key, const PointSummary& summary) {
    if (!entries_.emplace(key, summary).second) return;  // already stored
    if (!path_.empty()) append_record(key, summary);
}

}  // namespace sfi::campaign
