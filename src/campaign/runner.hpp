// Executes a CampaignSpec: builds (and caches) the characterized cores,
// resolves the symbolic grids, schedules every panel's points through
// the Monte-Carlo engine, and emits the unified artifacts (per-panel CSV
// plus a campaign manifest JSON).
//
// Scheduling layers point-level dispatch over the existing trial-level
// pool: points run serially in spec order — preserving progress output
// and PoFF semantics — while each point's trials fan out across
// RunOptions::threads workers via MonteCarloRunner::run_point
// (src/mc/parallel.hpp). Completed points are appended to the point
// store before the next point starts, so an interrupted campaign can be
// re-run and every finished point is served from the store. By the PR 2
// determinism contract a stored summary equals a recomputed one bit for
// bit, which makes a warm re-run's CSV output byte-identical to a cold
// run's — the resume guarantee, enforced by tests/campaign/ and CI.
//
// Benchmark-kernel points execute through the adaptive sampling engine
// (src/sampling/): a fixed-N policy runs through the batched executor and
// stays byte-identical to the historical run_point path, while adaptive
// policies (CampaignSpec::sampling / PanelSpec::sampling) stop early once
// the Wilson intervals are tight enough, and PoffSearchSpec panels
// replace their grid with a store-backed bisection search. Adaptive
// summaries are keyed with the policy fingerprint so they never collide
// with fixed-N points.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "campaign/point_store.hpp"
#include "campaign/spec.hpp"
#include "fi/core_model.hpp"
#include "fi/forensics.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"

namespace sfi::campaign {

struct RunOptions {
    /// Point-store file; empty = compute everything, persist nothing.
    std::string store_path;
    /// Directory for per-panel CSVs (created on demand); empty = no CSV.
    std::string csv_dir;
    /// Manifest JSON path; empty = `<csv_dir>/<campaign>_manifest.json`
    /// when csv_dir is set, else no manifest.
    std::string manifest_path;
    /// MC worker threads per point (McConfig::threads semantics: 0 = one
    /// per hardware thread, 1 = serial; bit-identical at any value).
    std::size_t threads = 1;
    /// Console report; null = quiet. Each completed panel prints its
    /// title and table: frequency panels add the PoFF line, voltage
    /// panels the highest failing Vdd and its normalized power, model
    /// B/C panels the model-B+ first-fault frequency at their base point,
    /// and the first panel on each distinct core that core's f_STA and
    /// add/sub/cmp/mul dynamic fmax. CDF panels print their percent
    /// table and each curve's first-failure frequency.
    std::ostream* console = nullptr;
    /// Checked before every point; returning true stops the campaign
    /// cleanly after the point in flight (completed points are already
    /// persisted). This is how tests emulate a mid-sweep kill.
    std::function<bool()> cancelled;
    /// Run ledger (bench --trace); null = no tracing. The runner emits
    /// the campaign/panel/point narrative, probe verdicts and stopping
    /// classifications in both trace modes, and store traffic, batch
    /// spans, worker lanes and progress estimates in wall mode only —
    /// see obs/ledger.hpp for the determinism contract.
    obs::Ledger* ledger = nullptr;
    /// External metrics registry to accumulate into (sfi_perf threads the
    /// perf-report registry through here); null = the runner uses an
    /// internal one, readable via CampaignRunner::metrics().
    obs::MetricsRegistry* metrics = nullptr;
    /// Live per-panel `point k/N, trials/s, ETA` line on stderr. Only
    /// printed when stderr is a TTY; bench drivers map --quiet to false.
    bool progress = false;
    /// Fault-forensics artifact directory (bench --forensics DIR); empty =
    /// forensics off, zero overhead and byte-identical artifacts. When
    /// set, every Benchmark-kernel point additionally re-runs its first
    /// min(forensics_trials, trials) trials under the forensic probe
    /// (store hits included — the re-run is independent of warm/cold) and
    /// the ForensicSink artifacts are written into the directory at the
    /// end of the run. PointSummaries, CSVs, the manifest and the store
    /// are untouched by construction.
    std::string forensics_dir;
    /// Trials forensically sampled per point (clamped to the point's
    /// trial count).
    std::size_t forensics_trials = 32;
};

/// Outcome of a PoffSearchSpec panel: the bisection bracket around the
/// point of first failure (the PoFF lies in (lo, hi]).
struct PoffOutcome {
    bool bracketed = false;
    double lo_mhz = 0.0;
    double hi_mhz = 0.0;
    double pass_risk = 0.0;  ///< residual risk the PoFF is at/below lo
    std::size_t probes = 0;
};

struct PanelResult {
    std::string name;
    Axis axis = Axis::Frequency;  ///< what the sweep varies (from the spec)
    std::vector<PointSummary> sweep;
    std::size_t store_hits = 0;
    std::size_t store_misses = 0;
    /// Monte-Carlo trials the sweep's summaries aggregate (store hits
    /// included — the number is a pure function of the spec, so warm and
    /// cold runs report the same budget). This is what the adaptive
    /// policies shrink; the manifest records it per panel so the saving
    /// is auditable.
    std::uint64_t trials_spent = 0;
    /// Points by stopping classification, indexed by sampling::StopRule.
    /// Derived from the final summaries via classify_stop, so it is a
    /// pure function of the spec — warm and cold runs agree byte for byte
    /// (the manifest records it in the stable section).
    std::array<std::uint64_t, sampling::kStopRuleCount> stopping{};
    std::optional<PoffOutcome> poff;  ///< set for PoffSearchSpec panels
    std::string csv_path;    ///< "" when CSV is disabled or panel incomplete
    bool completed = true;   ///< false when the campaign was cancelled mid-panel
};

struct CdfPanelResult {
    std::string name;
    std::vector<std::string> columns;        ///< "f [MHz]" + one per curve
    std::vector<std::vector<double>> rows;   ///< [point][column]
    std::string csv_path;
};

struct CampaignResult {
    std::string name;
    std::uint64_t spec_fingerprint = 0;
    std::vector<PanelResult> panels;
    std::vector<CdfPanelResult> cdf_panels;
    std::size_t store_hits = 0;
    std::size_t store_misses = 0;
    std::uint64_t trials_spent = 0;  ///< sum over the MC panels
    double wall_s = 0.0;
    bool completed = true;
    std::string manifest_path;  ///< "" when no manifest was written

    const PanelResult& panel(const std::string& name) const;
};

class CampaignRunner {
public:
    CampaignRunner(CampaignSpec spec, RunOptions options);
    ~CampaignRunner();

    const CampaignSpec& spec() const { return spec_; }

    /// The campaign-level core (spec.core), built on first use.
    const CharacterizedCore& core();
    /// The effective core of one panel (its override, or spec.core).
    const CharacterizedCore& core_for(const PanelSpec& panel);

    /// Grid resolved against the panel's core — exposed for drivers and
    /// tests that need the x-axis values without executing anything.
    std::vector<double> resolve_grid(const PanelSpec& panel);

    /// Executes every panel (store-backed) and writes CSVs + manifest.
    CampaignResult run();

    /// The registry campaign counters accumulate into — RunOptions::
    /// metrics when set, else an internal instance.
    obs::MetricsRegistry& metrics() {
        return options_.metrics != nullptr ? *options_.metrics : metrics_;
    }

private:
    struct ConditionedStoreKey {
        std::uint64_t core_fingerprint;
        ExClass cls;
        unsigned operand_bits;
        bool operator<(const ConditionedStoreKey& other) const;
    };

    /// A panel's runtime-resolved base point and x-axis samples — the one
    /// source of truth for both resolve_grid() and run_panel().
    struct ResolvedPanel {
        OperatingPoint base;
        std::vector<double> axis_values;
    };
    ResolvedPanel resolve_panel(const PanelSpec& panel);

    std::unique_ptr<FaultModel> make_model(const PanelSpec& panel,
                                           const CharacterizedCore& core);
    std::shared_ptr<const TimingErrorCdfs> conditioned_store(
        const PanelSpec& panel, const CharacterizedCore& core);
    PointSummary compute_op_stream_point(const PanelSpec& panel,
                                         FaultModel& model,
                                         const OperatingPoint& point);
    PanelResult run_panel(const PanelSpec& panel);
    CdfPanelResult run_cdf_panel(const CdfPanelSpec& panel);
    void write_manifest(CampaignResult& result);

    CampaignSpec spec_;
    RunOptions options_;
    PointStore store_;
    /// Live only while run() executes with forensics enabled.
    std::unique_ptr<ForensicSink> forensic_sink_;
    obs::MetricsRegistry metrics_;  ///< used when options_.metrics is null
    /// Owned by run(): per-panel progress state (always constructed so
    /// wall-mode ledgers get ETA events even without a TTY).
    std::unique_ptr<obs::ProgressReporter> progress_;
    /// Cores cached by configuration fingerprint (panel overrides).
    std::map<std::uint64_t, std::unique_ptr<CharacterizedCore>> cores_;
    std::map<ConditionedStoreKey, std::shared_ptr<const TimingErrorCdfs>>
        conditioned_;
    /// Fingerprints of the cores the console report has described in the
    /// current run().
    std::set<std::uint64_t> described_cores_;
};

/// First-fault frequency (MHz) of `model_spec` instantiated on `core` at
/// `base` — the runtime anchor of FirstFaultWindow grids and the model-B+
/// contrast line of the console report. Model B/B+ only.
double first_fault_mhz(const CharacterizedCore& core, const ModelSpec& model_spec,
                       const OperatingPoint& base);

}  // namespace sfi::campaign
