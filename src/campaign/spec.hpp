// Declarative description of a Monte-Carlo experiment campaign.
//
// A campaign is what a paper figure really is: a set of panels, each a
// sweep of operating points for one (kernel, fault model) pair on one
// characterized core. Historically every bench_fig* binary hand-rolled
// its panels imperatively; a CampaignSpec states them as data, so the
// same description can be executed by the runner (src/campaign/
// runner.hpp), resumed against the point store (point_store.hpp), and
// fingerprinted for cache invalidation.
//
// Grids may reference characterization results that only exist at run
// time (the STA limit, a model's first-fault frequency); GridSpec keeps
// those references symbolic and the runner resolves them against the
// panel's core. Resolution is deterministic, so a resolved operating
// point — and therefore its point-store key — is a pure function of the
// spec.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "apps/benchmark.hpp"
#include "fi/core_model.hpp"
#include "fi/mitigation.hpp"
#include "fi/models.hpp"
#include "sampling/sequential.hpp"

namespace sfi::campaign {

/// X-axis sample grid of one panel. The symbolic kinds are resolved by
/// the runner against the panel's characterized core (and model).
struct GridSpec {
    enum class Kind : std::uint8_t {
        Explicit,         ///< `values` used verbatim
        Linspace,         ///< linspace(lo, hi, points)
        StaLinspace,      ///< linspace(lo * f_STA, hi * f_STA, points); the
                          ///< STA limit is taken at the panel's base Vdd
        FirstFaultWindow  ///< arange(f0 - below, f0 + above, step) around the
                          ///< model's first-fault frequency at the base point
                          ///< (model B/B+ only)
    };

    Kind kind = Kind::Explicit;
    std::vector<double> values;             // Explicit
    double lo = 0.0, hi = 0.0;              // Linspace / StaLinspace
    std::size_t points = 2;                 // Linspace / StaLinspace
    double below = 0.0, above = 0.0, step = 1.0;  // FirstFaultWindow

    static GridSpec explicit_values(std::vector<double> values);
    static GridSpec linspace(double lo, double hi, std::size_t points);
    static GridSpec sta_linspace(double lo_factor, double hi_factor,
                                 std::size_t points);
    static GridSpec first_fault_window(double below, double above, double step);
};

/// Which quantity the grid sweeps; the other coordinates come from the
/// panel's base operating point.
enum class Axis : std::uint8_t { Frequency, Voltage };

/// Fault model to instantiate for a panel (paper Table 2), optionally
/// wrapped by an error-detection decorator (docs/MITIGATIONS.md).
struct ModelSpec {
    enum class Kind : std::uint8_t { A, B, C };
    /// Detection stage wrapped around the fault model. None mixes nothing
    /// into point keys, so every store written before mitigations existed
    /// stays byte-compatible.
    enum class Mitigation : std::uint8_t { None, Razor, Cwc };

    Kind kind = Kind::C;
    double flip_probability = 1e-4;  ///< model A only
    FaultPolicy policy = FaultPolicy::BitFlip;

    Mitigation mitigation = Mitigation::None;
    double razor_coverage = 1.0;        ///< Razor P(detect | corrupted)
    unsigned razor_replay_cycles = 11;  ///< Razor replay cost per detection
    unsigned cwc_block_bits = 8;        ///< CWC data bits per protected block
    unsigned cwc_recovery_cycles = 2;   ///< CWC recovery stall per detection

    static ModelSpec a(double flip_probability);
    static ModelSpec b();  ///< B when the base point has sigma = 0, else B+
    static ModelSpec c();

    /// Chainable decorator selectors: ModelSpec::c().with_razor(...).
    ModelSpec with_razor(double coverage = 1.0,
                         unsigned replay_cycles = 11) const;
    ModelSpec with_cwc(unsigned block_bits = 8,
                       unsigned recovery_cycles = 2) const;

    /// The detection stage `mitigation` names, built from the knobs above;
    /// nullopt for None. The one ModelSpec -> detector mapping: the runner
    /// wraps its models in it and drivers price panels with it
    /// (detector_cost).
    std::optional<Detector> detector() const;
};

/// Workload executed at every operating point of a panel.
struct KernelSpec {
    enum class Kind : std::uint8_t {
        Benchmark,  ///< full ORBIS32 application under the Monte-Carlo runner
        OpStream    ///< raw ALU instruction stream through the model (Fig. 4)
    };

    Kind kind = Kind::Benchmark;
    BenchmarkId benchmark = BenchmarkId::Median;
    // OpStream parameters:
    ExClass cls = ExClass::Add;
    unsigned operand_bits = 32;       ///< operand value range mask
    std::size_t ops_per_trial = 2048;
    std::uint64_t operand_seed = 0;   ///< stream of operand values

    static KernelSpec bench(BenchmarkId id);
    static KernelSpec op_stream(ExClass cls, unsigned operand_bits,
                                std::size_t ops_per_trial,
                                std::uint64_t operand_seed);
};

/// Symbolic PoFF bisection search (src/sampling/search.hpp) in panel
/// form: instead of sweeping a grid, the runner brackets and bisects the
/// point of first failure between lo_factor and hi_factor times the STA
/// limit at the panel's base Vdd. Frequency-axis Benchmark panels only —
/// bisection relies on failure being monotone in frequency.
struct PoffSearchSpec {
    double lo_factor = 0.9;   ///< bracket lo = lo_factor * f_STA(base.vdd)
    double hi_factor = 1.2;   ///< bracket hi = hi_factor * f_STA(base.vdd)
    double tol_mhz = 2.0;     ///< stop once the bracket is this tight
    std::size_t max_expand = 4;  ///< outward slides per disagreeing edge
};

/// One figure panel: a sweep of points for one kernel under one model.
struct PanelSpec {
    std::string name;   ///< CSV stem and manifest key (unique per campaign)
    std::string title;  ///< console heading ("" = use name)
    KernelSpec kernel;
    ModelSpec model;
    OperatingPoint base;       ///< coordinates not swept by the grid
    Axis axis = Axis::Frequency;
    GridSpec grid;
    /// Added to the campaign seed for this panel's trials, so panels that
    /// share a kernel still draw independent streams (Fig. 4's series).
    std::uint64_t seed_offset = 0;
    /// When set, model C runs on a dedicated DTA characterization of
    /// kernel.cls with this operand width instead of the core's full
    /// store (the operand-profile-conditioned series of Fig. 4).
    std::optional<unsigned> dta_operand_bits;
    /// Panel-specific core configuration (ablation studies); points of a
    /// panel with an override are keyed by the override's fingerprint.
    std::optional<CoreModelConfig> core_override;
    /// When set, the base frequency is resolved at run time as
    /// factor * f_STA(base.vdd) — Fig. 7 pins its voltage sweep to the
    /// nominal STA limit this way.
    std::optional<double> base_freq_sta_factor;
    /// Per-panel sampling policy; unset = the campaign-level policy.
    /// Benchmark kernels only — OpStream panels always run the campaign's
    /// fixed trial count (their trials are microseconds, not seconds, so
    /// adaptive stopping has nothing to save), and explicitly setting an
    /// adaptive policy on one is rejected at run time.
    std::optional<sampling::SamplingPolicy> sampling;
    /// When set, the panel runs a bisection PoFF search instead of
    /// sweeping `grid` (which is ignored): the probe summaries become the
    /// panel sweep/CSV and the PoFF interval lands in the result and the
    /// manifest. Requires axis == Frequency and a Benchmark kernel.
    std::optional<PoffSearchSpec> poff;
    /// Error-metric label of the console table ("rel. error %", "MSE", ...).
    std::string error_label = "rel. error %";
};

/// Deterministic curve family evaluated straight from the CDF store —
/// no Monte-Carlo, no point store (Fig. 2). Kept separate from PanelSpec
/// because its result is a matrix of probabilities, not PointSummaries.
struct CdfCurveSpec {
    ExClass cls = ExClass::Add;
    std::size_t bit = 0;
    double vdd = 0.7;
};

struct CdfPanelSpec {
    std::string name;
    std::string title;
    std::vector<CdfCurveSpec> curves;
    GridSpec grid;  ///< frequency grid (Explicit or Linspace)
};

/// The whole experiment: shared core + Monte-Carlo knobs + panels.
struct CampaignSpec {
    std::string name;
    CoreModelConfig core;
    std::size_t trials = 100;
    std::uint64_t seed = 1;
    double watchdog_factor = 8.0;
    /// Campaign-wide sampling policy (paper default: fixed trials).
    /// Panels override it via PanelSpec::sampling.
    sampling::SamplingPolicy sampling;
    std::vector<PanelSpec> panels;
    std::vector<CdfPanelSpec> cdf_panels;

    /// Hash of everything above that can influence any artifact —
    /// recorded in the campaign manifest so a consumer can tell whether
    /// two manifests describe the same experiment.
    std::uint64_t fingerprint() const;
};

/// The sampling policy a panel actually runs under (its own, or the
/// campaign's).
const sampling::SamplingPolicy& effective_sampling(const CampaignSpec& campaign,
                                                   const PanelSpec& panel);

/// Content address of one completed point in the store: hashes exactly
/// the inputs that determine its PointSummary — the effective core
/// fingerprint, the model, the kernel, the *resolved* operating point,
/// trials / seed (+ panel offset) / watchdog — and a format-version
/// salt. An *adaptive* sampling policy (kind != FixedN) additionally
/// mixes its fingerprint, because the policy decides how many trials the
/// summary aggregates; fixed-N keys mix nothing extra, so they are
/// byte-compatible with every store written before the sampling engine
/// existed. Panel names, titles and grid symbolism are deliberately
/// excluded: equal physics means equal key, so re-described campaigns
/// still hit.
std::uint64_t point_key(const CampaignSpec& campaign, const PanelSpec& panel,
                        std::uint64_t core_fingerprint,
                        const OperatingPoint& resolved);

}  // namespace sfi::campaign
