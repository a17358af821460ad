#include "campaign/spec.hpp"

#include "util/fingerprint.hpp"

namespace sfi::campaign {

GridSpec GridSpec::explicit_values(std::vector<double> values) {
    GridSpec grid;
    grid.kind = Kind::Explicit;
    grid.values = std::move(values);
    return grid;
}

GridSpec GridSpec::linspace(double lo, double hi, std::size_t points) {
    GridSpec grid;
    grid.kind = Kind::Linspace;
    grid.lo = lo;
    grid.hi = hi;
    grid.points = points;
    return grid;
}

GridSpec GridSpec::sta_linspace(double lo_factor, double hi_factor,
                                std::size_t points) {
    GridSpec grid;
    grid.kind = Kind::StaLinspace;
    grid.lo = lo_factor;
    grid.hi = hi_factor;
    grid.points = points;
    return grid;
}

GridSpec GridSpec::first_fault_window(double below, double above, double step) {
    GridSpec grid;
    grid.kind = Kind::FirstFaultWindow;
    grid.below = below;
    grid.above = above;
    grid.step = step;
    return grid;
}

ModelSpec ModelSpec::a(double flip_probability) {
    ModelSpec spec;
    spec.kind = Kind::A;
    spec.flip_probability = flip_probability;
    return spec;
}

ModelSpec ModelSpec::b() {
    ModelSpec spec;
    spec.kind = Kind::B;
    return spec;
}

ModelSpec ModelSpec::c() {
    ModelSpec spec;
    spec.kind = Kind::C;
    return spec;
}

ModelSpec ModelSpec::with_razor(double coverage,
                                unsigned replay_cycles) const {
    ModelSpec spec = *this;
    spec.mitigation = Mitigation::Razor;
    spec.razor_coverage = coverage;
    spec.razor_replay_cycles = replay_cycles;
    return spec;
}

ModelSpec ModelSpec::with_cwc(unsigned block_bits,
                              unsigned recovery_cycles) const {
    ModelSpec spec = *this;
    spec.mitigation = Mitigation::Cwc;
    spec.cwc_block_bits = block_bits;
    spec.cwc_recovery_cycles = recovery_cycles;
    return spec;
}

std::optional<Detector> ModelSpec::detector() const {
    switch (mitigation) {
        case Mitigation::Razor:
            return RazorConfig{razor_coverage, razor_replay_cycles};
        case Mitigation::Cwc:
            return CwcConfig{cwc_block_bits, cwc_recovery_cycles};
        case Mitigation::None: break;
    }
    return std::nullopt;
}

KernelSpec KernelSpec::bench(BenchmarkId id) {
    KernelSpec spec;
    spec.kind = Kind::Benchmark;
    spec.benchmark = id;
    return spec;
}

KernelSpec KernelSpec::op_stream(ExClass cls, unsigned operand_bits,
                                 std::size_t ops_per_trial,
                                 std::uint64_t operand_seed) {
    KernelSpec spec;
    spec.kind = Kind::OpStream;
    spec.cls = cls;
    spec.operand_bits = operand_bits;
    spec.ops_per_trial = ops_per_trial;
    spec.operand_seed = operand_seed;
    return spec;
}

namespace {

// Bumped whenever the meaning of a stored PointSummary changes (store
// payload layout changes are handled by the store's own version field;
// this salt covers semantic changes in how points are computed).
constexpr std::uint64_t kPointKeyVersion = 1;

void mix_model(Fingerprint& fp, const ModelSpec& model) {
    fp.mix(model.kind);
    fp.mix(model.policy);
    // Only model A's behavior depends on the flip probability; exclude it
    // otherwise so tweaking an unused knob cannot invalidate points.
    if (model.kind == ModelSpec::Kind::A) fp.mix(model.flip_probability);
    // Mitigated panels salt the key with the decorator and only its own
    // live knobs; a bare model mixes nothing here so every store written
    // before mitigations existed keeps its keys.
    if (model.mitigation != ModelSpec::Mitigation::None) {
        fp.mix(std::uint64_t{0x4d49544947415445ull});  // "MITIGATE"
        fp.mix(model.mitigation);
        if (model.mitigation == ModelSpec::Mitigation::Razor) {
            fp.mix(model.razor_coverage);
            fp.mix(model.razor_replay_cycles);
        } else {
            fp.mix(model.cwc_block_bits);
            fp.mix(model.cwc_recovery_cycles);
        }
    }
}

void mix_kernel(Fingerprint& fp, const KernelSpec& kernel) {
    fp.mix(kernel.kind);
    if (kernel.kind == KernelSpec::Kind::Benchmark) {
        fp.mix(kernel.benchmark);
    } else {
        fp.mix(kernel.cls);
        fp.mix(kernel.operand_bits);
        fp.mix(kernel.ops_per_trial);
        fp.mix(kernel.operand_seed);
    }
}

void mix_point(Fingerprint& fp, const OperatingPoint& point) {
    fp.mix(point.freq_mhz);
    fp.mix(point.vdd);
    fp.mix(point.noise.sigma_mv);
    fp.mix(point.noise.clip_sigmas);
}

void mix_grid(Fingerprint& fp, const GridSpec& grid) {
    fp.mix(grid.kind);
    fp.mix(grid.values.size());
    for (const double v : grid.values) fp.mix(v);
    fp.mix(grid.lo);
    fp.mix(grid.hi);
    fp.mix(grid.points);
    fp.mix(grid.below);
    fp.mix(grid.above);
    fp.mix(grid.step);
}

void mix_poff(Fingerprint& fp, const PoffSearchSpec& poff) {
    fp.mix(poff.lo_factor);
    fp.mix(poff.hi_factor);
    fp.mix(poff.tol_mhz);
    fp.mix(poff.max_expand);
}

}  // namespace

const sampling::SamplingPolicy& effective_sampling(const CampaignSpec& campaign,
                                                   const PanelSpec& panel) {
    // OpStream panels always run the fixed trial count (the runner
    // rejects explicit adaptive requests on them), so a campaign-wide
    // adaptive policy must not leak into their point keys — the points
    // are the same physics under any policy.
    static const sampling::SamplingPolicy fixed_n;
    if (panel.kernel.kind != KernelSpec::Kind::Benchmark) return fixed_n;
    return panel.sampling ? *panel.sampling : campaign.sampling;
}

std::uint64_t CampaignSpec::fingerprint() const {
    Fingerprint fp;
    fp.mix(kPointKeyVersion);
    fp.mix(name);
    fp.mix(core_config_fingerprint(core));
    fp.mix(trials);
    fp.mix(seed);
    fp.mix(watchdog_factor);
    fp.mix(sampling.fingerprint());
    fp.mix(panels.size());
    for (const PanelSpec& panel : panels) {
        fp.mix(panel.name);
        mix_kernel(fp, panel.kernel);
        mix_model(fp, panel.model);
        mix_point(fp, panel.base);
        fp.mix(panel.axis);
        mix_grid(fp, panel.grid);
        fp.mix(panel.seed_offset);
        fp.mix(panel.dta_operand_bits.value_or(0xffffffffu));
        fp.mix(panel.core_override ? core_config_fingerprint(*panel.core_override)
                                   : std::uint64_t{0});
        fp.mix(panel.base_freq_sta_factor.value_or(0.0));
        fp.mix(panel.sampling ? panel.sampling->fingerprint()
                              : std::uint64_t{0});
        fp.mix(panel.poff.has_value());
        if (panel.poff) mix_poff(fp, *panel.poff);
    }
    fp.mix(cdf_panels.size());
    for (const CdfPanelSpec& panel : cdf_panels) {
        fp.mix(panel.name);
        fp.mix(panel.curves.size());
        for (const CdfCurveSpec& curve : panel.curves) {
            fp.mix(curve.cls);
            fp.mix(curve.bit);
            fp.mix(curve.vdd);
        }
        mix_grid(fp, panel.grid);
    }
    return fp.value();
}

std::uint64_t point_key(const CampaignSpec& campaign, const PanelSpec& panel,
                        std::uint64_t core_fingerprint,
                        const OperatingPoint& resolved) {
    Fingerprint fp;
    fp.mix(kPointKeyVersion);
    fp.mix(core_fingerprint);
    mix_model(fp, panel.model);
    mix_kernel(fp, panel.kernel);
    fp.mix(panel.dta_operand_bits.value_or(0xffffffffu));
    mix_point(fp, resolved);
    fp.mix(campaign.trials);
    fp.mix(campaign.seed + panel.seed_offset);
    fp.mix(campaign.watchdog_factor);
    // Adaptive policies decide the summary's trial count, so they are
    // part of the point's identity; fixed-N mixes nothing, keeping every
    // pre-adaptive store byte-compatible.
    const sampling::SamplingPolicy& policy = effective_sampling(campaign, panel);
    if (policy.adaptive()) fp.mix(policy.fingerprint());
    return fp.value();
}

}  // namespace sfi::campaign
