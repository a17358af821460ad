#include "campaign/figures.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

namespace sfi::campaign::figures {

namespace {

std::string fmt(const char* format, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, format, value);
    return buf;
}

CampaignSpec base_spec(std::string name, const CoreModelConfig& core,
                       std::size_t trials, std::size_t default_trials,
                       std::uint64_t seed) {
    CampaignSpec spec;
    spec.name = std::move(name);
    spec.core = core;
    spec.trials = trials ? trials : default_trials;
    spec.seed = seed;
    return spec;
}

/// The ablation studies characterize variant cores with a clamped DTA
/// kernel (full-length re-characterization per variant would dominate).
CoreModelConfig ablation_core(CoreModelConfig config) {
    config.dta.cycles = std::min<std::size_t>(config.dta.cycles, 4096);
    return config;
}

/// Gives a variant core its own CDF cache file, derived from the base
/// cache path and the config fingerprint. The historical benches simply
/// cleared the path (distinct configs would thrash one file), which made
/// every warm ablation re-run pay full DTA again; per-fingerprint names
/// keep warm campaigns warm. Apply this AFTER all config overrides.
CoreModelConfig with_fingerprint_cache(CoreModelConfig config) {
    if (config.cdf_cache_path.empty()) return config;
    char suffix[20];
    std::snprintf(suffix, sizeof suffix, "_%016llx",
                  static_cast<unsigned long long>(
                      core_config_fingerprint(config)));
    // Suffix the file *stem* only — a dot in a directory component
    // ("caches/v1.0/cdf.bin") must not be touched.
    std::filesystem::path path(config.cdf_cache_path);
    std::filesystem::path name = path.stem();
    name += suffix;
    name += path.extension();
    config.cdf_cache_path = (path.parent_path() / name).string();
    return config;
}

}  // namespace

CampaignSpec fig1(const CoreModelConfig& core, std::size_t trials,
                  std::uint64_t seed) {
    CampaignSpec spec = base_spec("fig1", core, trials, 100, seed);
    // The paper's model B/B+ thresholds, in panel order.
    const char* const paper_thresholds_mhz[] = {"707", "661", "588"};
    std::size_t index = 0;
    for (const double sigma : {0.0, 10.0, 25.0}) {
        PanelSpec panel;
        panel.name = "fig1_sigma" + fmt("%.0f", sigma);
        panel.title = "Fig. 1 model " + std::string(sigma > 0.0 ? "B+" : "B") +
                      "  (Vdd = 0.7 V, sigma = " + fmt("%.0f", sigma) +
                      " mV), paper threshold " + paper_thresholds_mhz[index++] +
                      " MHz";
        panel.kernel = KernelSpec::bench(BenchmarkId::Median);
        panel.model = ModelSpec::b();
        panel.base.vdd = 0.7;
        panel.base.noise.sigma_mv = sigma;
        panel.grid = GridSpec::first_fault_window(1.5, 3.5, 0.5);
        spec.panels.push_back(std::move(panel));
    }
    return spec;
}

CampaignSpec fig2(const CoreModelConfig& core) {
    CampaignSpec spec = base_spec("fig2", core, 1, 1, 1);
    CdfPanelSpec panel;
    panel.name = "fig2_cdfs";
    panel.title = "Fig. 2: timing-error-probability CDFs from DTA";
    for (const ExClass cls : {ExClass::Add, ExClass::Mul})
        for (const std::size_t bit : {std::size_t{3}, std::size_t{24}})
            for (const double vdd : {0.7, 0.8})
                panel.curves.push_back({cls, bit, vdd});
    panel.grid = GridSpec::linspace(600.0, 2400.0, 37);
    spec.cdf_panels.push_back(std::move(panel));
    return spec;
}

CampaignSpec fig4(const CoreModelConfig& core, std::size_t trials,
                  std::uint64_t seed) {
    CampaignSpec spec = base_spec("fig4", core, trials, 100, seed);
    struct Series {
        const char* name;
        ExClass cls;
        unsigned operand_bits;
        const char* paper_poff_mhz;
    };
    // l.mul 32-bit: 16-bit operands with a full 32-bit result.
    const Series series[] = {
        {"fig4_add16", ExClass::Add, 16, "877"},
        {"fig4_add32", ExClass::Add, 32, "746"},
        {"fig4_mul32", ExClass::Mul, 16, "685"},
    };
    std::uint64_t index = 0;
    for (const Series& s : series) {
        PanelSpec panel;
        panel.name = s.name;
        panel.title = std::string("Fig. 4 ") + ex_class_name(s.cls) +
                      " stream, " + std::to_string(s.operand_bits) +
                      "-bit operands (Vdd = 0.7 V, sigma = 10 mV), paper "
                      "PoFF " + s.paper_poff_mhz + " MHz";
        // The paper's isolated instruction streams: raw ALU operations
        // through model C, with an operand-profile-conditioned DTA
        // characterization per series.
        panel.kernel = KernelSpec::op_stream(s.cls, s.operand_bits, 2048,
                                             0xF164000ULL + index);
        panel.model = ModelSpec::c();
        panel.dta_operand_bits = s.operand_bits;
        panel.seed_offset = index;
        panel.base.vdd = 0.7;
        panel.base.noise.sigma_mv = 10.0;
        panel.grid = GridSpec::linspace(650.0, 1250.0, 25);
        panel.error_label = "MSE";
        spec.panels.push_back(std::move(panel));
        ++index;
    }
    return spec;
}

CampaignSpec fig5(const CoreModelConfig& core, std::size_t trials,
                  std::uint64_t seed) {
    CampaignSpec spec = base_spec("fig5", core, trials, 100, seed);
    // The paper's PoFF gains over STA, in panel order.
    const char* const paper_gains[] = {"+11.4%", "+3.3%", "none",
                                       "+10.1%", "+6.9%", "+0.1%"};
    std::size_t index = 0;
    for (const double vdd : {0.7, 0.8}) {
        for (const double sigma : {0.0, 10.0, 25.0}) {
            PanelSpec panel;
            panel.name =
                "fig5_v" + fmt("%.1f", vdd) + "_s" + fmt("%.0f", sigma);
            panel.title = "Fig. 5  Vdd = " + fmt("%.1f", vdd) +
                          " V  noise sigma = " + fmt("%.0f", sigma) +
                          " mV, paper PoFF gain " + paper_gains[index++];
            panel.kernel = KernelSpec::bench(BenchmarkId::Median);
            panel.model = ModelSpec::c();
            panel.base.vdd = vdd;
            panel.base.noise.sigma_mv = sigma;
            // The reliable->unreliable transition region: from below the
            // noisy first-fault point to well past total failure.
            panel.grid = GridSpec::sta_linspace(0.92, 1.45, 22);
            spec.panels.push_back(std::move(panel));
        }
    }
    return spec;
}

CampaignSpec fig6(const CoreModelConfig& core, std::size_t trials,
                  std::uint64_t seed) {
    CampaignSpec spec = base_spec("fig6", core, trials, 100, seed);
    struct Panel {
        BenchmarkId id;
        double lo, hi;
        std::size_t points;
    };
    const Panel panels[] = {
        {BenchmarkId::MatMult8, 0.97, 1.30, 18},
        {BenchmarkId::MatMult16, 0.97, 1.30, 18},
        {BenchmarkId::KMeans, 0.97, 1.35, 18},
        {BenchmarkId::Dijkstra, 0.99, 1.22, 20},  // narrow: higher resolution
    };
    for (const Panel& p : panels) {
        PanelSpec panel;
        panel.name = std::string("fig6_") + benchmark_name(p.id);
        panel.title = std::string("Fig. 6  ") + benchmark_name(p.id) +
                      "  (Vdd = 0.7 V, sigma = 10 mV)";
        panel.kernel = KernelSpec::bench(p.id);
        panel.model = ModelSpec::c();
        panel.base.vdd = 0.7;
        panel.base.noise.sigma_mv = 10.0;
        panel.grid = GridSpec::sta_linspace(p.lo, p.hi, p.points);
        panel.error_label = make_benchmark(p.id)->error_unit();
        spec.panels.push_back(std::move(panel));
    }
    return spec;
}

CampaignSpec fig7(const CoreModelConfig& core, std::size_t trials,
                  std::uint64_t seed) {
    CampaignSpec spec = base_spec("fig7", core, trials, 100, seed);
    for (const double sigma : {0.0, 10.0, 25.0}) {
        PanelSpec panel;
        panel.name = "fig7_s" + fmt("%.0f", sigma);
        panel.title = "Fig. 7  sigma = " + fmt("%.0f", sigma) +
                      " mV (median @ f_STA(0.7 V), voltage sweep), paper: " +
                      (sigma > 10.0 ? "most of the power saving eroded"
                                    : "PoFF at 0.93x power (0.667 V), 22 % "
                                      "error at 0.88x power (0.657 V)");
        panel.kernel = KernelSpec::bench(BenchmarkId::Median);
        panel.model = ModelSpec::c();
        panel.base.vdd = 0.7;
        panel.base.noise.sigma_mv = sigma;
        panel.base_freq_sta_factor = 1.0;  // pinned to the nominal STA limit
        panel.axis = Axis::Voltage;
        panel.grid = GridSpec::linspace(0.640, 0.7, 16);
        spec.panels.push_back(std::move(panel));
    }
    return spec;
}

CampaignSpec ablation_adder(const CoreModelConfig& core, std::size_t trials,
                            std::uint64_t seed) {
    CampaignSpec spec = base_spec("ablation_adder", core, trials, 60, seed);
    spec.core = with_fingerprint_cache(ablation_core(core));
    for (const AdderKind kind : {AdderKind::KoggeStone, AdderKind::RippleCarry}) {
        const char* name =
            kind == AdderKind::KoggeStone ? "kogge_stone" : "ripple_carry";
        PanelSpec panel;
        panel.name = std::string("ablation_adder_") + name;
        panel.title = std::string("median under model C, adder = ") + name +
                      ", paper median PoFF gain at sigma = 0: +11.4%";
        panel.kernel = KernelSpec::bench(BenchmarkId::Median);
        panel.model = ModelSpec::c();
        panel.base.vdd = 0.7;
        CoreModelConfig override_config = ablation_core(core);
        override_config.alu.adder = kind;
        panel.core_override = with_fingerprint_cache(override_config);
        panel.grid = GridSpec::sta_linspace(1.0, 1.6, 14);
        spec.panels.push_back(std::move(panel));
    }
    return spec;
}

CampaignSpec ablation_compression(const CoreModelConfig& core,
                                  std::size_t trials, std::uint64_t seed) {
    CampaignSpec spec =
        base_spec("ablation_compression", core, trials, 60, seed);
    spec.core = with_fingerprint_cache(ablation_core(core));
    for (const double kappa : {0.0, 0.35, 0.8}) {
        PanelSpec panel;
        panel.name = "ablation_compression_k" + fmt("%.2f", kappa);
        panel.title = "median under model C, compression = " +
                      fmt("%.2f", kappa) +
                      ", paper median PoFF gain at sigma = 10 mV: +3.3%";
        panel.kernel = KernelSpec::bench(BenchmarkId::Median);
        panel.model = ModelSpec::c();
        panel.base.vdd = 0.7;
        panel.base.noise.sigma_mv = 10.0;
        CoreModelConfig override_config = ablation_core(core);
        override_config.calibration.compression = kappa;
        panel.core_override = with_fingerprint_cache(override_config);
        panel.grid = GridSpec::sta_linspace(0.98, 1.35, 10);
        spec.panels.push_back(std::move(panel));
    }
    return spec;
}

CampaignSpec ablation_noise_clip(const CoreModelConfig& core,
                                 std::size_t trials, std::uint64_t seed) {
    CampaignSpec spec =
        base_spec("ablation_noise_clip", core, trials, 80, seed);
    for (const double clip : {1.0, 2.0, 3.0, 4.0}) {
        PanelSpec panel;
        panel.name = "ablation_noise_clip_c" + fmt("%.0f", clip);
        panel.title = "median under model C at f_STA, clip = " +
                      fmt("%.0f", clip) + " sigma";
        panel.kernel = KernelSpec::bench(BenchmarkId::Median);
        panel.model = ModelSpec::c();
        panel.base.vdd = 0.7;
        panel.base.noise.sigma_mv = 25.0;
        panel.base.noise.clip_sigmas = clip;
        panel.grid = GridSpec::sta_linspace(1.0, 1.0, 1);  // single point
        spec.panels.push_back(std::move(panel));
    }
    return spec;
}

CampaignSpec ablation_policy(const CoreModelConfig& core, std::size_t trials,
                             std::uint64_t seed) {
    CampaignSpec spec = base_spec("ablation_policy", core, trials, 80, seed);
    for (const BenchmarkId id : {BenchmarkId::KMeans, BenchmarkId::Median}) {
        for (const FaultPolicy policy :
             {FaultPolicy::BitFlip, FaultPolicy::StaleCapture}) {
            const char* policy_name =
                policy == FaultPolicy::BitFlip ? "bitflip" : "stale";
            PanelSpec panel;
            panel.name = std::string("ablation_policy_") + benchmark_name(id) +
                         "_" + policy_name;
            panel.title = std::string(benchmark_name(id)) + " under model C, " +
                          policy_name + " policy";
            panel.kernel = KernelSpec::bench(id);
            panel.model = ModelSpec::c();
            panel.model.policy = policy;
            panel.base.vdd = 0.7;
            panel.base.noise.sigma_mv = 10.0;
            panel.grid = GridSpec::sta_linspace(1.00, 1.15, 4);
            panel.error_label = make_benchmark(id)->error_unit();
            spec.panels.push_back(std::move(panel));
        }
    }
    return spec;
}

const std::vector<std::string>& figure_names() {
    static const std::vector<std::string> names = {
        "fig1",          "fig2",
        "fig4",          "fig5",
        "fig6",          "fig7",
        "ablation_adder", "ablation_compression",
        "ablation_noise_clip", "ablation_policy",
    };
    return names;
}

CampaignSpec make_figure(const std::string& name, const CoreModelConfig& core,
                         std::size_t trials, std::uint64_t seed) {
    if (name == "fig1") return fig1(core, trials, seed);
    if (name == "fig2") return fig2(core);
    if (name == "fig4") return fig4(core, trials, seed);
    if (name == "fig5") return fig5(core, trials, seed);
    if (name == "fig6") return fig6(core, trials, seed);
    if (name == "fig7") return fig7(core, trials, seed);
    if (name == "ablation_adder") return ablation_adder(core, trials, seed);
    if (name == "ablation_compression")
        return ablation_compression(core, trials, seed);
    if (name == "ablation_noise_clip")
        return ablation_noise_clip(core, trials, seed);
    if (name == "ablation_policy") return ablation_policy(core, trials, seed);
    throw std::invalid_argument("unknown figure campaign: " + name);
}

}  // namespace sfi::campaign::figures
