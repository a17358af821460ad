#include "fi/core_model.hpp"

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>

#include "util/fingerprint.hpp"

namespace sfi {

// Hashes the numeric configuration knobs that affect the DTA result.
// Changing any of them invalidates a CDF cache (and every campaign point
// computed against the old characterization).
std::uint64_t core_config_fingerprint(const CoreModelConfig& config) {
    Fingerprint fp;
    fp.mix(config.alu.adder);
    fp.mix(config.alu.operand_isolation);
    fp.mix(config.lib.load_per_fanout);
    fp.mix(config.lib.process_sigma);
    fp.mix(config.lib.process_seed);
    fp.mix(config.lib.ff_setup_ps);
    fp.mix(config.lib.cell_alpha_spread);
    fp.mix(config.lib.vdd.vref);
    fp.mix(config.lib.vdd.vth);
    fp.mix(config.lib.vdd.alpha);
    fp.mix(config.calibration.vdd);
    fp.mix(config.calibration.compression);
    fp.mix(config.calibration.mul_period_ps);
    fp.mix(config.calibration.add_period_ps);
    fp.mix(config.calibration.shift_period_ps);
    fp.mix(config.calibration.logic_period_ps);
    fp.mix(config.dta.cycles);
    fp.mix(config.dta.seed);
    fp.mix(config.dta.clk_to_q_ps);
    fp.mix(config.dta.operand_bits);
    // The sampling mode is mixed ONLY for the quantized ("B-q") variant:
    // Batched reproduces the one-draw-per-op reference stream that every
    // stored point was computed with, so it keeps the pre-existing,
    // unsalted key. Quantized draws a different stream — separating its
    // fingerprint keeps old point stores from ever colliding with it.
    // (Side effect, deliberate: a quantized run also re-keys the CDF
    // cache. Conservative — the characterization itself is unchanged —
    // but it guarantees the store/cache key split stays in lock-step.)
    if (config.fault_sampling == FaultSamplingMode::Quantized)
        fp.mix(std::uint64_t{0x712d76617269616eULL});  // 'q-varian' salt
    return fp.value();
}

namespace {

// Writes the cache file as a whole or not at all: the bytes go to a temp
// file next to `path`, which then replaces it by rename(). A process that
// opened the old file keeps reading the old file to its end; one that
// opens `path` afterwards reads the new file — never a truncated or mixed
// one. A failed write leaves the old file in place and removes the temp.
void write_cache(const std::string& path, std::uint64_t fingerprint,
                 const TimingErrorCdfs& cdfs) {
    static std::atomic<std::uint64_t> writes{0};
    const std::string tmp = path + ".tmp." + std::to_string(::getpid()) +
                            "." + std::to_string(writes++);
    bool written = false;
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (os) {
            os.write(reinterpret_cast<const char*>(&fingerprint),
                     sizeof fingerprint);
            cdfs.save(os);
            os.close();
            written = !os.fail();
        }
    }
    std::error_code ec;
    if (written) std::filesystem::rename(tmp, path, ec);
    if (!written || ec) std::filesystem::remove(tmp, ec);
}

}  // namespace

CharacterizedCore::CharacterizedCore(CoreModelConfig config,
                                     perf::PhaseProfile* profile)
    : config_(std::move(config)),
      alu_(build_alu(config_.alu)),
      lib_(config_.lib),
      timing_(alu_.netlist, lib_) {
    calibration_ = calibrate_alu(alu_, timing_, config_.calibration);
    sta_ = endpoint_worst_sta(alu_, timing_);

    const std::uint64_t fingerprint = core_config_fingerprint(config_);
    bool loaded = false;
    if (!config_.cdf_cache_path.empty() &&
        std::filesystem::exists(config_.cdf_cache_path)) {
        std::ifstream is(config_.cdf_cache_path, std::ios::binary);
        std::uint64_t stored = 0;
        is.read(reinterpret_cast<char*>(&stored), sizeof stored);
        if (is && stored == fingerprint) {
            try {
                cdfs_ = std::make_shared<TimingErrorCdfs>(TimingErrorCdfs::load(is));
                loaded = true;
            } catch (const std::exception&) {
                loaded = false;  // corrupt cache: recharacterize
            }
        }
    }
    if (!loaded) {
        const DtaResult dta = run_dta(alu_, timing_, config_.dta, profile);
        cdfs_ = std::make_shared<TimingErrorCdfs>(TimingErrorCdfs::from_dta(dta));
        if (!config_.cdf_cache_path.empty())
            write_cache(config_.cdf_cache_path, fingerprint, *cdfs_);
    }
}

double CharacterizedCore::sta_fmax_mhz(double vdd) const {
    return sta_.fmax_mhz(lib_.fit().factor(vdd));
}

double CharacterizedCore::dynamic_fmax_mhz(ExClass cls, double vdd) const {
    const double window = cdfs_->class_max_window_ps(cls);
    return 1.0e6 / (window * lib_.fit().factor(vdd));
}

std::unique_ptr<ModelA> CharacterizedCore::make_model_a(
    double flip_probability) const {
    return std::make_unique<ModelA>(flip_probability);
}

std::unique_ptr<ModelB> CharacterizedCore::make_model_b() const {
    auto model = std::make_unique<ModelB>(sta_, lib_.fit());
    model->set_sampling_mode(config_.fault_sampling);
    return model;
}

std::unique_ptr<ModelC> CharacterizedCore::make_model_c() const {
    auto model = std::make_unique<ModelC>(cdfs_, lib_.fit());
    model->set_sampling_mode(config_.fault_sampling);
    return model;
}

}  // namespace sfi
