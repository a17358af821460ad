#include "fi/mitigation.hpp"

#include <stdexcept>

#include "fi/forensics.hpp"

namespace sfi {

DetectionModel::DetectionModel(std::unique_ptr<FaultModel> inner,
                               const Detector& detector)
    : inner_(std::move(inner)), family_(detector_name(detector)) {
    if (!inner_) throw std::invalid_argument("DetectionModel: null inner");
    if (const auto* razor = std::get_if<RazorConfig>(&detector)) {
        if (razor->detection_coverage < 0.0 || razor->detection_coverage > 1.0)
            throw std::invalid_argument("DetectionModel: coverage out of range");
        coverage_ = razor->detection_coverage;
    } else {
        code_ = CwcCode::for_block_bits(std::get<CwcConfig>(detector).block_bits);
    }
}

DetectionModel::DetectionModel(const DetectionModel& other)
    : FaultModel(other),
      inner_(other.inner_->clone()),
      family_(other.family_),
      coverage_(other.coverage_),
      code_(other.code_) {}

std::unique_ptr<FaultModel> DetectionModel::clone() const {
    return std::unique_ptr<FaultModel>(new DetectionModel(*this));
}

void DetectionModel::reseed(std::uint64_t seed) {
    FaultModel::reseed(seed);
    inner_->reseed(seed ^ (code_ ? 0x43574331ULL     // "CWC1"
                                 : 0x52415a4fULL));  // "RAZO"
}

void DetectionModel::operating_point_changed() {
    inner_->set_operating_point(point_);
}

std::uint32_t DetectionModel::corrupt(const ExEvent& ev,
                                      std::uint32_t correct) {
    // Drive the inner model through its public entry point so its own
    // statistics (and RNG stream) behave exactly as without mitigation.
    const std::uint32_t result = inner_->on_ex_result(ev, correct);
    if (result == correct) return correct;
    const bool detected = rng_.chance(
        code_ ? cwc_detect_probability(*code_, correct, result) : coverage_);
    ++stats_.injections;  // a detected violation still counts as an FI
    if (probe_ != nullptr) {
        if (code_)
            probe_->mark_detector(detected, kCwcDetected, kCwcEscaped);
        else
            probe_->mark_detector(detected, kRazorDetected, kRazorEscaped);
    }
    return detected ? correct  // replayed or recomputed: architecturally clean
                    : result;
}

double DetectorCost::effective_mhz(double f_mhz, std::uint64_t kernel_cycles,
                                   double detections) const {
    const double derated = f_mhz / (1.0 + latency_frac);
    const double k = static_cast<double>(kernel_cycles);
    const double total = k + detections * penalty_cycles;
    return total > 0.0 ? derated * (k / total) : derated;
}

DetectorCost razor_cost(const RazorConfig& config) {
    DetectorCost cost;
    cost.energy_frac = 0.03;  // Ernst et al.: ~3 % total power, Razor I
    cost.penalty_cycles = config.replay_penalty_cycles;
    return cost;
}

DetectorCost cwc_cost(const CwcConfig& config) {
    const CwcCode code = CwcCode::for_block_bits(config.block_bits);
    const double check_bits = static_cast<double>(code.n - code.k);
    DetectorCost cost;
    cost.latency_frac = 0.01 * check_bits;
    cost.energy_frac = 0.5 * check_bits / static_cast<double>(code.k);
    cost.penalty_cycles = config.recovery_penalty_cycles;
    return cost;
}

DetectorCost detector_cost(const Detector& detector) {
    if (const auto* razor = std::get_if<RazorConfig>(&detector))
        return razor_cost(*razor);
    return cwc_cost(std::get<CwcConfig>(detector));
}

std::string detector_name(const Detector& detector) {
    if (std::holds_alternative<RazorConfig>(detector)) return "razor";
    return "cwc" + std::to_string(std::get<CwcConfig>(detector).block_bits);
}

}  // namespace sfi
