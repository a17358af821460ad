#include "fi/mitigation.hpp"

#include <stdexcept>

#include "fi/forensics.hpp"

namespace sfi {

ErrorDetectionModel::ErrorDetectionModel(std::unique_ptr<FaultModel> inner,
                                         RazorConfig config)
    : inner_(std::move(inner)), config_(config) {
    if (!inner_) throw std::invalid_argument("ErrorDetectionModel: null inner");
    if (config_.detection_coverage < 0.0 || config_.detection_coverage > 1.0)
        throw std::invalid_argument("ErrorDetectionModel: coverage out of range");
}

ErrorDetectionModel::ErrorDetectionModel(const ErrorDetectionModel& other)
    : FaultModel(other),
      inner_(other.inner_->clone()),
      config_(other.config_) {}

std::unique_ptr<FaultModel> ErrorDetectionModel::clone() const {
    return std::unique_ptr<FaultModel>(new ErrorDetectionModel(*this));
}

void ErrorDetectionModel::operating_point_changed() {
    inner_->set_operating_point(point_);
}

std::uint32_t ErrorDetectionModel::corrupt(const ExEvent& ev,
                                           std::uint32_t correct) {
    // Drive the inner model through its public entry point so its own
    // statistics (and RNG stream) behave exactly as without mitigation.
    const std::uint32_t result = inner_->on_ex_result(ev, correct);
    if (result == correct) return correct;
    const bool detected = rng_.chance(config_.detection_coverage);
    ++stats_.injections;  // a detected violation still counts as an FI
    if (probe_ != nullptr) probe_->mark_razor(detected);
    return detected ? correct  // replayed: architecturally clean
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

}  // namespace sfi
