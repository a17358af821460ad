// Built-in CampaignSpecs for the paper's figure panels (Figs. 1, 2, 4-7)
// and the Monte-Carlo ablation studies. Each factory takes the shared
// core configuration plus the Monte-Carlo knobs; `trials = 0` selects the
// figure's default trial count.
//
// `sfi_campaign --figures <name>` is the one driver for every spec here:
// CampaignRunner renders each panel's console report (titles carry the
// paper's anchors as static text), and EXPERIMENTS.md lists the shapes
// each figure is expected to show. Titles are presentation only — they
// stay out of the spec fingerprint and the point keys.
#pragma once

#include <string>
#include <vector>

#include "campaign/spec.hpp"

namespace sfi::campaign::figures {

CampaignSpec fig1(const CoreModelConfig& core, std::size_t trials = 0,
                  std::uint64_t seed = 1);
CampaignSpec fig2(const CoreModelConfig& core);
CampaignSpec fig4(const CoreModelConfig& core, std::size_t trials = 0,
                  std::uint64_t seed = 1);
CampaignSpec fig5(const CoreModelConfig& core, std::size_t trials = 0,
                  std::uint64_t seed = 1);
CampaignSpec fig6(const CoreModelConfig& core, std::size_t trials = 0,
                  std::uint64_t seed = 1);
CampaignSpec fig7(const CoreModelConfig& core, std::size_t trials = 0,
                  std::uint64_t seed = 1);
CampaignSpec ablation_adder(const CoreModelConfig& core, std::size_t trials = 0,
                            std::uint64_t seed = 1);
CampaignSpec ablation_compression(const CoreModelConfig& core,
                                  std::size_t trials = 0,
                                  std::uint64_t seed = 1);
CampaignSpec ablation_noise_clip(const CoreModelConfig& core,
                                 std::size_t trials = 0,
                                 std::uint64_t seed = 1);
CampaignSpec ablation_policy(const CoreModelConfig& core,
                             std::size_t trials = 0, std::uint64_t seed = 1);

/// Names accepted by make_figure (and `sfi_campaign --figures`).
const std::vector<std::string>& figure_names();

/// Factory by name; throws std::invalid_argument for unknown names.
CampaignSpec make_figure(const std::string& name, const CoreModelConfig& core,
                         std::size_t trials = 0, std::uint64_t seed = 1);

}  // namespace sfi::campaign::figures
