#include "fi/models.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "fi/forensics.hpp"

namespace sfi {

// ---------------------------------------------------------------------------
// FaultModel base
// ---------------------------------------------------------------------------

void FaultModel::set_operating_point(const OperatingPoint& point) {
    // Hot-path memoization: run_trial_with re-applies the same point once
    // per trial; rebuilding the derived state (noise-window tables, ~1k
    // Vdd-fit evaluations) only when the point actually moves keeps that
    // out of the trial kernel. Derived state is a pure function of
    // (point_, const characterization data), so skipping is exact.
    if (point_applied_ && point == point_) return;
    point_ = point;
    point_applied_ = true;
    operating_point_changed();
}

void FaultModel::on_cycle(bool fi_active) {
    if (fi_active) ++stats_.fi_cycles;
}

void FaultModel::on_cycles(std::uint64_t n, bool fi_active) {
    if (fi_active) stats_.fi_cycles += n;
}

std::uint32_t FaultModel::on_ex_result(const ExEvent& ev, std::uint32_t correct) {
    ++stats_.alu_ops;
    if (probe_ != nullptr) probe_->begin_op(ev);
    const std::uint64_t before = stats_.injections;
    const std::uint32_t result = corrupt(ev, correct);
    if (stats_.injections != before) ++stats_.corrupted_ops;
    return result;
}

std::uint32_t FaultModel::apply_fault(std::uint32_t value, std::uint32_t endpoint,
                                      std::uint32_t prev_result) {
    ++stats_.injections;
    const std::uint32_t mask = 1u << endpoint;
    std::uint32_t result = value;
    switch (policy_) {
        case FaultPolicy::BitFlip:
            result = value ^ mask;
            break;
        case FaultPolicy::StaleCapture:
            result = (value & ~mask) | (prev_result & mask);
            break;
    }
    if (probe_ != nullptr)
        probe_->record_injection(endpoint, (value & mask) != 0,
                                 (result & mask) != 0, policy_);
    return result;
}

std::vector<double> build_noise_window_table(const OperatingPoint& point,
                                             const VddDelayFit& fit,
                                             std::size_t entries) {
    assert(entries >= 2);
    const double clip_v = point.noise.clip_sigmas * point.noise.sigma_mv * 1e-3;
    std::vector<double> table(entries);
    const double period = point.period_ps();
    for (std::size_t i = 0; i < entries; ++i) {
        const double noise =
            -clip_v + 2.0 * clip_v * static_cast<double>(i) /
                          static_cast<double>(entries - 1);
        table[i] = period / fit.factor(point.vdd + noise);
    }
    return table;
}

// ---------------------------------------------------------------------------
// Model A
// ---------------------------------------------------------------------------

ModelA::ModelA(double flip_probability) : p_(flip_probability) {
    if (p_ < 0.0 || p_ > 1.0)
        throw std::invalid_argument("ModelA: probability out of range");
}

ModelFeatures ModelA::features() const {
    return {"fixed probability", "none", false, false, "no", false};
}

std::uint32_t ModelA::corrupt(const ExEvent& ev, std::uint32_t correct) {
    std::uint32_t result = correct;
    for (std::uint32_t endpoint = 0; endpoint < 32; ++endpoint)
        if (rng_.chance(p_))
            result = apply_fault(result, endpoint, ev.prev_result);
    return result;
}

// ---------------------------------------------------------------------------
// The noise-modulated capture-window stage (models B, B+ and C)
// ---------------------------------------------------------------------------

void NoiseModulatedModel::operating_point_changed() {
    base_window_ps_ = point_.period_ps() / fit_->factor(point_.vdd);
    noise_window_table_ = point_.noise.sigma_mv > 0.0
                              ? build_noise_window_table(point_, *fit_)
                              : std::vector<double>{};
    noise_clip_mv_ = point_.noise.clip_sigmas * point_.noise.sigma_mv;
    noise_clip_v_ = noise_clip_mv_ * 1e-3;
    min_window_ps_ =
        noise_window_table_.empty()
            ? base_window_ps_
            : *std::min_element(noise_window_table_.begin(),
                                noise_window_table_.end());
}

bool NoiseModulatedModel::refresh_row_masses() {
    const std::size_t rows = sampling_mode_ == FaultSamplingMode::Quantized
                                 ? noise_window_table_.size()
                                 : 0;
    if (rows == masses_rows_ && point_.noise.sigma_mv == masses_sigma_mv_ &&
        noise_clip_mv_ == masses_clip_mv_)
        return false;
    masses_rows_ = rows;
    masses_sigma_mv_ = point_.noise.sigma_mv;
    masses_clip_mv_ = noise_clip_mv_;
    row_masses_ = rows == 0 ? std::vector<double>{}
                            : noise_index_masses(point_.noise.sigma_mv,
                                                 noise_clip_mv_, rows);
    return true;
}

double NoiseModulatedModel::first_fault_mhz(double window_ps) const {
    // Violation when period / factor < window  =>  f > 1e6/(window*factor),
    // with the factor at the maximum clipped negative noise excursion.
    return 1.0e6 / (window_ps * fit_->factor(point_.vdd - noise_clip_v_));
}

// ---------------------------------------------------------------------------
// Models B / B+
// ---------------------------------------------------------------------------

ModelB::ModelB(StaResult sta, const VddDelayFit& fit) : NoiseModulatedModel(fit) {
    window_ps_.resize(sta.endpoint_ps.size());
    for (std::size_t e = 0; e < window_ps_.size(); ++e)
        window_ps_[e] = sta.endpoint_ps[e] + sta.setup_ps;
    order_.resize(window_ps_.size());
    std::iota(order_.begin(), order_.end(), 0u);
    std::sort(order_.begin(), order_.end(),
              [&](std::uint32_t lhs, std::uint32_t rhs) {
                  return window_ps_[lhs] > window_ps_[rhs];
              });
    worst_window_ps_ =
        window_ps_.empty() ? 0.0
                           : *std::max_element(window_ps_.begin(), window_ps_.end());
    // Cumulative fault masks for the batched path: cum_mask_[k] is the
    // union of the first k (most critical) endpoints of order_. The
    // endpoints are distinct bits, so applying them one at a time —
    // XOR-flipping or stale-capturing each — equals one masked apply.
    assert(order_.size() <= 255);  // violation counts live in uint8_t
    cum_mask_.resize(order_.size() + 1);
    cum_mask_[0] = 0;
    for (std::size_t k = 0; k < order_.size(); ++k)
        cum_mask_[k + 1] = cum_mask_[k] | (1u << order_[k]);
    operating_point_changed();
}

std::string ModelB::name() const {
    if (point_.noise.sigma_mv <= 0.0) return "B";
    // The alias-sampled variant is a statistically-equivalent but not
    // bit-identical stream; it is reported (and fingerprinted) as its
    // own model so stored results never mix with exact B+ runs.
    return sampling_mode_ == FaultSamplingMode::Quantized ? "B-q" : "B+";
}

ModelFeatures ModelB::features() const {
    if (point_.noise.sigma_mv > 0.0)
        return {"modulated period violation", "STA", true, true, "partially", false};
    return {"fixed period violation", "STA", true, false, "partially", false};
}

void ModelB::operating_point_changed() {
    NoiseModulatedModel::operating_point_changed();
    // Violation-count tables: for every window the model can ever see
    // (each table entry, plus the no-noise window) the number of injected
    // endpoints is a pure function of the window — the count of leading
    // order_ entries with window_ps_ > window, exactly the break condition
    // of the reference per-endpoint walk. Precomputing it turns corrupt()
    // into one count load and one cum_mask_ apply.
    const auto leading_violations = [&](double window) {
        std::uint8_t count = 0;
        for (const std::uint32_t endpoint : order_) {
            if (window_ps_[endpoint] <= window) break;
            ++count;
        }
        return count;
    };
    base_violation_count_ = leading_violations(base_window_ps_);
    violation_count_.resize(noise_window_table_.size());
    std::size_t safe_row = 0;  // every row from here up injects nothing
    for (std::size_t i = 0; i < noise_window_table_.size(); ++i) {
        violation_count_[i] = leading_violations(noise_window_table_[i]);
        if (violation_count_[i] != 0) safe_row = i + 1;
    }
    pretest_ = SafeRowPretest(safe_row, point_.noise.sigma_mv, noise_clip_mv_,
                              noise_clip_v_, violation_count_.size());
    sampling_mode_changed();
}

void ModelB::sampling_mode_changed() {
    // B-q's sampler: the window index only ever feeds violation_count_,
    // so quantized mode aliases the pushforward of the index masses
    // through that table and samples the count directly — a <= 33-entry
    // L1-resident table instead of a 1025-entry index alias.
    refresh_row_masses();
    count_alias_ = AliasTable{};
    const std::vector<double>& masses = row_masses_;
    if (!masses.empty()) {
        std::vector<double> count_mass(order_.size() + 1, 0.0);
        for (std::size_t i = 0; i < masses.size(); ++i)
            count_mass[violation_count_[i]] += masses[i];
        count_alias_ = build_alias_from_masses(count_mass);
    }
}

std::uint32_t ModelB::corrupt(const ExEvent& ev, std::uint32_t correct) {
    // The window never leaves integer space: the precomputed violation
    // count selects a cumulative mask that applies all violating
    // endpoints at once. Batched takes the reference draw on demand, as
    // its polar half, exactly as model C does: the same uniforms as the
    // one-draw-per-op reference walk (tests/testing/reference_model_b.hpp),
    // and most draws near the first fault are settled by the pretest
    // before the half's factor and row. Quantized samples the count
    // directly from the count alias (2 raw u64 draws, not bit-identical:
    // the "B-q" variant).
    std::size_t count;
    if (noise_window_table_.empty()) {
        count = base_violation_count_;
    } else if (sampling_mode_ == FaultSamplingMode::Quantized) {
        count = count_alias_.sample(rng_);
    } else {
        const Rng::PolarHalf half = rng_.polar_half();
        if (pretest_.passes(half)) return correct;
        count = violation_count_[noise_row(half)];
    }
    if (count == 0) return correct;
    return apply_leading_faults(count, correct, ev.prev_result);
}

std::uint32_t ModelB::apply_leading_faults(std::size_t count,
                                           std::uint32_t correct,
                                           std::uint32_t prev_result) {
    // Equivalent to `count` successive apply_fault calls on the leading
    // endpoints of order_: the endpoints are distinct bits, so BitFlip
    // XORs compose into one XOR of the union mask and StaleCapture's
    // per-bit splice composes into one masked merge.
    if (probe_ != nullptr) {
        // Forensics needs one record per endpoint, so a probed trial takes
        // the per-endpoint walk the mask apply composes from. Same result,
        // same statistics, no draws consumed either way — the probed trial
        // stays bit-identical to the unprobed one.
        std::uint32_t result = correct;
        for (std::size_t k = 0; k < count; ++k)
            result = apply_fault(result, order_[k], prev_result);
        return result;
    }
    stats_.injections += count;
    const std::uint32_t mask = cum_mask_[count];
    switch (policy_) {
        case FaultPolicy::BitFlip:
            return correct ^ mask;
        case FaultPolicy::StaleCapture:
            return (correct & ~mask) | (prev_result & mask);
    }
    return correct;
}

// ---------------------------------------------------------------------------
// Model C
// ---------------------------------------------------------------------------

ModelC::ModelC(std::shared_ptr<const TimingErrorCdfs> cdfs, const VddDelayFit& fit)
    : NoiseModulatedModel(fit), cdfs_(std::move(cdfs)) {
    if (!cdfs_) throw std::invalid_argument("ModelC: null CDF store");
    worst_window_ps_ = cdfs_->max_window_ps();
    operating_point_changed();
}

ModelFeatures ModelC::features() const {
    return {"probabilistic period violation (using CDFs)", "DTA", true, true,
            "yes", true};
}

void ModelC::operating_point_changed() {
    NoiseModulatedModel::operating_point_changed();
    samples_ = static_cast<double>(cdfs_->samples_per_endpoint());
    // Hoist the per-class store lookups (corrupt() runs once per ALU op
    // and the store is immutable) and lay out the count memo. A class
    // needs memo rows up to the last window row it can violate, and ranks
    // for the endpoints that violate the smallest reachable window: the
    // walk breaks before any other endpoint, whatever the row.
    const std::size_t rows =
        noise_window_table_.empty() ? 1 : noise_window_table_.size();
    const auto row_window = [&](std::size_t row) {
        return noise_window_table_.empty() ? base_window_ps_
                                           : noise_window_table_[row];
    };
    std::size_t memo_size = 0;
    for (std::size_t i = 0; i < kExClassCount; ++i) {
        const ExClass cls = static_cast<ExClass>(i);
        ClassView& view = class_view_[i];
        view = ClassView{};
        view.present = cdfs_->has_class(cls);
        if (!view.present) continue;
        view.max_window_ps = cdfs_->class_max_window_ps(cls);
        const std::vector<std::uint32_t>& order =
            cdfs_->endpoints_by_criticality(cls);
        view.order = order.data();
        view.endpoint_max_window_ps = cdfs_->endpoint_max_windows_ps(cls).data();
        std::size_t violating_rows = 0;
        for (std::size_t row = 0; row < rows; ++row)
            if (row_window(row) < view.max_window_ps) violating_rows = row + 1;
        while (view.ranks < order.size() &&
               view.endpoint_max_window_ps[order[view.ranks]] > min_window_ps_)
            ++view.ranks;
        view.memo_offset = memo_size;
        memo_size += violating_rows * view.ranks;
        // Every row from violating_rows up is one where the class cannot
        // violate.
        if (!noise_window_table_.empty())
            view.pretest =
                SafeRowPretest(violating_rows, point_.noise.sigma_mv,
                               noise_clip_mv_, noise_clip_v_, rows);
    }
    memo_ = CountMemo(memo_size);
    sampling_mode_changed();
}

void ModelC::sampling_mode_changed() {
    if (refresh_row_masses()) row_alias_ = build_alias_from_masses(row_masses_);
}

std::uint32_t ModelC::corrupt(const ExEvent& ev, std::uint32_t correct) {
    // The class dispatch goes through the hoisted views
    // (operating_point_changed), not the store's checked accessors.
    const ClassView& view = class_view_[static_cast<std::size_t>(ev.cls)];
    // Step 1 (Fig. 3): derive the capture window at Vref from clock
    // frequency, supply voltage and this cycle's noise draw — a row of
    // the noise-window table. Without noise the one row is the base
    // window.
    std::size_t row = 0;
    double window = base_window_ps_;
    const bool noisy = !noise_window_table_.empty();
    if (noisy) {
        if (sampling_mode_ == FaultSamplingMode::Quantized) {
            row = row_alias_.sample(rng_);
        } else {
            // The reference draw on demand, as its polar half: the same
            // uniforms, and the generator never runs ahead, so the
            // Bernoulli uniforms below come where the reference walk
            // takes them. Most ops are settled by the pretest, before the
            // half's factor and row.
            const Rng::PolarHalf half = rng_.polar_half();
            if (view.pretest.passes(half)) return correct;
            row = noise_row(half);
        }
        window = noise_window_table_[row];
    }
    // Step 2+3: evaluate the instruction's endpoint CDFs at the scaled
    // window and inject per-endpoint Bernoulli faults.
    if (!view.present)  // preserve the store's "class not characterized" throw
        (void)cdfs_->class_max_window_ps(ev.cls);
    if (view.max_window_ps <= window) return correct;
    // p = count / samples is the very double violation_prob computes, so
    // every rng_.chance(p) below decides as it would without the memo.
    std::uint32_t* counts =
        memo_.counts.data() + view.memo_offset + row * view.ranks;
    std::uint32_t result = correct;
    for (std::size_t rank = 0; rank < view.ranks; ++rank) {
        const std::uint32_t endpoint = view.order[rank];
        if (view.endpoint_max_window_ps[endpoint] <= window)
            break;  // sorted by criticality: all remaining endpoints are safe
        std::uint32_t& memo = counts[rank];
        if (memo == 0)
            memo = 1 + static_cast<std::uint32_t>(
                           cdfs_->violation_count(ev.cls, endpoint, window));
        if (memo > 1 &&
            rng_.chance(static_cast<double>(memo - 1) / samples_))
            result = apply_fault(result, endpoint, ev.prev_result);
    }
    return result;
}

}  // namespace sfi
