// The four timing-error fault-injection models of the paper (Table 2):
//
//   A  — fixed-probability random bit flips (conventional FI);
//   B  — deterministic injection whenever the clock period violates the
//        per-endpoint STA delay (fixed period violation);
//   B+ — model B with per-cycle supply-noise modulation of all delays
//        (modulated period violation);
//   C  — the paper's contribution: probabilistic injection from
//        instruction-conditioned DTA arrival-time CDFs, combined with the
//        same noise model (probabilistic period violation using CDFs).
//
// All models implement the ISS hook (ExFaultHook): they receive one
// callback per cycle and may corrupt every ALU result computed in the EX
// stage during the benchmark kernel. They corrupt only the 32 ALU
// endpoints, per the case-study constraint that all other paths are safe
// (paper §2.1).
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "cpu/cpu.hpp"
#include "fi/cdf.hpp"
#include "fi/noise.hpp"
#include "fi/sampling_batch.hpp"
#include "timing/sta.hpp"
#include "timing/vdd_model.hpp"
#include "util/rng.hpp"
#include "util/zero_pages.hpp"

namespace sfi {

class ForensicProbe;  // fi/forensics.hpp

/// Operating point of a simulation run.
struct OperatingPoint {
    double freq_mhz = 500.0;
    double vdd = 0.7;
    NoiseConfig noise;

    double period_ps() const { return 1.0e6 / freq_mhz; }

    bool operator==(const OperatingPoint&) const = default;
};

/// What a timing violation does to the captured bit.
enum class FaultPolicy : std::uint8_t {
    BitFlip,       ///< invert the captured bit (the paper's choice)
    StaleCapture,  ///< capture the previous EX-stage endpoint value
};

/// Feature row of Table 2.
struct ModelFeatures {
    std::string technique;
    std::string timing_data;
    bool multi_vdd = false;
    bool vdd_noise = false;
    std::string gate_level_aware;  // "no" / "partially" / "yes"
    bool instruction_aware = false;
};

/// Injection statistics for one run.
struct FiStats {
    std::uint64_t fi_cycles = 0;     ///< cycles with FI active (kernel)
    std::uint64_t alu_ops = 0;       ///< ALU results offered to the model
    std::uint64_t injections = 0;    ///< endpoint violations injected
    std::uint64_t corrupted_ops = 0; ///< ALU ops with >= 1 injected endpoint

    /// FI rate in faults per 1000 cycles of kernel execution (the paper's
    /// FI/kCycle metric).
    double fi_per_kcycle() const {
        return fi_cycles ? 1000.0 * static_cast<double>(injections) /
                               static_cast<double>(fi_cycles)
                         : 0.0;
    }
};

/// Common base: operating point, RNG stream, statistics, fault policy.
class FaultModel : public ExFaultHook {
public:
    ~FaultModel() override = default;

    virtual std::string name() const = 0;
    virtual ModelFeatures features() const = 0;

    /// Deep copy with identical state (operating point, policy, RNG stream,
    /// injection statistics): after cloning, both models produce the same
    /// corrupt() stream for the same inputs. This is what gives every
    /// worker of the parallel Monte-Carlo engine (src/mc/parallel.hpp) its
    /// own model. Decorating models clone their inner model too. The large
    /// characterization stores held by const pointer — model C's CDF store,
    /// the Vdd-delay fit — are shared between clones; model B's small
    /// STA-derived window tables are value members and are copied (~10 KB
    /// per clone).
    virtual std::unique_ptr<FaultModel> clone() const = 0;

    /// Sets frequency/voltage/noise; resets per-point derived state.
    /// Memoized: re-applying the current point is a no-op, so per-trial
    /// callers (MonteCarloRunner::run_trial_with) do not rebuild the
    /// noise-window tables once per trial — derived state depends only on
    /// the point and on const characterization data, never on the RNG,
    /// policy or statistics.
    void set_operating_point(const OperatingPoint& point);
    const OperatingPoint& operating_point() const { return point_; }

    /// True when corrupt() could inject at least one fault at the current
    /// operating point under SOME noise draw; false is a guarantee that
    /// every trial at this point reproduces the fault-free run, which is
    /// what arms the zero-fault trial fast path
    /// (MonteCarloRunner::run_trial_with). The base implementation is the
    /// conservative `true`.
    virtual bool can_inject() const { return true; }

    /// Overwrites the injection statistics wholesale. Used by the
    /// zero-fault fast path to leave the model's stats() exactly as the
    /// skipped (provably injection-free) simulation would have.
    void adopt_stats(const FiStats& stats) { stats_ = stats; }

    void set_policy(FaultPolicy policy) { policy_ = policy; }
    FaultPolicy policy() const { return policy_; }

    /// Reseeds the RNG stream (one distinct seed per Monte-Carlo trial).
    /// Virtual so decorating models (fi/mitigation.hpp) can reseed their
    /// inner model in lock-step.
    virtual void reseed(std::uint64_t seed) { rng_.reseed(seed); }

    /// Selects how the noise-modulated models consume their per-op draws
    /// (fi/sampling_batch.hpp). Memoized like set_operating_point;
    /// Batched reproduces the one-draw-per-op reference walk
    /// (tests/testing/) bit for bit, Quantized is the fingerprinted "B-q"
    /// variant. Virtual so decorators forward to their inner model. A
    /// switch mid-trial gives back any prefetched draws first, so the Rng
    /// then sits where the reference walk's would.
    virtual void set_sampling_mode(FaultSamplingMode mode) {
        if (mode == sampling_mode_) return;
        sampling_mode_ = mode;
        sampling_mode_changed();
    }
    FaultSamplingMode sampling_mode() const { return sampling_mode_; }

    const FiStats& stats() const { return stats_; }
    void reset_stats() { stats_ = FiStats{}; }

    /// The model's draw stream (testing aid). In Batched mode it runs
    /// ahead of the reference walk's by the batch's unconsumed prefetch
    /// until the next interleave or configuration change (a new point, or
    /// a switch to Quantized) gives the lead back.
    const Rng& rng() const { return rng_; }

    /// Attaches a forensic probe (null detaches; null is the default and
    /// costs one pointer test per ALU op). While attached, the probe
    /// receives one begin_op per on_ex_result and one record_injection per
    /// apply_fault; model B's batched path switches to its provably
    /// bit-identical per-endpoint walk (which consumes no extra draws), so
    /// a probed trial reproduces the unprobed outcome, statistics and RNG
    /// stream exactly. Virtual so decorating models (fi/mitigation.hpp)
    /// share the probe with their inner model and stamp razor fates onto
    /// its records. Probes are per-trial scratch state: attach around one
    /// trial and detach before cloning the model.
    virtual void set_forensic_probe(ForensicProbe* probe) { probe_ = probe; }
    ForensicProbe* forensic_probe() const { return probe_; }

    // ExFaultHook:
    void on_cycle(bool fi_active) final;
    /// O(1) batch form (pure accumulation, so it is order-independent
    /// against on_ex_result): lets the ISS charge a whole stall group —
    /// or, under threaded dispatch, an entire run's kernel window — in
    /// one call.
    void on_cycles(std::uint64_t n, bool fi_active) final;
    std::uint32_t on_ex_result(const ExEvent& ev, std::uint32_t correct) final;

    /// Credits `n` ALU operations that provably latched their correct
    /// result — only valid when can_inject() is false, where corrupt()
    /// is the identity for every possible draw. Pure statistics: no
    /// corruption, no RNG. Virtual so decorating models keep their inner
    /// model's counters in lock-step (razor's corrupt() drives the inner
    /// on_ex_result, so the inner must see the same op count).
    virtual void count_clean_ops(std::uint64_t n) { stats_.alu_ops += n; }

protected:
    FaultModel() = default;
    // Copyable by derived clone() implementations only.
    FaultModel(const FaultModel&) = default;
    FaultModel& operator=(const FaultModel&) = default;

    /// Model-specific corruption: returns the value to latch.
    virtual std::uint32_t corrupt(const ExEvent& ev, std::uint32_t correct) = 0;
    /// Called when the operating point changes (derived-state refresh).
    virtual void operating_point_changed() {}
    /// Called when the sampling mode changes (batch-state refresh).
    virtual void sampling_mode_changed() {}

    /// Applies the fault policy to one endpoint of `value`.
    std::uint32_t apply_fault(std::uint32_t value, std::uint32_t endpoint,
                              std::uint32_t prev_result);

    OperatingPoint point_;
    FaultPolicy policy_ = FaultPolicy::BitFlip;
    Rng rng_;
    FiStats stats_;
    FaultSamplingMode sampling_mode_ = FaultSamplingMode::Batched;
    ForensicProbe* probe_ = nullptr;

private:
    /// set_operating_point memoization guard: false until the first call,
    /// so the constructor-established derived state is refreshed once even
    /// for the default point.
    bool point_applied_ = false;
};

// ---------------------------------------------------------------------------

/// Model A: every endpoint flips with a fixed probability per ALU result,
/// independent of frequency, voltage, instruction and circuit timing.
class ModelA final : public FaultModel {
public:
    explicit ModelA(double flip_probability);

    std::string name() const override { return "A"; }
    ModelFeatures features() const override;
    std::unique_ptr<FaultModel> clone() const override {
        return std::make_unique<ModelA>(*this);
    }
    double flip_probability() const { return p_; }

    /// A zero probability can never flip anything.
    bool can_inject() const override { return p_ > 0.0; }

protected:
    std::uint32_t corrupt(const ExEvent& ev, std::uint32_t correct) override;

private:
    double p_;
};

/// Models B and B+: per-endpoint worst-case STA delays; injection is
/// deterministic given the (possibly noise-modulated) capture window.
/// sigma = 0 gives model B; sigma > 0 gives model B+.
class ModelB final : public FaultModel {
public:
    /// `sta` must come from the full (instruction-oblivious) netlist STA;
    /// `fit` is the five-corner Vdd-delay fit used for scaling.
    ModelB(StaResult sta, const VddDelayFit& fit);

    std::string name() const override;
    ModelFeatures features() const override;
    std::unique_ptr<FaultModel> clone() const override {
        return std::make_unique<ModelB>(*this);
    }

    /// Lowest frequency at which this model can inject at the current
    /// operating point (with worst-case clipped noise), MHz.
    double first_fault_frequency_mhz() const;

    /// Exact (quantization-aware) reachability: true iff some entry of the
    /// noise-window table (or the no-noise window) is small enough for the
    /// most critical endpoint to violate.
    bool can_inject() const override;

    /// Per-trial reseed also restarts the draw batch (unconsumed prefetch
    /// is dropped; the fresh stream starts at the new seed).
    void reseed(std::uint64_t seed) override {
        FaultModel::reseed(seed);
        batch_.start_trial();
    }

protected:
    std::uint32_t corrupt(const ExEvent& ev, std::uint32_t correct) override;
    void operating_point_changed() override;
    void sampling_mode_changed() override { refresh_sampling(); }

private:
    void refresh_sampling();
    std::uint32_t apply_leading_faults(std::size_t count, std::uint32_t correct,
                                       std::uint32_t prev_result);

    StaResult sta_;
    const VddDelayFit* fit_;
    std::vector<double> window_ps_;        // per endpoint: delay + setup @ Vref
    std::vector<std::uint32_t> order_;     // endpoints by decreasing window
    double max_window_ps_ = 0.0;
    // Noise -> capture-window lookup (quantized; see .cpp).
    std::vector<double> noise_window_table_;
    double base_window_ps_ = 0.0;          // no-noise capture window @ Vref
    // Derived per point (operating_point_changed): the smallest capture
    // window any noise draw can produce (= the table minimum, or the
    // no-noise window) and the precomputed clip level feeding the table
    // index — both hoisted out of the per-ALU-op corrupt() path.
    double min_window_ps_ = 0.0;
    double noise_clip_v_ = 0.0;
    // The batched-sampling decision tables: for table index i,
    // violation_count_[i] is how many leading endpoints of order_ violate
    // that window, and cum_mask_[k] is the XOR-cumulative bit mask of the
    // first k endpoints of order_ — together they reduce corrupt() to one
    // index, one count load and one mask apply (provably equal to the
    // per-endpoint walk of tests/testing/reference_model_b.hpp; see .cpp).
    std::vector<std::uint8_t> violation_count_;
    std::uint8_t base_violation_count_ = 0;  // no-noise-table counterpart
    std::vector<std::uint32_t> cum_mask_;
    NoiseIndexBatch batch_;
    // Quantized ("B-q") only: alias over the violation-count distribution
    // (the index masses pushed through violation_count_), sampled directly
    // per op — the index itself carries no other information in model B.
    AliasTable count_alias_;
};

/// Model C: statistical, instruction-aware fault injection from DTA CDFs.
class ModelC final : public FaultModel {
public:
    ModelC(std::shared_ptr<const TimingErrorCdfs> cdfs, const VddDelayFit& fit);

    std::string name() const override {
        // Like ModelB: the alias-sampled stream is its own named variant.
        return sampling_mode_ == FaultSamplingMode::Quantized &&
                       point_.noise.sigma_mv > 0.0
                   ? "C-q"
                   : "C";
    }
    ModelFeatures features() const override;
    std::unique_ptr<FaultModel> clone() const override {
        return std::make_unique<ModelC>(*this);  // shares the const CDF store
    }

    const TimingErrorCdfs& cdfs() const { return *cdfs_; }

    /// Lowest frequency with a non-zero injection probability for `cls`
    /// at the current operating point (with worst-case clipped noise), MHz.
    double first_fault_frequency_mhz(ExClass cls) const;

    /// True iff the smallest reachable capture window is below the worst
    /// arrival of ANY characterized class (conservative over classes: the
    /// kernel's instruction mix is unknown here).
    bool can_inject() const override;

    /// Per-trial reseed also restarts the draw batch.
    void reseed(std::uint64_t seed) override {
        FaultModel::reseed(seed);
        batch_.start_trial();
    }

protected:
    std::uint32_t corrupt(const ExEvent& ev, std::uint32_t correct) override;
    void operating_point_changed() override;
    void sampling_mode_changed() override { refresh_sampling(); }

private:
    void refresh_sampling();

    std::shared_ptr<const TimingErrorCdfs> cdfs_;
    const VddDelayFit* fit_;
    std::vector<double> noise_window_table_;
    double base_window_ps_ = 0.0;
    double min_window_ps_ = 0.0;
    double noise_clip_v_ = 0.0;
    double samples_ = 0.0;     // the store's samples per endpoint
    NoiseIndexBatch batch_;    // prefetched window-table indices
    // Per-class CDF-store lookups hoisted out of corrupt(): the store is
    // immutable for the model's lifetime, so the per-op walk reads plain
    // arrays instead of throw-guarded store calls. The ranks/memo_offset
    // pair locates the class's block of the count memo below.
    struct ClassView {
        bool present = false;
        double max_window_ps = 0.0;
        const std::uint32_t* order = nullptr;         // by criticality
        const double* endpoint_max_window_ps = nullptr;  // by endpoint
        std::size_t ranks = 0;        // leading order entries that can violate
        std::size_t memo_offset = 0;  // memo index of (row 0, rank 0)
    };
    std::array<ClassView, kExClassCount> class_view_{};
    // The violation-count memo: p(class, endpoint, window) takes only as
    // many values as the point has window rows (the no-noise window, or
    // the noise-window table), so corrupt() keys the store's exact
    // violation_count by (class, row, rank) and keeps 1 + count — zero is
    // "not computed yet". Sized per point for the rows and ranks that can
    // violate (operating_point_changed), on demand-zero pages so only
    // the rows a stream draws become resident. A copy starts empty at the
    // same shape: every entry is a pure function of the point and the
    // const store, so recomputing it is exact.
    struct CountMemo {
        CountMemo() = default;
        explicit CountMemo(std::size_t size) : counts(size) {}
        CountMemo(const CountMemo& other) : counts(other.counts.size()) {}
        CountMemo& operator=(const CountMemo& other) {
            if (this != &other)
                counts = ZeroPages<std::uint32_t>(other.counts.size());
            return *this;
        }
        CountMemo(CountMemo&&) = default;
        CountMemo& operator=(CountMemo&&) = default;

        ZeroPages<std::uint32_t> counts;
    };
    CountMemo memo_;
};

/// Shared helper: builds the quantized noise -> capture-window table.
/// Entry i covers noise value -clip + i * step; window = period /
/// factor(vdd + noise) expressed at Vref.
std::vector<double> build_noise_window_table(const OperatingPoint& point,
                                             const VddDelayFit& fit,
                                             std::size_t entries = 1025);

}  // namespace sfi
