// Event-driven gate-level timing simulation with inertial delays.
//
// This is the "dynamic timing analysis" engine (paper §3.4, following
// [14]): for each simulated cycle the operand inputs switch from their
// previous values to new values at the clock edge (plus clk->q), events
// propagate through the netlist with per-cell rise/fall delays, and the
// *last* transition time observed at each endpoint is its data arrival
// time for that cycle. Glitches propagate (inertial filtering only
// suppresses pulses shorter than a cell's own delay, as real gates do).
//
// Inputs fixed at construction (the ALU "op" bus) are constant-propagated
// first; only the variable cone is simulated, so characterizing e.g. the
// add instruction never touches the multiplier array.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "timing/timing_lib.hpp"

namespace sfi {

/// The pending-event queue: a binary min-heap keyed by time alone.
///
/// The order in which it pops events that share a femtosecond is part of
/// the characterization output: ~3 % of live events pop while another
/// live event waits at the same time, and visiting them in another order
/// moves arrivals, event counts and so every CDF byte. The order is the
/// one libstdc++'s std::push_heap/std::pop_heap give with std::greater,
/// which the CDF caches were first written with; push and pop below are a
/// hand-written copy of that algorithm, so the output does not depend on
/// the standard library of the build.
class EventQueue {
public:
    /// 16 bytes. A live event's value is its net's pending value, so the
    /// event does not carry it; `seq` tells live events from cancelled
    /// ones, which stay queued until popped.
    struct Event {
        std::int64_t time_fs;
        NetId net;
        std::uint32_t seq;
        bool operator>(const Event& other) const { return time_fs > other.time_fs; }
    };
    static_assert(sizeof(Event) == 16);

    bool empty() const { return heap_.empty(); }
    std::size_t size() const { return heap_.size(); }
    void clear() { heap_.clear(); }
    void reserve(std::size_t n) { heap_.reserve(n); }

    /// std::push_heap: sifts up, stopping at the first parent that is not
    /// strictly later.
    void push(const Event& event) {
        heap_.push_back(event);
        sift_up(heap_.size() - 1, event);
    }

    /// std::pop_heap + back(): moves the hole from the root down to a
    /// leaf, taking the right child unless it is strictly later than the
    /// left one, then the lone last child of an even-sized heap, and
    /// sifts the old last element up from there.
    Event pop() {
        const Event top = heap_.front();
        const Event last = heap_.back();
        heap_.pop_back();
        const std::size_t len = heap_.size();
        if (len == 0) return top;
        std::size_t hole = 0;
        std::size_t child = 0;
        while (child < (len - 1) / 2) {
            child = 2 * (child + 1);
            child -= static_cast<std::size_t>(heap_[child] > heap_[child - 1]);
            heap_[hole] = heap_[child];
            hole = child;
        }
        if ((len & 1) == 0 && child == (len - 2) / 2) {
            child = 2 * (child + 1);
            heap_[hole] = heap_[child - 1];
            hole = child - 1;
        }
        sift_up(hole, last);
        return top;
    }

private:
    void sift_up(std::size_t hole, const Event& event) {
        while (hole > 0) {
            const std::size_t parent = (hole - 1) / 2;
            if (!(heap_[parent] > event)) break;
            heap_[hole] = heap_[parent];
            hole = parent;
        }
        heap_[hole] = event;
    }

    std::vector<Event> heap_;
};

class EventSim {
public:
    /// `fixed_inputs` pins buses for the lifetime of the simulator.
    /// `watch_bus` names the output bus whose arrival times are recorded.
    /// Operand registers launch at the library's clk->Q, which keeps STA
    /// and event simulation on one time reference.
    EventSim(const Netlist& netlist, const InstanceTiming& timing,
             std::map<std::string, std::uint64_t> fixed_inputs,
             std::string watch_bus = "y");

    /// Stages a new value for a variable input bus (applied by settle()).
    void set_input(const std::string& bus, std::uint64_t value);

    /// Establishes a known steady state from the staged inputs without
    /// timing (functional evaluation). Call once before the first settle().
    /// settle() ends in exactly this state for the inputs it settled to:
    /// the queue is empty, nothing is pending and every net holds its
    /// functional value. So initialize() on a cycle's inputs lets a
    /// simulation resume at the next cycle (DTA chunks rely on that).
    void initialize();

    /// Simulates one cycle: staged input changes switch at clk->q, events
    /// propagate to quiescence. Returns per-watched-bit arrival times in
    /// ps (0.0 for bits that did not toggle, i.e. cannot mis-capture).
    const std::vector<double>& settle();

    /// Current logic value of watched bit `bit`.
    bool watched_value(std::size_t bit) const;

    std::size_t active_cell_count() const { return active_cells_; }
    std::uint64_t total_events() const { return total_events_; }
    std::size_t watch_width() const { return arrival_ps_.size(); }

private:
    /// One record per cell: everything propagate() reads to re-evaluate
    /// it. Unused pins read a net that is always 0 (index cell_count()).
    struct Gate {
        std::array<NetId, 3> fanin;
        std::uint8_t truth;  ///< bit (a | b << 1 | c << 2) = cell_eval(a, b, c)
        std::int64_t rise_fs;
        std::int64_t fall_fs;
    };

    void schedule_input_change(NetId net, bool value);
    void propagate(NetId net, std::int64_t now_fs);

    const Netlist* netlist_;
    std::vector<Gate> gates_;
    std::vector<std::uint8_t> value_;  ///< cell_count() + 1: the last is the 0 net
    std::vector<std::uint8_t> pending_valid_;
    std::vector<std::uint8_t> pending_value_;
    std::vector<std::uint32_t> seq_;

    // Active-cone fanout adjacency (CSR layout).
    std::vector<std::uint32_t> fanout_offset_;
    std::vector<NetId> fanout_edges_;
    std::vector<std::uint8_t> is_active_;

    EventQueue queue_;
    std::vector<std::int32_t> watch_index_;
    std::vector<double> arrival_ps_;
    std::vector<NetId> watch_nets_;

    // Variable input buses and staged values.
    std::map<std::string, std::pair<std::vector<NetId>, std::uint64_t>> staged_;
    std::map<std::string, std::uint64_t> fixed_inputs_;

    std::int64_t clk_to_q_fs_;
    std::size_t active_cells_ = 0;
    std::uint64_t total_events_ = 0;
    bool initialized_ = false;
};

}  // namespace sfi
