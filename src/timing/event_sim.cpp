#include "timing/event_sim.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "timing/const_prop.hpp"

namespace sfi {

EventSim::EventSim(const Netlist& netlist, const InstanceTiming& timing,
                   std::map<std::string, std::uint64_t> fixed_inputs,
                   std::string watch_bus)
    : netlist_(&netlist), fixed_inputs_(std::move(fixed_inputs)) {
    const std::size_t count = netlist.cell_count();
    const NetId zero_net = static_cast<NetId>(count);
    value_.assign(count + 1, 0);
    pending_valid_.assign(count, 0);
    pending_value_.assign(count, 0);
    seq_.assign(count, 0);
    gates_.resize(count);
    for (NetId id = 0; id < count; ++id) {
        const Cell& cell = netlist.cell(id);
        Gate& gate = gates_[id];
        for (std::size_t pin = 0; pin < 3; ++pin)
            gate.fanin[pin] = cell.fanin[pin] == kNoNet ? zero_net : cell.fanin[pin];
        gate.truth = 0;
        for (unsigned index = 0; index < 8; ++index)
            if (cell_eval(cell.type, index & 1u, index & 2u, index & 4u))
                gate.truth |= static_cast<std::uint8_t>(1u << index);
        gate.rise_fs = std::llround(timing.rise_ps(id) * 1000.0);
        gate.fall_fs = std::llround(timing.fall_ps(id) * 1000.0);
    }
    clk_to_q_fs_ = std::llround(timing.clk_to_q_ps() * 1000.0);

    // Constant-propagate the fixed inputs; only variable cells are active.
    const auto constants = propagate_constants(netlist, fixed_inputs_);
    is_active_.assign(count, 0);
    for (NetId id = 0; id < count; ++id)
        is_active_[id] = constants[id] == NetConst::Variable;
    active_cells_ = static_cast<std::size_t>(
        std::count(is_active_.begin(), is_active_.end(), std::uint8_t{1}));
    // One live pending event per active cell is the steady-state load
    // (cancelled entries linger until popped, so the true peak can exceed
    // it); reserving that much up front makes settle() growth-free in the
    // common case.
    queue_.reserve(active_cells_ + 1);

    // CSR fanout adjacency restricted to active sinks.
    std::vector<std::uint32_t> degree(count, 0);
    for (NetId id = 0; id < count; ++id) {
        if (!is_active_[id]) continue;
        const Cell& cell = netlist.cell(id);
        const unsigned n = cell_fanin_count(cell.type);
        for (unsigned i = 0; i < n; ++i) ++degree[cell.fanin[i]];
    }
    fanout_offset_.assign(count + 1, 0);
    for (NetId id = 0; id < count; ++id)
        fanout_offset_[id + 1] = fanout_offset_[id] + degree[id];
    fanout_edges_.resize(fanout_offset_[count]);
    std::vector<std::uint32_t> cursor(fanout_offset_.begin(),
                                      fanout_offset_.end() - 1);
    for (NetId id = 0; id < count; ++id) {
        if (!is_active_[id]) continue;
        const Cell& cell = netlist.cell(id);
        const unsigned n = cell_fanin_count(cell.type);
        for (unsigned i = 0; i < n; ++i)
            fanout_edges_[cursor[cell.fanin[i]]++] = id;
    }

    // Watch list.
    watch_nets_ = netlist.output_bus(watch_bus);
    watch_index_.assign(count, -1);
    for (std::size_t bit = 0; bit < watch_nets_.size(); ++bit)
        if (watch_nets_[bit] != kNoNet)
            watch_index_[watch_nets_[bit]] = static_cast<std::int32_t>(bit);
    arrival_ps_.assign(watch_nets_.size(), 0.0);

    // Register the variable input buses (everything not fixed).
    for (const auto& [bus, nets] : netlist.input_buses())
        if (!fixed_inputs_.count(bus)) staged_[bus] = {nets, 0};
}

void EventSim::set_input(const std::string& bus, std::uint64_t value) {
    const auto it = staged_.find(bus);
    if (it == staged_.end())
        throw std::invalid_argument("EventSim: unknown or fixed input bus " + bus);
    it->second.second = value;
}

void EventSim::initialize() {
    // Re-establish the steady state in the persistent value buffer — no
    // per-call allocation, so re-initializing a simulator (every DTA
    // chunk) reuses the settle buffers. The 0 net past the cells stays 0.
    std::fill(value_.begin(), value_.end(), 0);
    for (const auto& [bus, value] : fixed_inputs_) {
        const auto& nets = netlist_->input_bus(bus);
        for (std::size_t bit = 0; bit < nets.size(); ++bit)
            if (nets[bit] != kNoNet) value_[nets[bit]] = (value >> bit) & 1u;
    }
    for (const auto& [bus, staged] : staged_) {
        const auto& [nets, value] = staged;
        for (std::size_t bit = 0; bit < nets.size(); ++bit)
            if (nets[bit] != kNoNet) value_[nets[bit]] = (value >> bit) & 1u;
    }
    netlist_->eval_into(value_);
    std::fill(pending_valid_.begin(), pending_valid_.end(), 0);
    queue_.clear();
    initialized_ = true;
}

void EventSim::schedule_input_change(NetId net, bool value) {
    if (value_[net] == static_cast<std::uint8_t>(value)) return;
    ++seq_[net];
    pending_valid_[net] = 1;
    pending_value_[net] = value;
    queue_.push({clk_to_q_fs_, net, seq_[net]});
}

void EventSim::propagate(NetId net, std::int64_t now_fs) {
    for (std::uint32_t e = fanout_offset_[net]; e < fanout_offset_[net + 1]; ++e) {
        const NetId id = fanout_edges_[e];
        const Gate& gate = gates_[id];
        const unsigned index = value_[gate.fanin[0]] |
                               value_[gate.fanin[1]] << 1 |
                               value_[gate.fanin[2]] << 2;
        const std::uint8_t target = (gate.truth >> index) & 1u;
        const std::uint8_t effective =
            pending_valid_[id] ? pending_value_[id] : value_[id];
        if (target == effective) continue;
        ++seq_[id];
        if (target == value_[id]) {
            // Inertial cancellation: the pending pulse never happens.
            pending_valid_[id] = 0;
            continue;
        }
        pending_valid_[id] = 1;
        pending_value_[id] = target;
        queue_.push({now_fs + (target ? gate.rise_fs : gate.fall_fs), id, seq_[id]});
    }
}

const std::vector<double>& EventSim::settle() {
    assert(initialized_ && "EventSim::initialize() must be called first");
    std::fill(arrival_ps_.begin(), arrival_ps_.end(), 0.0);
    for (const auto& [bus, staged] : staged_) {
        const auto& [nets, value] = staged;
        for (std::size_t bit = 0; bit < nets.size(); ++bit)
            if (nets[bit] != kNoNet)
                schedule_input_change(nets[bit], (value >> bit) & 1u);
    }
    while (!queue_.empty()) {
        const EventQueue::Event ev = queue_.pop();
        if (ev.seq != seq_[ev.net]) continue;  // cancelled
        pending_valid_[ev.net] = 0;
        const std::uint8_t value = pending_value_[ev.net];
        if (value_[ev.net] == value) continue;
        value_[ev.net] = value;
        ++total_events_;
        const std::int32_t w = watch_index_[ev.net];
        if (w >= 0)
            arrival_ps_[static_cast<std::size_t>(w)] =
                static_cast<double>(ev.time_fs) / 1000.0;
        propagate(ev.net, ev.time_fs);
    }
    return arrival_ps_;
}

bool EventSim::watched_value(std::size_t bit) const {
    const NetId net = watch_nets_.at(bit);
    return net != kNoNet && value_[net];
}

}  // namespace sfi
