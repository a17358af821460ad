#include "netlist/netlist.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace sfi {

const char* cell_type_name(CellType type) {
    switch (type) {
        case CellType::Input: return "input";
        case CellType::Tie0: return "tie0";
        case CellType::Tie1: return "tie1";
        case CellType::Buf: return "buf";
        case CellType::Inv: return "inv";
        case CellType::Nand2: return "nand2";
        case CellType::Nor2: return "nor2";
        case CellType::And2: return "and2";
        case CellType::Or2: return "or2";
        case CellType::Xor2: return "xor2";
        case CellType::Xnor2: return "xnor2";
        case CellType::Mux2: return "mux2";
        case CellType::kCount: break;
    }
    return "?";
}

unsigned cell_fanin_count(CellType type) {
    switch (type) {
        case CellType::Input:
        case CellType::Tie0:
        case CellType::Tie1: return 0;
        case CellType::Buf:
        case CellType::Inv: return 1;
        case CellType::Mux2: return 3;
        default: return 2;
    }
}

bool cell_eval(CellType type, bool a, bool b, bool c) {
    switch (type) {
        case CellType::Input: return a;  // value injected externally
        case CellType::Tie0: return false;
        case CellType::Tie1: return true;
        case CellType::Buf: return a;
        case CellType::Inv: return !a;
        case CellType::Nand2: return !(a && b);
        case CellType::Nor2: return !(a || b);
        case CellType::And2: return a && b;
        case CellType::Or2: return a || b;
        case CellType::Xor2: return a != b;
        case CellType::Xnor2: return a == b;
        case CellType::Mux2: return a ? c : b;  // a=sel, b=d0, c=d1
        case CellType::kCount: break;
    }
    return false;
}

NetId Netlist::check_net(NetId id) const {
    if (id >= cells_.size()) throw std::out_of_range("Netlist: fanin net does not exist");
    return id;
}

NetId Netlist::add_input(const std::string& bus, std::size_t bit) {
    auto& nets = inputs_[bus];
    if (nets.size() <= bit) nets.resize(bit + 1, kNoNet);
    if (nets[bit] != kNoNet)
        throw std::invalid_argument("Netlist: input " + bus + "[" +
                                    std::to_string(bit) + "] already exists");
    const NetId id = static_cast<NetId>(cells_.size());
    cells_.push_back(Cell{CellType::Input, {kNoNet, kNoNet, kNoNet}});
    nets[bit] = id;
    fanout_.clear();
    return id;
}

NetId Netlist::add_tie(bool value) {
    const NetId id = static_cast<NetId>(cells_.size());
    cells_.push_back(Cell{value ? CellType::Tie1 : CellType::Tie0,
                          {kNoNet, kNoNet, kNoNet}});
    fanout_.clear();
    return id;
}

NetId Netlist::add_gate(CellType type, NetId in0, NetId in1, NetId in2) {
    const unsigned n = cell_fanin_count(type);
    if (n == 0)
        throw std::invalid_argument("Netlist: use add_input/add_tie for sources");
    Cell cell;
    cell.type = type;
    cell.fanin[0] = check_net(in0);
    if (n >= 2) cell.fanin[1] = check_net(in1);
    if (n >= 3) cell.fanin[2] = check_net(in2);
    const NetId id = static_cast<NetId>(cells_.size());
    cells_.push_back(cell);
    fanout_.clear();
    return id;
}

void Netlist::set_output(const std::string& bus, std::size_t bit, NetId net) {
    check_net(net);
    auto& nets = outputs_[bus];
    if (nets.size() <= bit) nets.resize(bit + 1, kNoNet);
    nets[bit] = net;
}

const std::vector<NetId>& Netlist::input_bus(const std::string& bus) const {
    const auto it = inputs_.find(bus);
    if (it == inputs_.end()) throw std::out_of_range("no input bus " + bus);
    return it->second;
}

const std::vector<NetId>& Netlist::output_bus(const std::string& bus) const {
    const auto it = outputs_.find(bus);
    if (it == outputs_.end()) throw std::out_of_range("no output bus " + bus);
    return it->second;
}

bool Netlist::has_input_bus(const std::string& bus) const {
    return inputs_.count(bus) > 0;
}

bool Netlist::has_output_bus(const std::string& bus) const {
    return outputs_.count(bus) > 0;
}

const std::vector<std::uint32_t>& Netlist::fanout_counts() const {
    if (fanout_.size() != cells_.size()) {
        fanout_.assign(cells_.size(), 0);
        for (const Cell& cell : cells_) {
            const unsigned n = cell_fanin_count(cell.type);
            for (unsigned i = 0; i < n; ++i) ++fanout_[cell.fanin[i]];
        }
    }
    return fanout_;
}

std::size_t Netlist::logic_depth() const {
    std::vector<std::uint32_t> depth(cells_.size(), 0);
    std::uint32_t best = 0;
    for (NetId id = 0; id < cells_.size(); ++id) {
        const Cell& cell = cells_[id];
        const unsigned n = cell_fanin_count(cell.type);
        std::uint32_t d = 0;
        for (unsigned i = 0; i < n; ++i) d = std::max(d, depth[cell.fanin[i]] + 1);
        depth[id] = d;
        best = std::max(best, d);
    }
    return best;
}

std::map<std::string, std::size_t> Netlist::type_histogram() const {
    std::map<std::string, std::size_t> hist;
    for (const Cell& cell : cells_) ++hist[cell_type_name(cell.type)];
    return hist;
}

void Netlist::eval_into(std::vector<std::uint8_t>& values) const {
    assert(values.size() >= cells_.size());
    for (NetId id = 0; id < cells_.size(); ++id) {
        const Cell& cell = cells_[id];
        if (cell.type == CellType::Input) continue;  // injected by caller
        const bool a = cell.fanin[0] != kNoNet && values[cell.fanin[0]];
        const bool b = cell.fanin[1] != kNoNet && values[cell.fanin[1]];
        const bool c = cell.fanin[2] != kNoNet && values[cell.fanin[2]];
        values[id] = cell_eval(cell.type, a, b, c);
    }
}

std::uint64_t Netlist::eval(
    const std::map<std::string, std::uint64_t>& input_values,
    const std::string& output_bus_name) const {
    std::vector<std::uint8_t> values(cells_.size(), 0);
    for (const auto& [bus, value] : input_values) {
        const auto& nets = input_bus(bus);
        for (std::size_t bit = 0; bit < nets.size(); ++bit)
            if (nets[bit] != kNoNet)
                values[nets[bit]] = (value >> bit) & 1u;
    }
    eval_into(values);
    const auto& out = output_bus(output_bus_name);
    std::uint64_t result = 0;
    for (std::size_t bit = 0; bit < out.size() && bit < 64; ++bit)
        if (out[bit] != kNoNet && values[out[bit]])
            result |= 1ULL << bit;
    return result;
}

}  // namespace sfi
