// Gate-level netlist representation for the EX-stage datapath.
//
// A netlist is a DAG of single-output cells; net identifiers equal the id
// of the driving cell, and cells may only reference already-created cells,
// so creation order is a topological order by construction (no cycle check
// needed, and timing/logic evaluation is a single forward sweep).
//
// Primary inputs are Input cells grouped into named buses ("a", "b",
// "op"...); endpoints (the D-pins of the 32 ALU result flip-flops, paper
// §2.1) are recorded as named output buses.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sfi {

enum class CellType : std::uint8_t {
    Input,  ///< primary input (no fanin)
    Tie0,   ///< constant 0
    Tie1,   ///< constant 1
    Buf, Inv,
    Nand2, Nor2, And2, Or2, Xor2, Xnor2,
    Mux2,   ///< fanin: {sel, d0, d1}; out = sel ? d1 : d0
    kCount
};

const char* cell_type_name(CellType type);
/// Number of fanin pins for a cell type (0 for Input/Tie).
unsigned cell_fanin_count(CellType type);
/// Combinational function of a cell; unused pins are ignored.
bool cell_eval(CellType type, bool in0, bool in1, bool in2);

using NetId = std::uint32_t;
constexpr NetId kNoNet = 0xffffffffu;

/// One single-output gate instance; its output net id is its position in
/// the netlist's cell vector.
struct Cell {
    CellType type = CellType::Input;
    std::array<NetId, 3> fanin = {kNoNet, kNoNet, kNoNet};  ///< unused pins = kNoNet
};

class Netlist {
public:
    // ---- construction ----------------------------------------------------
    /// Adds a primary input bit to bus `bus` at position `bit` and returns
    /// its net. Bus positions must be added exactly once.
    NetId add_input(const std::string& bus, std::size_t bit);
    /// Adds a constant-0/1 cell (Tie0/Tie1) and returns its net.
    NetId add_tie(bool value);
    /// Adds a gate. Fanins must be existing nets (enforces the DAG).
    NetId add_gate(CellType type, NetId in0, NetId in1 = kNoNet,
                   NetId in2 = kNoNet);
    /// Registers `net` as output bit `bit` of output bus `bus`.
    void set_output(const std::string& bus, std::size_t bit, NetId net);

    // Convenience gate helpers.
    NetId inv(NetId a) { return add_gate(CellType::Inv, a); }
    NetId buf(NetId a) { return add_gate(CellType::Buf, a); }
    NetId nand2(NetId a, NetId b) { return add_gate(CellType::Nand2, a, b); }
    NetId nor2(NetId a, NetId b) { return add_gate(CellType::Nor2, a, b); }
    NetId and2(NetId a, NetId b) { return add_gate(CellType::And2, a, b); }
    NetId or2(NetId a, NetId b) { return add_gate(CellType::Or2, a, b); }
    NetId xor2(NetId a, NetId b) { return add_gate(CellType::Xor2, a, b); }
    NetId xnor2(NetId a, NetId b) { return add_gate(CellType::Xnor2, a, b); }
    NetId mux2(NetId sel, NetId d0, NetId d1) {
        return add_gate(CellType::Mux2, sel, d0, d1);
    }

    // Multi-gate helpers built from the base cells.
    NetId and3(NetId a, NetId b, NetId c) { return and2(and2(a, b), c); }
    NetId or3(NetId a, NetId b, NetId c) { return or2(or2(a, b), c); }
    NetId xor3(NetId a, NetId b, NetId c) { return xor2(xor2(a, b), c); }
    /// Majority-of-three (full-adder carry): ab | bc | ca.
    NetId maj3(NetId a, NetId b, NetId c) {
        return or3(and2(a, b), and2(b, c), and2(c, a));
    }

    // ---- inspection --------------------------------------------------------
    std::size_t cell_count() const { return cells_.size(); }
    const Cell& cell(NetId id) const { return cells_[id]; }
    const std::vector<Cell>& cells() const { return cells_; }

    /// Input bus nets in bit order; throws std::out_of_range for unknown bus.
    const std::vector<NetId>& input_bus(const std::string& bus) const;
    const std::vector<NetId>& output_bus(const std::string& bus) const;
    bool has_input_bus(const std::string& bus) const;
    bool has_output_bus(const std::string& bus) const;
    const std::map<std::string, std::vector<NetId>>& input_buses() const {
        return inputs_;
    }
    const std::map<std::string, std::vector<NetId>>& output_buses() const {
        return outputs_;
    }

    /// Number of cells a net fans out to (computed lazily, cached).
    const std::vector<std::uint32_t>& fanout_counts() const;

    /// Logic depth (gate count on the longest input->output path).
    std::size_t logic_depth() const;

    /// Per-cell-type population, for reports.
    std::map<std::string, std::size_t> type_histogram() const;

    // ---- functional evaluation -----------------------------------------
    /// Evaluates all cells given input bus values (LSB-first bit packing).
    /// Returns the value of the named 32-bit (or narrower) output bus.
    /// For buses wider than 64 bits only the low 64 are packed.
    std::uint64_t eval(const std::map<std::string, std::uint64_t>& input_values,
                      const std::string& output_bus_name) const;

    /// Low-level evaluation into a caller-provided value array
    /// (size >= cell_count()). Input cell values must be pre-set by the
    /// caller at their net positions; all other entries are overwritten.
    void eval_into(std::vector<std::uint8_t>& values) const;

private:
    NetId check_net(NetId id) const;

    std::vector<Cell> cells_;
    std::map<std::string, std::vector<NetId>> inputs_;
    std::map<std::string, std::vector<NetId>> outputs_;
    mutable std::vector<std::uint32_t> fanout_;  // lazy cache
};

}  // namespace sfi
