#include "netlist/netlist.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace sfi {
namespace {

TEST(CellEval, TruthTables) {
    EXPECT_FALSE(cell_eval(CellType::Tie0, 1, 1, 1));
    EXPECT_TRUE(cell_eval(CellType::Tie1, 0, 0, 0));
    EXPECT_TRUE(cell_eval(CellType::Inv, 0, 0, 0));
    EXPECT_FALSE(cell_eval(CellType::Inv, 1, 0, 0));
    for (int a = 0; a <= 1; ++a)
        for (int b = 0; b <= 1; ++b) {
            EXPECT_EQ(cell_eval(CellType::And2, a, b, 0), a && b);
            EXPECT_EQ(cell_eval(CellType::Nand2, a, b, 0), !(a && b));
            EXPECT_EQ(cell_eval(CellType::Or2, a, b, 0), a || b);
            EXPECT_EQ(cell_eval(CellType::Nor2, a, b, 0), !(a || b));
            EXPECT_EQ(cell_eval(CellType::Xor2, a, b, 0), a != b);
            EXPECT_EQ(cell_eval(CellType::Xnor2, a, b, 0), a == b);
        }
    // Mux2: fanin order (sel, d0, d1)
    EXPECT_EQ(cell_eval(CellType::Mux2, 0, 1, 0), 1);
    EXPECT_EQ(cell_eval(CellType::Mux2, 1, 1, 0), 0);
}

TEST(CellFaninCount, PerType) {
    EXPECT_EQ(cell_fanin_count(CellType::Input), 0u);
    EXPECT_EQ(cell_fanin_count(CellType::Tie1), 0u);
    EXPECT_EQ(cell_fanin_count(CellType::Inv), 1u);
    EXPECT_EQ(cell_fanin_count(CellType::Buf), 1u);
    EXPECT_EQ(cell_fanin_count(CellType::Nand2), 2u);
    EXPECT_EQ(cell_fanin_count(CellType::Mux2), 3u);
}

Netlist make_xor_pair() {
    // y[0] = a[0] ^ a[1], y[1] = ~(a[0] & a[1])
    Netlist n;
    const NetId a0 = n.add_input("a", 0);
    const NetId a1 = n.add_input("a", 1);
    n.set_output("y", 0, n.xor2(a0, a1));
    n.set_output("y", 1, n.nand2(a0, a1));
    return n;
}

TEST(Netlist, EvalSmallCircuit) {
    const Netlist n = make_xor_pair();
    EXPECT_EQ(n.eval({{"a", 0b00}}, "y"), 0b10u);
    EXPECT_EQ(n.eval({{"a", 0b01}}, "y"), 0b11u);
    EXPECT_EQ(n.eval({{"a", 0b10}}, "y"), 0b11u);
    EXPECT_EQ(n.eval({{"a", 0b11}}, "y"), 0b00u);
}

TEST(Netlist, DuplicateInputBitRejected) {
    Netlist n;
    n.add_input("a", 0);
    EXPECT_THROW(n.add_input("a", 0), std::invalid_argument);
}

TEST(Netlist, ForwardReferenceRejected) {
    Netlist n;
    const NetId a = n.add_input("a", 0);
    EXPECT_THROW(n.add_gate(CellType::Inv, a + 5), std::out_of_range);
}

TEST(Netlist, UnknownBusThrows) {
    const Netlist n = make_xor_pair();
    EXPECT_THROW(n.input_bus("b"), std::out_of_range);
    EXPECT_THROW(n.output_bus("z"), std::out_of_range);
    EXPECT_TRUE(n.has_input_bus("a"));
    EXPECT_FALSE(n.has_output_bus("z"));
}

TEST(Netlist, FanoutCounts) {
    Netlist n;
    const NetId a = n.add_input("a", 0);
    const NetId i1 = n.inv(a);
    n.inv(a);
    n.set_output("y", 0, n.inv(i1));
    const auto& fanout = n.fanout_counts();
    EXPECT_EQ(fanout[a], 2u);
    EXPECT_EQ(fanout[i1], 1u);
}

TEST(Netlist, LogicDepth) {
    Netlist n;
    NetId x = n.add_input("a", 0);
    for (int i = 0; i < 5; ++i) x = n.inv(x);
    n.set_output("y", 0, x);
    EXPECT_EQ(n.logic_depth(), 5u);
}

TEST(Netlist, Maj3MatchesMajority) {
    Netlist n;
    const NetId a = n.add_input("a", 0);
    const NetId b = n.add_input("a", 1);
    const NetId c = n.add_input("a", 2);
    n.set_output("y", 0, n.maj3(a, b, c));
    for (unsigned v = 0; v < 8; ++v) {
        const unsigned bits = (v & 1) + ((v >> 1) & 1) + ((v >> 2) & 1);
        EXPECT_EQ(n.eval({{"a", v}}, "y"), bits >= 2 ? 1u : 0u) << v;
    }
}

TEST(Netlist, TypeHistogramCounts) {
    const Netlist n = make_xor_pair();
    const auto hist = n.type_histogram();
    EXPECT_EQ(hist.at("input"), 2u);
    EXPECT_EQ(hist.at("xor2"), 1u);
    EXPECT_EQ(hist.at("nand2"), 1u);
}

TEST(Netlist, TiesEvaluateConstant) {
    Netlist n;
    const NetId t1 = n.add_tie(true);
    const NetId t0 = n.add_tie(false);
    n.set_output("y", 0, n.and2(t1, t1));
    n.set_output("y", 1, n.or2(t0, t1));
    n.set_output("y", 2, t0);
    EXPECT_EQ(n.eval({}, "y"), 0b011u);
}

}  // namespace
}  // namespace sfi
