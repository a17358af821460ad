#include "timing/event_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <vector>

#include "circuits/alu.hpp"
#include "timing/sta.hpp"
#include "util/rng.hpp"

namespace sfi {
namespace {

TimingLib flat_lib(double clk_to_q = 0.0) {
    TimingLibConfig config;
    config.process_sigma = 0.0;
    config.load_per_fanout = 0.0;
    config.clk_to_q_ps = clk_to_q;
    return TimingLib(config);
}

TEST(EventSim, FinalValuesMatchFunctionalEval) {
    const Alu alu = build_alu();
    const TimingLib lib;
    const InstanceTiming timing(alu.netlist, lib);
    for (const ExClass cls : {ExClass::Add, ExClass::Mul, ExClass::Xor,
                              ExClass::Srl, ExClass::Cmp}) {
        EventSim sim(alu.netlist, timing, {{"op", Alu::op_code(cls)}});
        Rng rng(static_cast<std::uint64_t>(cls) + 50);
        sim.set_input("a", rng.u32());
        sim.set_input("b", rng.u32());
        sim.initialize();
        for (int i = 0; i < 50; ++i) {
            const std::uint32_t a = rng.u32(), b = rng.u32();
            sim.set_input("a", a);
            sim.set_input("b", b);
            sim.settle();
            std::uint32_t got = 0;
            for (std::size_t bit = 0; bit < 32; ++bit)
                if (sim.watched_value(bit)) got |= 1u << bit;
            EXPECT_EQ(got, alu_result(cls, a, b))
                << ex_class_name(cls) << " a=" << a << " b=" << b;
        }
    }
}

TEST(EventSim, ArrivalsNeverExceedStaBound) {
    const Alu alu = build_alu();
    const TimingLib lib;
    const InstanceTiming timing(alu.netlist, lib);
    for (const ExClass cls : {ExClass::Add, ExClass::Mul}) {
        const StaResult sta =
            run_sta(alu.netlist, timing, {{"op", Alu::op_code(cls)}});
        EventSim sim(alu.netlist, timing, {{"op", Alu::op_code(cls)}});
        Rng rng(3);
        sim.set_input("a", rng.u32());
        sim.set_input("b", rng.u32());
        sim.initialize();
        for (int i = 0; i < 100; ++i) {
            sim.set_input("a", rng.u32());
            sim.set_input("b", rng.u32());
            const auto& arrivals = sim.settle();
            // 0.05 ps slack: the event engine quantizes each cell delay to
            // integer femtoseconds, STA sums doubles.
            for (std::size_t bit = 0; bit < arrivals.size(); ++bit)
                EXPECT_LE(arrivals[bit], sta.endpoint_ps[bit] + 0.05)
                    << ex_class_name(cls) << " bit " << bit;
        }
    }
}

TEST(EventSim, NoChangeNoEvents) {
    const Alu alu = build_alu();
    const TimingLib lib;
    const InstanceTiming timing(alu.netlist, lib);
    EventSim sim(alu.netlist, timing, {{"op", Alu::op_code(ExClass::Add)}});
    sim.set_input("a", 123);
    sim.set_input("b", 456);
    sim.initialize();
    sim.settle();  // first settle from the initialized state: no changes
    const std::uint64_t events_before = sim.total_events();
    sim.set_input("a", 123);  // identical values
    sim.set_input("b", 456);
    const auto& arrivals = sim.settle();
    EXPECT_EQ(sim.total_events(), events_before);
    for (const double a : arrivals) EXPECT_EQ(a, 0.0);
}

TEST(EventSim, SingleInverterTiming) {
    Netlist n;
    const NetId a = n.add_input("a", 0);
    n.set_output("y", 0, n.inv(a));
    const TimingLib lib = flat_lib(0.0);
    const InstanceTiming timing(n, lib);
    EventSim sim(n, timing, {});
    sim.set_input("a", 0);
    sim.initialize();
    sim.set_input("a", 1);
    const auto& arrivals = sim.settle();
    // 0 -> 1 on input means the inverter output falls.
    EXPECT_DOUBLE_EQ(arrivals[0], lib.intrinsic_fall_ps(CellType::Inv));
    sim.set_input("a", 0);
    const auto& arrivals2 = sim.settle();
    EXPECT_DOUBLE_EQ(arrivals2[0], lib.intrinsic_rise_ps(CellType::Inv));
}

TEST(EventSim, ClkToQShiftsArrivals) {
    Netlist n;
    const NetId a = n.add_input("a", 0);
    n.set_output("y", 0, n.inv(a));
    const TimingLib lib = flat_lib(40.0);
    const InstanceTiming timing(n, lib);
    EventSim sim(n, timing, {});
    sim.set_input("a", 0);
    sim.initialize();
    sim.set_input("a", 1);
    EXPECT_DOUBLE_EQ(sim.settle()[0],
                     40.0 + lib.intrinsic_fall_ps(CellType::Inv));
}

TEST(EventSim, GlitchProducesLateArrival) {
    // y = a XOR delayed(a): a change produces a pulse whose trailing edge
    // arrives after the reconvergent path settles.
    Netlist n;
    const NetId a = n.add_input("a", 0);
    NetId delayed = a;
    for (int i = 0; i < 4; ++i) delayed = n.inv(n.inv(delayed));
    n.set_output("y", 0, n.xor2(a, delayed));
    const TimingLib lib = flat_lib(0.0);
    const InstanceTiming timing(n, lib);
    EventSim sim(n, timing, {});
    sim.set_input("a", 0);
    sim.initialize();
    sim.set_input("a", 1);
    const auto& arrivals = sim.settle();
    // The final value is 0 (a==delayed(a)) but the last transition lands
    // after the 8-inverter chain plus the xor.
    EXPECT_FALSE(sim.watched_value(0));
    const double chain =
        4 * (lib.intrinsic_rise_ps(CellType::Inv) +
             lib.intrinsic_fall_ps(CellType::Inv));
    EXPECT_GT(arrivals[0], chain);
}

TEST(EventSim, InertialFilteringSuppressesShortPulse) {
    // A one-inverter skew feeding an AND whose delay exceeds the pulse
    // width: the pulse must be swallowed (no event on y).
    Netlist n;
    const NetId a = n.add_input("a", 0);
    const NetId na = n.inv(a);
    // and2(a, inv(a)): 0 except during the short overlap pulse.
    n.set_output("y", 0, n.and2(a, na));
    TimingLibConfig config;
    config.process_sigma = 0.0;
    config.load_per_fanout = 0.0;
    config.clk_to_q_ps = 0.0;
    const TimingLib lib(config);
    const InstanceTiming timing(n, lib);
    // Pulse width = inv delay (~7-9 ps) < and2 delay (~16-18 ps): filtered.
    EventSim sim(n, timing, {});
    sim.set_input("a", 0);
    sim.initialize();
    sim.set_input("a", 1);
    const auto& arrivals = sim.settle();
    EXPECT_EQ(arrivals[0], 0.0);
    EXPECT_FALSE(sim.watched_value(0));
}

TEST(EventSim, PrunedConeExcludesOtherUnits) {
    const Alu alu = build_alu();
    const TimingLib lib;
    const InstanceTiming timing(alu.netlist, lib);
    EventSim add_sim(alu.netlist, timing, {{"op", Alu::op_code(ExClass::Add)}});
    EventSim mul_sim(alu.netlist, timing, {{"op", Alu::op_code(ExClass::Mul)}});
    EXPECT_LT(add_sim.active_cell_count(), mul_sim.active_cell_count() / 2);
}

TEST(EventSim, UnknownInputBusThrows) {
    Netlist n;
    n.set_output("y", 0, n.inv(n.add_input("a", 0)));
    const TimingLib lib;
    const InstanceTiming timing(n, lib);
    EventSim sim(n, timing, {});
    EXPECT_THROW(sim.set_input("nope", 1), std::invalid_argument);
}

TEST(EventSim, FixedBusNotSettable) {
    const Alu alu = build_alu();
    const TimingLib lib;
    const InstanceTiming timing(alu.netlist, lib);
    EventSim sim(alu.netlist, timing, {{"op", 0}});
    EXPECT_THROW(sim.set_input("op", 1), std::invalid_argument);
}

// A seeded push/pop sequence over few distinct times, so most pops choose
// among equal times. `push` and `pop` act on the queue under test and
// `size` reports its size.
template <typename Push, typename Pop, typename Size>
void drive_tie_heavy(Push push, Pop pop, Size size) {
    Rng rng(19);
    std::uint32_t seq = 0;
    for (int round = 0; round < 40; ++round) {
        // Grow to a random size (odd and even), then drain part of it.
        const std::size_t target = 1 + rng.bounded(300);
        while (size() < target)
            push(EventQueue::Event{static_cast<std::int64_t>(rng.bounded(12)),
                                   static_cast<NetId>(rng.bounded(4000)), ++seq});
        const std::size_t keep = rng.bounded(target / 2 + 1);
        while (size() > keep) {
            pop();
            if (rng.bounded(3) == 0)
                push(EventQueue::Event{static_cast<std::int64_t>(rng.bounded(12)),
                                       static_cast<NetId>(rng.bounded(4000)),
                                       ++seq});
        }
    }
    while (size() > 0) pop();
}

TEST(EventQueue, PopsTheEarliestPendingTime) {
    EventQueue queue;
    std::multiset<std::int64_t> pending;
    std::size_t pops = 0;
    drive_tie_heavy(
        [&](const EventQueue::Event& event) {
            queue.push(event);
            pending.insert(event.time_fs);
        },
        [&] {
            ASSERT_FALSE(queue.empty());
            const EventQueue::Event event = queue.pop();
            ASSERT_EQ(event.time_fs, *pending.begin());
            pending.erase(pending.begin());
            ++pops;
        },
        [&] { return queue.size(); });
    EXPECT_TRUE(queue.empty());
    EXPECT_GT(pops, 1000u);
}

#ifdef __GLIBCXX__
// The CDF caches were first written with libstdc++'s heap order, which
// EventQueue reproduces: every pop, ties included, is the event that
// std::pop_heap with std::greater would have moved to the back.
TEST(EventQueue, PopOrderIsLibstdcxxHeapOrder) {
    EventQueue queue;
    std::vector<EventQueue::Event> reference;
    std::size_t pops = 0;
    drive_tie_heavy(
        [&](const EventQueue::Event& event) {
            queue.push(event);
            reference.push_back(event);
            std::push_heap(reference.begin(), reference.end(), std::greater<>{});
        },
        [&] {
            std::pop_heap(reference.begin(), reference.end(), std::greater<>{});
            const EventQueue::Event expected = reference.back();
            reference.pop_back();
            const EventQueue::Event got = queue.pop();
            ASSERT_EQ(got.time_fs, expected.time_fs) << "pop " << pops;
            ASSERT_EQ(got.net, expected.net) << "pop " << pops;
            ASSERT_EQ(got.seq, expected.seq) << "pop " << pops;
            ++pops;
        },
        [&] { return queue.size(); });
    EXPECT_GT(pops, 1000u);
}
#endif

}  // namespace
}  // namespace sfi
