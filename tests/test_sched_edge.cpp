// Edge conditions of the scheduler machinery that the mainline tests do
// not reach: quantum renormalization as phi_min moves, topology changes
// mid-service, oracle corner cases, and scenario-runner boundary inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "core/scenario.hpp"
#include "sched/drr.hpp"
#include "sched/midrr.hpp"
#include "sched/oracle.hpp"
#include "sched/wfq.hpp"
#include "util/rng.hpp"

namespace midrr {
namespace {

TEST(QuantumCache, InvalidatesWhenMinWeightFlowLeaves) {
  // Quanta are normalized by the minimum live weight; removing the
  // smallest-weight flow must re-normalize everyone.
  MiDrrScheduler s(1000);
  const IfaceId j = s.add_interface();
  const FlowId big = s.add_flow({.weight = 4.0, .willing = {j}});
  const FlowId small = s.add_flow({.weight = 0.5, .willing = {j}});
  EXPECT_EQ(s.quantum_of(big), 8000);
  EXPECT_EQ(s.quantum_of(small), 1000);
  s.remove_flow(small);
  EXPECT_EQ(s.quantum_of(big), 1000) << "big is now the smallest weight";
}

TEST(QuantumCache, InvalidatesOnReweight) {
  MiDrrScheduler s(1000);
  const IfaceId j = s.add_interface();
  const FlowId a = s.add_flow({.weight = 1.0, .willing = {j}});
  const FlowId b = s.add_flow({.weight = 1.0, .willing = {j}});
  EXPECT_EQ(s.quantum_of(a), 1000);
  s.set_weight(b, 0.25);
  EXPECT_EQ(s.quantum_of(a), 4000);
  EXPECT_EQ(s.quantum_of(b), 1000);
}

TEST(MinWeight, MaintainedMinimumMatchesRescanUnderChurn) {
  // phi_min is maintained incrementally (a count per distinct weight).  A
  // small weight set makes ties common, so the walk repeatedly removes or
  // reweights the LAST flow holding the minimum; after every step the
  // maintained value must equal a full rescan of live weights, and every live
  // flow's quantum must be normalized by it.
  constexpr std::uint32_t kBase = 1500;
  constexpr std::array<double, 4> kWeights{0.5, 1.0, 2.0, 4.0};
  MiDrrScheduler s(kBase);
  const IfaceId j = s.add_interface();
  Rng rng(20260419);
  const auto draw_weight = [&] {
    return kWeights[static_cast<std::size_t>(rng.uniform_int(0, 3))];
  };
  std::vector<FlowId> live;
  int last_minimum_left = 0;  // steps where the minimum's last holder left
  for (int step = 0; step < 20000; ++step) {
    const double before = s.preferences().min_weight();
    const auto op = rng.uniform_int(0, 2);
    if (op == 0 || live.empty()) {
      live.push_back(s.add_flow({.weight = draw_weight(), .willing = {j}}));
    } else {
      const auto idx = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(live.size()) - 1));
      if (op == 1) {
        s.remove_flow(live[idx]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
      } else {
        s.set_weight(live[idx], draw_weight());
      }
    }
    double rescan = 1.0;
    if (!live.empty()) {
      rescan = s.preferences().weight(live.front());
      for (const FlowId f : live) {
        rescan = std::min(rescan, s.preferences().weight(f));
      }
    }
    ASSERT_EQ(s.preferences().min_weight(), rescan) << "step " << step;
    if (!live.empty() && rescan > before) ++last_minimum_left;
    for (const FlowId f : live) {
      ASSERT_EQ(s.quantum_of(f),
                std::llround(s.preferences().weight(f) / rescan * kBase))
          << "flow " << f << " at step " << step;
    }
  }
  EXPECT_GT(last_minimum_left, 100) << "the walk must retire the minimum often";
}

TEST(MiDrrEdge, WillingnessFlipDuringActiveTurn) {
  // Revoking the current flow's willingness mid-turn must not corrupt the
  // ring or serve the flow again on that interface.
  MiDrrScheduler s(3000);
  const IfaceId j = s.add_interface();
  const FlowId a = s.add_flow({.weight = 1.0, .willing = {j}});
  const FlowId b = s.add_flow({.weight = 1.0, .willing = {j}});
  for (int i = 0; i < 4; ++i) {
    s.enqueue(Packet(a, 1000), 0);
    s.enqueue(Packet(b, 1000), 0);
  }
  const auto first = s.dequeue(j, 0);  // serves someone, turn open
  ASSERT_TRUE(first.has_value());
  s.set_willing(first->flow, j, false);
  for (int i = 0; i < 8; ++i) {
    const auto p = s.dequeue(j, 0);
    if (!p) break;
    EXPECT_NE(p->flow, first->flow);
  }
}

TEST(MiDrrEdge, InterfaceAddedAfterBackloggedFlows) {
  // Flows already backlogged when a new interface appears must enter its
  // ring as soon as willingness is granted.
  MiDrrScheduler s(1500);
  const IfaceId j0 = s.add_interface();
  const FlowId a = s.add_flow({.weight = 1.0, .willing = {j0}});
  for (int i = 0; i < 4; ++i) s.enqueue(Packet(a, 1000), 0);
  const IfaceId j1 = s.add_interface();
  EXPECT_FALSE(s.dequeue(j1, 0).has_value());
  s.set_willing(a, j1, true);
  EXPECT_TRUE(s.dequeue(j1, 0).has_value());
}

TEST(MiDrrEdge, ReaddingFlowAfterRemovalIsClean) {
  MiDrrScheduler s(1500);
  const IfaceId j = s.add_interface();
  const FlowId a = s.add_flow({.weight = 1.0, .willing = {j}});
  s.enqueue(Packet(a, 1000), 0);
  s.remove_flow(a);
  const FlowId b = s.add_flow({.weight = 2.0, .willing = {j}});
  EXPECT_NE(a, b);
  s.enqueue(Packet(b, 1000), 0);
  const auto p = s.dequeue(j, 0);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->flow, b);
  EXPECT_EQ(s.sent_bytes(b), 1000u);
}

TEST(WfqEdge, InterfaceAddedLaterGetsOwnVirtualClock) {
  PerIfaceWfqScheduler s;
  const IfaceId j0 = s.add_interface();
  const FlowId a = s.add_flow({.weight = 1.0, .willing = {j0}});
  for (int i = 0; i < 10; ++i) s.enqueue(Packet(a, 1000), 0);
  for (int i = 0; i < 5; ++i) s.dequeue(j0, 0);
  const IfaceId j1 = s.add_interface();
  EXPECT_DOUBLE_EQ(s.virtual_time(j1), 0.0);
  s.set_willing(a, j1, true);
  EXPECT_TRUE(s.dequeue(j1, 0).has_value());
  EXPECT_GT(s.virtual_time(j1), 0.0);
}

TEST(OracleEdge, ZeroCapacityEverywhereIdles) {
  OracleMaxMinScheduler s([](IfaceId) { return 0.0; });
  const IfaceId j = s.add_interface();
  const FlowId a = s.add_flow({.weight = 1.0, .willing = {j}});
  s.enqueue(Packet(a, 1000), 0);
  // Zero capacity -> zero targets; the oracle still serves (work
  // conservation: max lag regardless of sign), it just has no preference.
  EXPECT_TRUE(s.dequeue(j, 0).has_value());
}

TEST(OracleEdge, FlowChurnKeepsTargetsConsistent) {
  OracleMaxMinScheduler s([](IfaceId) { return 1e6; });
  const IfaceId j = s.add_interface();
  const FlowId a = s.add_flow({.weight = 1.0, .willing = {j}});
  s.enqueue(Packet(a, 1000), 0);
  EXPECT_TRUE(s.dequeue(j, kSecond).has_value());
  const FlowId b = s.add_flow({.weight = 2.0, .willing = {j}});
  for (int i = 0; i < 6; ++i) {
    s.enqueue(Packet(a, 1000), 2 * kSecond);
    s.enqueue(Packet(b, 1000), 2 * kSecond);
  }
  int served = 0;
  while (s.dequeue(j, 2 * kSecond + served * 8 * kMillisecond)) ++served;
  EXPECT_EQ(served, 12);
  s.remove_flow(b);
  s.enqueue(Packet(a, 1000), 3 * kSecond);
  EXPECT_TRUE(s.dequeue(j, 3 * kSecond).has_value());
}

TEST(RunnerEdge, ZeroDurationRunIsValid) {
  Scenario sc;
  sc.interface("if1", RateProfile(mbps(1)));
  sc.backlogged_flow("a", 1.0, {"if1"});
  ScenarioRunner runner(sc, Policy::kMiDrr);
  const auto result = runner.run(0);
  // At t=0 the transmitter may already have PULLED one packet (scheduler
  // hand-off), but nothing can have finished transmitting yet.
  EXPECT_EQ(result.ifaces[0].bytes_sent, 0u);
  EXPECT_LE(result.flows[0].bytes_sent, 1500u);
}

TEST(RunnerEdge, FlowStartingAfterHorizonNeverRuns) {
  Scenario sc;
  sc.interface("if1", RateProfile(mbps(1)));
  sc.backlogged_flow("late", 1.0, {"if1"}, 0, 1500, 100 * kSecond);
  ScenarioRunner runner(sc, Policy::kMiDrr);
  const auto result = runner.run(10 * kSecond);
  EXPECT_EQ(result.flows[0].bytes_sent, 0u);
  EXPECT_EQ(result.flows[0].id, kInvalidFlow);
}

TEST(RunnerEdge, BackwardHorizonRejected) {
  Scenario sc;
  sc.interface("if1", RateProfile(mbps(1)));
  sc.backlogged_flow("a", 1.0, {"if1"});
  ScenarioRunner runner(sc, Policy::kMiDrr);
  runner.run(5 * kSecond);
  EXPECT_THROW(runner.run(2 * kSecond), PreconditionError);
}

TEST(RunnerEdge, EmptyScenarioRejected) {
  Scenario sc;
  EXPECT_THROW(ScenarioRunner(sc, Policy::kMiDrr), PreconditionError);
}

TEST(RunnerEdge, UnknownInterfaceNameInFlowRejectedAtStart) {
  Scenario sc;
  sc.interface("if1", RateProfile(mbps(1)));
  sc.backlogged_flow("a", 1.0, {"nope"});
  ScenarioRunner runner(sc, Policy::kMiDrr);
  EXPECT_THROW(runner.run(kSecond), PreconditionError);
}

TEST(DequeueBurstEdge, ZeroBudgetIsANoOp) {
  // A zero byte budget must return without granting a DRR turn: no deficit
  // moves, no service flag is set, and a later real budget sees the exact
  // state a fresh scheduler would have.
  MiDrrScheduler s(1500);
  const IfaceId j = s.add_interface();
  const FlowId a = s.add_flow({.weight = 1.0, .willing = {j}});
  for (int i = 0; i < 4; ++i) s.enqueue(Packet(a, 1000), 0);
  std::vector<Packet> out;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(s.dequeue_burst(j, 0, 0, out), 0u);
  }
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(s.deficit_of(a), 0);
  EXPECT_EQ(s.backlog_packets(a), 4u);
  // The first real budget still serves normally.
  EXPECT_EQ(s.dequeue_burst(j, 1000, 0, out), 1u);
}

TEST(DequeueBurstEdge, EmptyRingReturnsZeroRepeatably) {
  // Draining an interface with no eligible flow -- never backlogged, or
  // drained dry mid-burst -- must return 0 cleanly, any number of times.
  MiDrrScheduler s(1500);
  const IfaceId j = s.add_interface();
  const FlowId a = s.add_flow({.weight = 1.0, .willing = {j}});
  std::vector<Packet> out;
  EXPECT_EQ(s.dequeue_burst(j, 1 << 20, 0, out), 0u);  // never backlogged
  s.enqueue(Packet(a, 1000), 0);
  EXPECT_EQ(s.dequeue_burst(j, 1 << 20, 0, out), 1u);  // drains dry
  EXPECT_EQ(s.dequeue_burst(j, 1 << 20, 0, out), 0u);  // empty again
  EXPECT_EQ(s.dequeue_burst(j, 1 << 20, 0, out), 0u);
  EXPECT_EQ(out.size(), 1u);
}

TEST(DequeueBurstEdge, SubPacketBudgetOvershootsByOnePacket) {
  // A budget smaller than the head packet still sends it (a transmit
  // opportunity is never wasted on a partial fit) -- but exactly one.
  MiDrrScheduler s(1500);
  const IfaceId j = s.add_interface();
  const FlowId a = s.add_flow({.weight = 1.0, .willing = {j}});
  for (int i = 0; i < 4; ++i) s.enqueue(Packet(a, 1000), 0);
  std::vector<Packet> out;
  EXPECT_EQ(s.dequeue_burst(j, 1, 0, out), 1u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].size_bytes, 1000u);
}

TEST(DequeueBurstEdge, UnknownInterfaceStillRejected) {
  MiDrrScheduler s(1500);
  std::vector<Packet> out;
  EXPECT_THROW(s.dequeue_burst(7, 0, 0, out), PreconditionError);
}

TEST(NaiveDrrEdge, PerIfaceDeficitsIndependent) {
  NaiveDrrScheduler s(1500);
  const IfaceId j0 = s.add_interface();
  const IfaceId j1 = s.add_interface();
  const FlowId a = s.add_flow({.weight = 1.0, .willing = {j0, j1}});
  for (int i = 0; i < 8; ++i) s.enqueue(Packet(a, 1000), 0);
  s.dequeue(j0, 0);
  // j0's leftover deficit (500) must not leak into j1's.
  EXPECT_EQ(s.deficit_of(a, j0), 500);
  EXPECT_EQ(s.deficit_of(a, j1), 0);
  s.dequeue(j1, 0);
  EXPECT_EQ(s.deficit_of(a, j1), 500);
}

}  // namespace
}  // namespace midrr
