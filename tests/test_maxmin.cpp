// Unit tests for the weighted max-min reference solver on the paper's
// worked examples (Section 1, Figure 1; Section 6.2, Figure 6).
#include <gtest/gtest.h>

#include "fairness/maxmin.hpp"

namespace midrr::fair {
namespace {

constexpr double kMbps = 1e6;

MaxMinInput fig1c() {
  // Two 1 Mb/s interfaces; flow a willing to use both, flow b only iface 2.
  MaxMinInput in;
  in.weights = {1.0, 1.0};
  in.capacities_bps = {1 * kMbps, 1 * kMbps};
  in.willing = {{true, true}, {false, true}};
  return in;
}

TEST(MaxMin, SingleInterfaceEqualSplit) {
  MaxMinInput in;
  in.weights = {1.0, 1.0};
  in.capacities_bps = {2 * kMbps};
  in.willing = {{true}, {true}};
  const auto r = solve_max_min(in);
  EXPECT_NEAR(r.rates_bps[0], 1 * kMbps, 1e3);
  EXPECT_NEAR(r.rates_bps[1], 1 * kMbps, 1e3);
}

TEST(MaxMin, SingleInterfaceWeightedSplit) {
  MaxMinInput in;
  in.weights = {2.0, 1.0};
  in.capacities_bps = {3 * kMbps};
  in.willing = {{true}, {true}};
  const auto r = solve_max_min(in);
  EXPECT_NEAR(r.rates_bps[0], 2 * kMbps, 1e3);
  EXPECT_NEAR(r.rates_bps[1], 1 * kMbps, 1e3);
}

TEST(MaxMin, Fig1bNoPreferencesEqualSplit) {
  MaxMinInput in;
  in.weights = {1.0, 1.0};
  in.capacities_bps = {1 * kMbps, 1 * kMbps};
  in.willing = {{true, true}, {true, true}};
  const auto r = solve_max_min(in);
  EXPECT_NEAR(r.rates_bps[0], 1 * kMbps, 1e3);
  EXPECT_NEAR(r.rates_bps[1], 1 * kMbps, 1e3);
}

TEST(MaxMin, Fig1cInterfacePreferenceGivesOneEach) {
  // The paper: WFQ would give a=1.5, b=0.5; max-min fair is 1 and 1.
  const auto r = solve_max_min(fig1c());
  EXPECT_NEAR(r.rates_bps[0], 1 * kMbps, 1e3);
  EXPECT_NEAR(r.rates_bps[1], 1 * kMbps, 1e3);
  // Split: flow a's megabit comes (essentially) entirely from interface 1.
  EXPECT_NEAR(r.alloc_bps[0][0], 1 * kMbps, 1e4);
  EXPECT_NEAR(r.alloc_bps[1][1], 1 * kMbps, 1e4);
}

TEST(MaxMin, Fig1cInfeasibleRatePreferenceSpillsCapacity) {
  // Section 1: phi_b = 2 phi_a, but b can only use interface 2 (1 Mb/s).
  // b is capped at 1 Mb/s; a gets all remaining capacity (1 Mb/s), NOT the
  // 0.5 Mb/s a strict 2:1 split would give.
  MaxMinInput in = fig1c();
  in.weights = {1.0, 2.0};
  const auto r = solve_max_min(in);
  EXPECT_NEAR(r.rates_bps[1], 1 * kMbps, 1e3);
  EXPECT_NEAR(r.rates_bps[0], 1 * kMbps, 1e3);
}

TEST(MaxMin, Fig6InitialPhase) {
  // if1 = 3 Mb/s (flow a only); if2 = 10 Mb/s shared by b (w=2) and c (w=1).
  MaxMinInput in;
  in.weights = {1.0, 2.0, 1.0};
  in.capacities_bps = {3 * kMbps, 10 * kMbps};
  in.willing = {{true, false}, {false, true}, {false, true}};
  const auto r = solve_max_min(in);
  EXPECT_NEAR(r.rates_bps[0], 3 * kMbps, 1e3);
  EXPECT_NEAR(r.rates_bps[1], 6.6667 * kMbps, 1e3);
  EXPECT_NEAR(r.rates_bps[2], 3.3333 * kMbps, 1e3);
}

TEST(MaxMin, Fig6MiddlePhaseAggregation) {
  // After flow a ends: b (w=2) uses both ifaces, c (w=1) only if2.
  // Cluster {b, c | if1, if2}: level = 13/3, so b=8.67, c=4.33.
  MaxMinInput in;
  in.weights = {2.0, 1.0};
  in.capacities_bps = {3 * kMbps, 10 * kMbps};
  in.willing = {{true, true}, {false, true}};
  const auto r = solve_max_min(in);
  EXPECT_NEAR(r.rates_bps[0], 8.6667 * kMbps, 1e3);
  EXPECT_NEAR(r.rates_bps[1], 4.3333 * kMbps, 1e3);
}

TEST(MaxMin, PaperIntroExampleFig6FinalPhase) {
  MaxMinInput in;
  in.weights = {1.0};
  in.capacities_bps = {3 * kMbps, 10 * kMbps};
  in.willing = {{false, true}};
  const auto r = solve_max_min(in);
  EXPECT_NEAR(r.rates_bps[0], 10 * kMbps, 1e3);
}

TEST(MaxMin, DisconnectedFlowGetsZero) {
  MaxMinInput in;
  in.weights = {1.0, 1.0};
  in.capacities_bps = {5 * kMbps};
  in.willing = {{true}, {false}};
  const auto r = solve_max_min(in);
  EXPECT_NEAR(r.rates_bps[0], 5 * kMbps, 1e3);
  EXPECT_NEAR(r.rates_bps[1], 0.0, 1.0);
}

TEST(MaxMin, ZeroCapacityInterface) {
  MaxMinInput in;
  in.weights = {1.0, 1.0};
  in.capacities_bps = {0.0, 4 * kMbps};
  in.willing = {{true, false}, {true, true}};
  const auto r = solve_max_min(in);
  EXPECT_NEAR(r.rates_bps[0], 0.0, 1.0);
  EXPECT_NEAR(r.rates_bps[1], 4 * kMbps, 1e3);
}

TEST(MaxMin, NoFlows) {
  MaxMinInput in;
  in.capacities_bps = {1 * kMbps};
  const auto r = solve_max_min(in);
  EXPECT_TRUE(r.rates_bps.empty());
}

TEST(MaxMin, TotalRateIsWorkConserving) {
  // Fully connected: total equals total capacity.
  MaxMinInput in;
  in.weights = {1.0, 3.0, 2.0};
  in.capacities_bps = {2 * kMbps, 5 * kMbps, 1 * kMbps};
  in.willing = {{true, true, true}, {true, true, true}, {true, true, true}};
  const auto r = solve_max_min(in);
  EXPECT_NEAR(r.total_rate_bps(), 8 * kMbps, 1e4);
}

TEST(MaxMin, ChainTopologyThreeClusters) {
  // f0 -- if0 (1M); f1 -- if0, if1; f2 -- if1 (10M).
  // Max-min: f0 and f1 could share if0, but f1 does better on if1.
  MaxMinInput in;
  in.weights = {1.0, 1.0, 1.0};
  in.capacities_bps = {1 * kMbps, 10 * kMbps};
  in.willing = {{true, false}, {true, true}, {false, true}};
  const auto r = solve_max_min(in);
  EXPECT_NEAR(r.rates_bps[0], 1 * kMbps, 1e3);
  EXPECT_NEAR(r.rates_bps[1], 5 * kMbps, 1e4);
  EXPECT_NEAR(r.rates_bps[2], 5 * kMbps, 1e4);
}

TEST(MaxMin, LevelsAreMonotoneAcrossClusters) {
  MaxMinInput in;
  in.weights = {1.0, 1.0, 1.0};
  in.capacities_bps = {1 * kMbps, 10 * kMbps};
  in.willing = {{true, false}, {true, true}, {false, true}};
  const auto r = solve_max_min(in);
  // f0 froze at a lower level than f1/f2.
  EXPECT_LT(r.levels[0], r.levels[1]);
  EXPECT_NEAR(r.levels[1], r.levels[2], 1.0);
}

}  // namespace
}  // namespace midrr::fair
