// Cross-validation of the two independent max-min solvers: solve_max_min
// (bottleneck stages found by Dinkelbach's iteration on a Dinic max-flow)
// and the oracle solve_max_min_bottleneck (every interface subset
// enumerated, no max-flow).  Agreement over thousands of random instances
// gives high confidence in both; every known worked example is checked
// against each.  Past the oracle's 20 interfaces, the Theorem 2 conditions
// stand in for it.
#include <gtest/gtest.h>

#include <cmath>

#include "fairness/bottleneck.hpp"
#include "fairness/clusters.hpp"
#include "fairness/maxmin.hpp"
#include "util/rng.hpp"

namespace midrr::fair {
namespace {

constexpr double kMbps = 1e6;

MaxMinInput random_instance(Rng& rng) {
  MaxMinInput in;
  const auto n = static_cast<std::size_t>(rng.uniform_int(1, 8));
  const auto m = static_cast<std::size_t>(rng.uniform_int(1, 5));
  for (std::size_t j = 0; j < m; ++j) {
    // Include zero-capacity interfaces occasionally.
    in.capacities_bps.push_back(rng.coin(0.1) ? 0.0
                                              : rng.uniform(0.5, 20.0) * kMbps);
  }
  for (std::size_t i = 0; i < n; ++i) {
    in.weights.push_back(rng.coin(0.3) ? 1.0 : rng.uniform(0.25, 4.0));
    std::vector<bool> row(m, false);
    for (std::size_t j = 0; j < m; ++j) row[j] = rng.coin(0.5);
    // ~10% of flows may legitimately end up with empty rows.
    in.willing.push_back(std::move(row));
  }
  return in;
}

// Weights over twelve decades and capacities over eight, with up to 30
// flows: a dynamic range no fixed tolerance covers.
MaxMinInput wide_instance(Rng& rng, std::int64_t min_ifaces,
                          std::int64_t max_ifaces) {
  MaxMinInput in;
  const auto n = static_cast<std::size_t>(rng.uniform_int(1, 30));
  const auto m =
      static_cast<std::size_t>(rng.uniform_int(min_ifaces, max_ifaces));
  for (std::size_t j = 0; j < m; ++j) {
    in.capacities_bps.push_back(
        rng.coin(0.1) ? 0.0 : std::pow(10.0, rng.uniform(3.0, 11.0)));
  }
  for (std::size_t i = 0; i < n; ++i) {
    in.weights.push_back(std::pow(10.0, rng.uniform(-6.0, 6.0)));
    std::vector<bool> row(m, false);
    for (std::size_t j = 0; j < m; ++j) row[j] = rng.coin(0.5);
    in.willing.push_back(std::move(row));
  }
  return in;
}

double capacity_scale(const MaxMinInput& in) {
  double scale = 1.0;
  for (double c : in.capacities_bps) scale += c;
  return scale;
}

TEST(SolverCrossCheck, ThousandsOfRandomInstancesAgree) {
  struct Family {
    const char* name;
    std::uint64_t seed;
    MaxMinInput (*make)(Rng&);
  };
  const Family families[] = {
      {"paper-scale", 20130429, random_instance},
      {"wide-range", 99, [](Rng& rng) { return wide_instance(rng, 1, 8); }},
  };
  for (const Family& family : families) {
    Rng rng(family.seed);
    for (int trial = 0; trial < 3000; ++trial) {
      const MaxMinInput in = family.make(rng);
      const auto a = solve_max_min(in);
      const auto b = solve_max_min_bottleneck(in);
      const double scale = capacity_scale(in);
      for (std::size_t i = 0; i < in.flow_count(); ++i) {
        ASSERT_NEAR(a.rates_bps[i], b.rates_bps[i], 1e-12 * scale)
            << family.name << " trial " << trial << " flow " << i;
      }
    }
  }
}

TEST(SolverCrossCheck, PastTwentyInterfacesTheorem2Holds) {
  Rng rng(2013);
  for (int trial = 0; trial < 200; ++trial) {
    const MaxMinInput in = wide_instance(rng, 21, 64);
    const auto r = solve_max_min(in);
    const double slack = 1e-12 * capacity_scale(in);
    const auto violation = check_max_min_conditions(in, r.alloc_bps);
    ASSERT_FALSE(violation.has_value()) << "trial " << trial << ": "
                                        << *violation;
    std::vector<double> load(in.iface_count(), 0.0);
    for (std::size_t i = 0; i < in.flow_count(); ++i) {
      double routed = 0.0;
      for (std::size_t j = 0; j < in.iface_count(); ++j) {
        if (!in.willing[i][j]) {
          ASSERT_EQ(r.alloc_bps[i][j], 0.0) << "trial " << trial;
        }
        routed += r.alloc_bps[i][j];
        load[j] += r.alloc_bps[i][j];
      }
      ASSERT_NEAR(routed, r.rates_bps[i], slack)
          << "trial " << trial << " flow " << i;
    }
    for (std::size_t j = 0; j < in.iface_count(); ++j) {
      ASSERT_LE(load[j], in.capacities_bps[j] + slack)
          << "trial " << trial << " iface " << j;
    }
  }
}

TEST(SolverCrossCheck, BottleneckSolverOnWorkedExamples) {
  {  // Fig 1(c)
    MaxMinInput in;
    in.weights = {1.0, 1.0};
    in.capacities_bps = {1 * kMbps, 1 * kMbps};
    in.willing = {{true, true}, {false, true}};
    const auto r = solve_max_min_bottleneck(in);
    EXPECT_NEAR(r.rates_bps[0], 1 * kMbps, 1.0);
    EXPECT_NEAR(r.rates_bps[1], 1 * kMbps, 1.0);
  }
  {  // Fig 6 phase 1
    MaxMinInput in;
    in.weights = {1.0, 2.0, 1.0};
    in.capacities_bps = {3 * kMbps, 10 * kMbps};
    in.willing = {{true, false}, {true, true}, {false, true}};
    const auto r = solve_max_min_bottleneck(in);
    EXPECT_NEAR(r.rates_bps[0], 3 * kMbps, 1.0);
    EXPECT_NEAR(r.rates_bps[1], 6.666667 * kMbps, 10.0);
    EXPECT_NEAR(r.rates_bps[2], 3.333333 * kMbps, 10.0);
  }
  {  // Fig 6 phase 2
    MaxMinInput in;
    in.weights = {2.0, 1.0};
    in.capacities_bps = {3 * kMbps, 10 * kMbps};
    in.willing = {{true, true}, {false, true}};
    const auto r = solve_max_min_bottleneck(in);
    EXPECT_NEAR(r.rates_bps[0], 8.666667 * kMbps, 10.0);
    EXPECT_NEAR(r.rates_bps[1], 4.333333 * kMbps, 10.0);
  }
}

TEST(SolverCrossCheck, EdgeCases) {
  {  // no flows
    MaxMinInput in;
    in.capacities_bps = {kMbps};
    EXPECT_TRUE(solve_max_min_bottleneck(in).rates_bps.empty());
  }
  {  // disconnected flow
    MaxMinInput in;
    in.weights = {1.0, 1.0};
    in.capacities_bps = {5 * kMbps};
    in.willing = {{true}, {false}};
    const auto r = solve_max_min_bottleneck(in);
    EXPECT_NEAR(r.rates_bps[0], 5 * kMbps, 1.0);
    EXPECT_DOUBLE_EQ(r.rates_bps[1], 0.0);
  }
  {  // zero-capacity-only flow
    MaxMinInput in;
    in.weights = {1.0};
    in.capacities_bps = {0.0};
    in.willing = {{true}};
    const auto r = solve_max_min_bottleneck(in);
    EXPECT_DOUBLE_EQ(r.rates_bps[0], 0.0);
  }
  {  // interface count guard
    MaxMinInput in;
    in.capacities_bps.assign(21, kMbps);
    in.weights = {1.0};
    in.willing = {std::vector<bool>(21, true)};
    EXPECT_THROW(solve_max_min_bottleneck(in), PreconditionError);
  }
}

TEST(SolverCrossCheck, LevelsAgreeToo) {
  Rng rng(77);
  for (int trial = 0; trial < 500; ++trial) {
    const MaxMinInput in = random_instance(rng);
    const auto a = solve_max_min(in);
    const auto b = solve_max_min_bottleneck(in);
    const double scale = capacity_scale(in);
    for (std::size_t i = 0; i < in.flow_count(); ++i) {
      ASSERT_NEAR(a.levels[i], b.levels[i],
                  1e-12 * scale / std::max(1e-9, in.weights[i]))
          << "trial " << trial << " flow " << i;
    }
  }
}

}  // namespace
}  // namespace midrr::fair
