// Property tests (Theorem 3): for randomized problem instances
// (n, m, Pi, phi, C), miDRR's long-run empirical rates must converge to the
// weighted max-min allocation computed by the reference solver -- while
// the baselines may not.  Also checks work conservation and
// preference enforcement on every instance.
#include <gtest/gtest.h>

#include <sstream>

#include "core/scenario.hpp"
#include "fairness/maxmin.hpp"
#include "util/indexed_name.hpp"
#include "util/rng.hpp"

namespace midrr {
namespace {

struct RandomProblem {
  Scenario scenario;
  fair::MaxMinInput input;
  std::vector<std::string> flow_names;
};

// Sparse family: each flow is pinned to one random interface, plus one
// "aggregator" flow willing on a random subset -- the generalization of the
// paper's own topologies (Fig 1, Fig 6).  Here the Theorem 3 argument is
// exact and miDRR must converge tightly to the reference allocation.
RandomProblem make_sparse_problem(std::uint64_t seed) {
  Rng rng(seed * 7919 + 13);
  const auto n = static_cast<std::size_t>(rng.uniform_int(2, 5));
  const auto m = static_cast<std::size_t>(rng.uniform_int(2, 4));

  RandomProblem p;
  std::vector<std::string> iface_names;
  for (std::size_t j = 0; j < m; ++j) {
    const double cap = rng.uniform(1.0, 12.0);
    iface_names.push_back(indexed_name("if", j));
    p.scenario.interface(iface_names.back(), RateProfile(mbps(cap)));
    p.input.capacities_bps.push_back(mbps(cap));
  }
  const double weight_choices[] = {0.5, 1.0, 2.0, 4.0};
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<bool> row(m, false);
    std::vector<std::string> willing;
    const auto pinned = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(m) - 1));
    row[pinned] = true;
    willing.push_back(iface_names[pinned]);
    const double w =
        weight_choices[static_cast<std::size_t>(rng.uniform_int(0, 3))];
    p.input.weights.push_back(w);
    p.input.willing.push_back(row);
    p.flow_names.push_back(indexed_name("f", i));
    p.scenario.backlogged_flow(p.flow_names.back(), w, willing);
  }
  // The aggregator: willing on every interface (it soaks up the leftover
  // capacity of whichever cluster is fastest).
  std::vector<bool> row(m, true);
  std::vector<std::string> willing(iface_names);
  p.input.weights.push_back(1.0);
  p.input.willing.push_back(row);
  p.flow_names.push_back("agg");
  p.scenario.backlogged_flow("agg", 1.0, willing);
  return p;
}

// Dense family: arbitrary bipartite willingness.  Here the one-bit service
// flag is only an approximation of max-min (see DESIGN.md: the flag
// equalizes *turn frequencies*, which matches rates exactly only when the
// flows an interface skips are compared against single-interface flows), so
// the assertion is correspondingly looser.
RandomProblem make_problem(std::uint64_t seed) {
  Rng rng(seed);
  const auto n = static_cast<std::size_t>(rng.uniform_int(2, 6));
  const auto m = static_cast<std::size_t>(rng.uniform_int(1, 4));

  RandomProblem p;
  std::vector<std::string> iface_names;
  for (std::size_t j = 0; j < m; ++j) {
    const double cap = rng.uniform(1.0, 15.0);
    iface_names.push_back(indexed_name("if", j));
    p.scenario.interface(iface_names.back(), RateProfile(mbps(cap)));
    p.input.capacities_bps.push_back(mbps(cap));
  }
  const double weight_choices[] = {0.5, 1.0, 2.0, 4.0};
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<bool> row(m, false);
    std::vector<std::string> willing;
    // Guarantee at least one interface per flow.
    const auto forced = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(m) - 1));
    for (std::size_t j = 0; j < m; ++j) {
      if (j == forced || rng.coin(0.45)) {
        row[j] = true;
        willing.push_back(iface_names[j]);
      }
    }
    const double w =
        weight_choices[static_cast<std::size_t>(rng.uniform_int(0, 3))];
    p.input.weights.push_back(w);
    p.input.willing.push_back(row);
    const std::string name = indexed_name("f", i);
    p.flow_names.push_back(name);
    p.scenario.backlogged_flow(name, w, willing);
  }
  return p;
}

std::vector<double> empirical_rates_bps(const ScenarioResult& result,
                                        SimTime from, SimTime to) {
  std::vector<double> rates;
  for (const auto& f : result.flows) {
    rates.push_back(f.mean_rate_mbps(from, to) * 1e6);
  }
  return rates;
}

class MaxMinPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaxMinPropertyTest, SparseTopologyOneSidedBounds) {
  // Reproduction finding (see EXPERIMENTS.md): the one-bit service flag
  // saturates -- it records "served at least once elsewhere", not how many
  // times -- so an interface cannot skip a multi-homed flow on more than
  // roughly every other round.  When the max-min allocation requires deeper
  // suppression than that, the multi-homed flow ends ABOVE its max-min rate
  // and the pinned flows it squeezes end below theirs (but never below
  // their plain per-interface DRR share).  Hence one-sided bounds:
  //   pinned flows:  per-interface-DRR share - tol <= r_i <= maxmin + tol
  //   aggregator:                        maxmin - tol <= r_agg
  RandomProblem p = make_sparse_problem(GetParam());
  const auto reference = fair::solve_max_min(p.input);

  ScenarioRunner runner(p.scenario, Policy::kMiDrr);
  const SimTime duration = 40 * kSecond;
  const auto result = runner.run(duration);
  const auto rates = empirical_rates_bps(result, 15 * kSecond, duration);

  double capacity_scale = 0.0;
  for (double c : p.input.capacities_bps) capacity_scale += c;
  const double tol = 0.02 * capacity_scale;

  const std::size_t n = p.input.weights.size();
  const std::size_t agg = n - 1;  // last flow is the all-interface one
  for (std::size_t i = 0; i + 1 < n; ++i) {
    EXPECT_LE(rates[i], reference.rates_bps[i] + tol)
        << "pinned flow " << i << " above max-min (seed " << GetParam() << ")";
    // Per-interface weighted share floor on the flow's pinned interface.
    std::size_t j = 0;
    while (!p.input.willing[i][j]) ++j;
    double weight_sum = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      if (p.input.willing[k][j]) weight_sum += p.input.weights[k];
    }
    const double floor =
        p.input.weights[i] / weight_sum * p.input.capacities_bps[j];
    EXPECT_GE(rates[i], floor - tol)
        << "pinned flow " << i << " below its DRR share (seed " << GetParam()
        << ")";
  }
  EXPECT_GE(rates[agg], reference.rates_bps[agg] - tol)
      << "aggregator below max-min (seed " << GetParam() << ")";
}

TEST_P(MaxMinPropertyTest, SparseTopologyCloserToMaxMinThanBaselines) {
  // The headline comparison: miDRR's allocation is closer (L1 over
  // normalized rates) to the reference max-min than naive per-interface
  // DRR's and per-interface WFQ's.
  RandomProblem p = make_sparse_problem(GetParam());
  const auto reference = fair::solve_max_min(p.input);
  const SimTime duration = 40 * kSecond;

  const auto distance = [&](Policy policy) {
    ScenarioRunner runner(p.scenario, policy);
    const auto result = runner.run(duration);
    const auto rates = empirical_rates_bps(result, 15 * kSecond, duration);
    double d = 0.0;
    for (std::size_t i = 0; i < rates.size(); ++i) {
      d += std::abs(rates[i] - reference.rates_bps[i]) / p.input.weights[i];
    }
    return d;
  };

  double capacity_scale = 0.0;
  for (double c : p.input.capacities_bps) capacity_scale += c;
  const double slack = 0.02 * capacity_scale;

  const double d_mi = distance(Policy::kMiDrr);
  EXPECT_LE(d_mi, distance(Policy::kNaiveDrr) + slack)
      << "seed " << GetParam();
  EXPECT_LE(d_mi, distance(Policy::kPerIfaceWfq) + slack)
      << "seed " << GetParam();
}

TEST_P(MaxMinPropertyTest, DenseTopologyApproximatesReference) {
  // On dense willingness graphs the service flag is an approximation; the
  // reproduction finding (documented in EXPERIMENTS.md) is that deviations
  // stay within ~25% of a flow's reference rate while the baselines can be
  // off by an unbounded factor.
  RandomProblem p = make_problem(GetParam());
  const auto reference = fair::solve_max_min(p.input);

  ScenarioRunner runner(p.scenario, Policy::kMiDrr);
  const SimTime duration = 40 * kSecond;
  const auto result = runner.run(duration);
  const auto rates = empirical_rates_bps(result, 15 * kSecond, duration);

  double capacity_scale = 0.0;
  for (double c : p.input.capacities_bps) capacity_scale += c;

  for (std::size_t i = 0; i < rates.size(); ++i) {
    const double want = reference.rates_bps[i];
    const double tol = std::max(0.25 * want, 0.03 * capacity_scale);
    EXPECT_NEAR(rates[i], want, tol)
        << "flow " << i << " (seed " << GetParam() << ")";
  }
}

TEST_P(MaxMinPropertyTest, WorkConservationHolds) {
  RandomProblem p = make_problem(GetParam());
  ScenarioRunner runner(p.scenario, Policy::kMiDrr);
  const SimTime duration = 20 * kSecond;
  const auto result = runner.run(duration);

  // With every flow infinitely backlogged and every interface reachable by
  // at least one flow... interfaces no flow wants may idle; count only
  // wanted interfaces.
  for (std::size_t j = 0; j < result.ifaces.size(); ++j) {
    bool wanted = false;
    for (const auto& row : p.input.willing) wanted = wanted || row[j];
    if (!wanted) continue;
    const double utilization =
        to_seconds(result.ifaces[j].busy_time) / to_seconds(duration);
    EXPECT_GT(utilization, 0.99)
        << "interface " << j << " idled (seed " << GetParam() << ")";
  }
}

TEST_P(MaxMinPropertyTest, InterfacePreferencesNeverViolated) {
  RandomProblem p = make_problem(GetParam());
  ScenarioRunner runner(p.scenario, Policy::kMiDrr);
  const auto result = runner.run(10 * kSecond);
  for (std::size_t i = 0; i < result.flows.size(); ++i) {
    for (std::size_t j = 0; j < result.ifaces.size(); ++j) {
      if (!p.input.willing[i][j]) {
        EXPECT_EQ(result.flows[i].bytes_per_iface[j], 0u)
            << "flow " << i << " leaked onto interface " << j;
      }
    }
  }
}

TEST_P(MaxMinPropertyTest, MiDrrAtLeastAsFairAsNaiveDrr) {
  // The max-min allocation lexicographically dominates: miDRR's minimum
  // normalized rate must be >= naive DRR's (up to tolerance).
  RandomProblem p = make_problem(GetParam());
  const SimTime duration = 30 * kSecond;

  ScenarioRunner runner_mi(p.scenario, Policy::kMiDrr);
  const auto res_mi = runner_mi.run(duration);
  ScenarioRunner runner_nd(p.scenario, Policy::kNaiveDrr);
  const auto res_nd = runner_nd.run(duration);

  const auto min_norm = [&](const ScenarioResult& r) {
    double v = std::numeric_limits<double>::infinity();
    const auto rates = empirical_rates_bps(r, 10 * kSecond, duration);
    for (std::size_t i = 0; i < rates.size(); ++i) {
      v = std::min(v, rates[i] / p.input.weights[i]);
    }
    return v;
  };
  double capacity_scale = 0.0;
  for (double c : p.input.capacities_bps) capacity_scale += c;
  EXPECT_GE(min_norm(res_mi), min_norm(res_nd) - 0.02 * capacity_scale)
      << "seed " << GetParam();
}

TEST_P(MaxMinPropertyTest, OracleConvergesTightlyEvenWhereFlagSaturates) {
  // The global-knowledge strawman has no one-bit limitation: it must hit
  // the reference allocation tightly on the SAME sparse instances where
  // miDRR's flag saturation shows (see SparseTopologyOneSidedBounds).
  RandomProblem p = make_sparse_problem(GetParam());
  const auto reference = fair::solve_max_min(p.input);

  ScenarioRunner runner(p.scenario, Policy::kOracle);
  const SimTime duration = 40 * kSecond;
  const auto result = runner.run(duration);
  const auto rates = empirical_rates_bps(result, 15 * kSecond, duration);

  double capacity_scale = 0.0;
  for (double c : p.input.capacities_bps) capacity_scale += c;

  for (std::size_t i = 0; i < rates.size(); ++i) {
    const double want = reference.rates_bps[i];
    const double tol = std::max(0.06 * want, 0.02 * capacity_scale);
    EXPECT_NEAR(rates[i], want, tol)
        << "flow " << i << " (seed " << GetParam() << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, MaxMinPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace midrr
