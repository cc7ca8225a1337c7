#include "fairness/maxmin.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "fairness/maxflow.hpp"
#include "util/assert.hpp"

namespace midrr::fair {

namespace {

/// Routes demands d over the willingness graph at capacities c,
///
///      source --(d_i)--> flow_i --(inf, if pi_ij)--> iface_j --(c_j)--> sink
///
/// with flow_i at node 1 + i and iface_j at node 1 + n + j, and returns the
/// nodes on the source side of the minimum cut.  A flow on that side has
/// every willing interface there too.  If `alloc_out` is set it receives
/// the split r_ij of the maximum flow.
std::vector<bool> run_feasibility(const MaxMinInput& in,
                                  const std::vector<double>& demands,
                                  const std::vector<double>& capacities,
                                  std::vector<std::vector<double>>* alloc_out) {
  const std::size_t n = in.flow_count();
  const std::size_t m = in.iface_count();
  const std::size_t source = 0;
  const std::size_t sink = n + m + 1;
  MaxFlowGraph g(n + m + 2);

  std::vector<std::vector<std::size_t>> flow_iface_edges(n);
  for (std::size_t i = 0; i < n; ++i) {
    g.add_edge(source, 1 + i, demands[i]);
    for (std::size_t j = 0; j < m; ++j) {
      if (in.willing[i][j]) {
        flow_iface_edges[i].push_back(g.add_edge(
            1 + i, 1 + n + j, std::numeric_limits<double>::infinity()));
      }
    }
  }
  for (std::size_t j = 0; j < m; ++j) {
    g.add_edge(1 + n + j, sink, capacities[j]);
  }
  g.solve(source, sink);

  if (alloc_out != nullptr) {
    alloc_out->assign(n, std::vector<double>(m, 0.0));
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t k = 0;
      for (std::size_t j = 0; j < m; ++j) {
        if (in.willing[i][j]) {
          (*alloc_out)[i][j] = g.flow_on(flow_iface_edges[i][k++]);
        }
      }
    }
  }
  return g.source_side(source);
}

}  // namespace

void MaxMinInput::validate() const {
  MIDRR_REQUIRE(willing.size() == weights.size(),
                "Pi row count must equal flow count");
  for (const auto& row : willing) {
    MIDRR_REQUIRE(row.size() == capacities_bps.size(),
                  "Pi column count must equal interface count");
  }
  for (double w : weights) {
    MIDRR_REQUIRE(w > 0.0 && std::isfinite(w), "weights must be positive");
  }
  for (double c : capacities_bps) {
    MIDRR_REQUIRE(c >= 0.0 && std::isfinite(c),
                  "capacities must be non-negative");
  }
}

double MaxMinResult::total_rate_bps() const {
  double total = 0.0;
  for (double r : rates_bps) total += r;
  return total;
}

MaxMinResult solve_max_min(const MaxMinInput& input) {
  input.validate();
  const std::size_t n = input.flow_count();
  const std::size_t m = input.iface_count();

  MaxMinResult result;
  result.rates_bps.assign(n, 0.0);
  result.levels.assign(n, 0.0);

  // A retired interface stays in the graph at zero capacity.
  std::vector<double> capacity = input.capacities_bps;
  std::vector<bool> live(m, true);
  // A flow willing on no interface freezes at zero before the first stage.
  std::vector<bool> frozen(n);
  std::size_t remaining = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<bool>& row = input.willing[i];
    frozen[i] = std::find(row.begin(), row.end(), true) == row.end();
    if (!frozen[i]) ++remaining;
  }

  // An unfrozen flow is confined to S if all its live interfaces lie in S.
  const auto confined = [&](std::size_t i, const std::vector<bool>& s) {
    if (frozen[i]) return false;
    for (std::size_t j = 0; j < m; ++j) {
      if (live[j] && input.willing[i][j] && !s[j]) return false;
    }
    return true;
  };
  // level(S) = C(S) / W(flows confined to S); +inf if S confines none.
  const auto level_of = [&](const std::vector<bool>& s) {
    double cap = 0.0;
    double weight = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      if (s[j]) cap += capacity[j];
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (confined(i, s)) weight += input.weights[i];
    }
    return weight > 0.0 ? cap / weight
                        : std::numeric_limits<double>::infinity();
  };

  std::vector<double> demands(n, 0.0);
  while (remaining > 0) {
    // Dinkelbach's iteration for the bottleneck min_S level(S): offer each
    // unfrozen flow phi_i * level(S); the minimum cut's source side is the
    // S' minimising C(S') - level(S) * W(S'), which is negative exactly
    // when level(S') < level(S).  The levels strictly fall, so this ends,
    // and at the end no set has a lower level than S.
    std::vector<bool> bottleneck = live;
    double level = level_of(bottleneck);
    for (;;) {
      for (std::size_t i = 0; i < n; ++i) {
        demands[i] = frozen[i] ? 0.0 : input.weights[i] * level;
      }
      const std::vector<bool> side =
          run_feasibility(input, demands, capacity, nullptr);
      std::vector<bool> cut(m);
      for (std::size_t j = 0; j < m; ++j) cut[j] = live[j] && side[1 + n + j];
      const double cut_level = level_of(cut);
      if (cut_level >= level) break;
      bottleneck = std::move(cut);
      level = cut_level;
    }

    // The confined flows can do no better and every other flow no worse
    // (Megiddo 1974): freeze them at the level and retire the set.
    for (std::size_t i = 0; i < n; ++i) {
      if (!confined(i, bottleneck)) continue;
      frozen[i] = true;
      result.rates_bps[i] = input.weights[i] * level;
      result.levels[i] = level;
      --remaining;
    }
    for (std::size_t j = 0; j < m; ++j) {
      if (bottleneck[j]) {
        live[j] = false;
        capacity[j] = 0.0;
      }
    }
  }

  // One final max-flow at the converged rates yields a valid split.
  run_feasibility(input, result.rates_bps, input.capacities_bps,
                  &result.alloc_bps);
  return result;
}

}  // namespace midrr::fair
