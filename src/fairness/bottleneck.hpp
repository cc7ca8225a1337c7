// The test oracle for solve_max_min: bottleneck-set iteration by brute
// force.
//
// At each step, consider every non-empty subset S of the remaining
// interfaces and the flows *confined* to S (all their willing interfaces
// lie inside S).  The subset minimizing
//
//      level(S) = capacity(S) / total_weight(confined(S))
//
// is the bottleneck: its confined flows can never do better than level(S),
// and every other flow can do at least as well, so they freeze at exactly
// that level; S's capacity is exactly consumed by them, both are removed,
// and the iteration continues (Megiddo 1974's lexicographic argument).
//
// solve_max_min runs the same stages but finds each bottleneck with
// Dinkelbach's iteration on a max-flow.  This oracle enumerates all 2^m
// subsets instead and shares none of its solving code, so it is
// exponential in the interface count and capped at 20.  tests/test_solver_crosscheck.cpp
// holds the two to 1e-12 of the total capacity over thousands of random
// instances; only tests call it.
#pragma once

#include "fairness/maxmin.hpp"

namespace midrr::fair {

/// Same contract as solve_max_min (rates only; no split matrix).
/// Requires iface_count() <= 20.
MaxMinResult solve_max_min_bottleneck(const MaxMinInput& input);

}  // namespace midrr::fair
