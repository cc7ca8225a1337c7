// Dinic's maximum-flow algorithm over double-valued capacities.
//
// Used by the max-min solver, both to find bottleneck interface sets (the
// source side of a minimum cut) and to split the final rates over
// interfaces.  It needs no tolerance: an augmentation pushes exactly the
// residual it read on its bottleneck edge, so that edge ends at exactly
// zero, and Dinic's bounds on phases and augmentations hold in floating
// point as they do over the reals.  A capacity may be +infinity as long as
// every source-to-sink path also crosses a finite edge.
#pragma once

#include <cstddef>
#include <vector>

namespace midrr::fair {

class MaxFlowGraph {
 public:
  explicit MaxFlowGraph(std::size_t node_count);

  /// Adds a directed edge u -> v with the given capacity; returns an edge
  /// id usable with flow_on() after solving.
  std::size_t add_edge(std::size_t u, std::size_t v, double capacity);

  /// Computes the max flow from s to t; callable once per instance.
  double solve(std::size_t s, std::size_t t);

  /// Flow pushed over the edge returned by add_edge.
  double flow_on(std::size_t edge_id) const;

  /// Nodes reachable from `s` over edges with positive residual capacity
  /// (after solve): the source side of the minimum cut that lies inside
  /// every other minimum cut's source side.
  std::vector<bool> source_side(std::size_t s) const;

 private:
  struct Edge {
    std::size_t to;
    double cap;
    std::size_t rev;  // index of the reverse edge in adj_[to]
  };

  bool bfs(std::size_t s, std::size_t t);
  double dfs(std::size_t v, std::size_t t, double pushed);

  std::vector<std::vector<Edge>> adj_;
  std::vector<int> level_;
  std::vector<std::size_t> iter_;
  std::vector<std::pair<std::size_t, std::size_t>> edge_index_;  // (node, idx)
};

}  // namespace midrr::fair
