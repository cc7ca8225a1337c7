#include "fairness/maxflow.hpp"

#include <algorithm>
#include <limits>
#include <queue>

#include "util/assert.hpp"

namespace midrr::fair {

MaxFlowGraph::MaxFlowGraph(std::size_t node_count)
    : adj_(node_count), level_(node_count), iter_(node_count) {}

std::size_t MaxFlowGraph::add_edge(std::size_t u, std::size_t v,
                                   double capacity) {
  MIDRR_REQUIRE(u < adj_.size() && v < adj_.size(), "edge endpoint OOB");
  MIDRR_REQUIRE(capacity >= 0.0, "negative capacity");
  adj_[u].push_back(Edge{v, capacity, adj_[v].size()});
  adj_[v].push_back(Edge{u, 0.0, adj_[u].size() - 1});
  edge_index_.emplace_back(u, adj_[u].size() - 1);
  return edge_index_.size() - 1;
}

bool MaxFlowGraph::bfs(std::size_t s, std::size_t t) {
  std::fill(level_.begin(), level_.end(), -1);
  std::queue<std::size_t> q;
  level_[s] = 0;
  q.push(s);
  while (!q.empty()) {
    const std::size_t v = q.front();
    q.pop();
    for (const Edge& e : adj_[v]) {
      if (e.cap > 0.0 && level_[e.to] < 0) {
        level_[e.to] = level_[v] + 1;
        q.push(e.to);
      }
    }
  }
  return level_[t] >= 0;
}

double MaxFlowGraph::dfs(std::size_t v, std::size_t t, double pushed) {
  if (v == t) return pushed;
  for (std::size_t& i = iter_[v]; i < adj_[v].size(); ++i) {
    Edge& e = adj_[v][i];
    if (e.cap > 0.0 && level_[v] < level_[e.to]) {
      const double d = dfs(e.to, t, std::min(pushed, e.cap));
      if (d > 0.0) {
        e.cap -= d;
        adj_[e.to][e.rev].cap += d;
        return d;
      }
    }
  }
  return 0.0;
}

double MaxFlowGraph::solve(std::size_t s, std::size_t t) {
  MIDRR_REQUIRE(s < adj_.size() && t < adj_.size(), "terminal OOB");
  double flow = 0.0;
  while (bfs(s, t)) {
    std::fill(iter_.begin(), iter_.end(), std::size_t{0});
    double f;
    while ((f = dfs(s, t, std::numeric_limits<double>::infinity())) > 0.0) {
      flow += f;
    }
  }
  return flow;
}

double MaxFlowGraph::flow_on(std::size_t edge_id) const {
  MIDRR_REQUIRE(edge_id < edge_index_.size(), "unknown edge id");
  const auto [node, idx] = edge_index_[edge_id];
  // The reverse edge's residual is the net flow, with no cancellation
  // against a large (or infinite) forward capacity.
  const Edge& e = adj_[node][idx];
  return adj_[e.to][e.rev].cap;
}

std::vector<bool> MaxFlowGraph::source_side(std::size_t s) const {
  MIDRR_REQUIRE(s < adj_.size(), "terminal OOB");
  std::vector<bool> seen(adj_.size(), false);
  std::queue<std::size_t> q;
  seen[s] = true;
  q.push(s);
  while (!q.empty()) {
    const std::size_t v = q.front();
    q.pop();
    for (const Edge& e : adj_[v]) {
      if (e.cap > 0.0 && !seen[e.to]) {
        seen[e.to] = true;
        q.push(e.to);
      }
    }
  }
  return seen;
}

}  // namespace midrr::fair
