#include "topology/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "common/assert.hpp"
#include "common/error.hpp"

namespace fastcons {

std::vector<std::size_t> bfs_hops(const Graph& g, NodeId source) {
  FASTCONS_EXPECTS(source < g.size());
  constexpr auto unreachable = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> dist(g.size(), unreachable);
  std::queue<NodeId> frontier;
  dist[source] = 0;
  frontier.push(source);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (const Edge& e : g.neighbours(u)) {
      if (dist[e.peer] == unreachable) {
        dist[e.peer] = dist[u] + 1;
        frontier.push(e.peer);
      }
    }
  }
  return dist;
}

std::vector<double> shortest_latencies(const Graph& g, NodeId source) {
  FASTCONS_EXPECTS(source < g.size());
  constexpr double inf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(g.size(), inf);
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
  dist[source] = 0.0;
  heap.push({0.0, source});
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) continue;
    for (const Edge& e : g.neighbours(u)) {
      const double nd = d + e.latency;
      if (nd < dist[e.peer]) {
        dist[e.peer] = nd;
        heap.push({nd, e.peer});
      }
    }
  }
  return dist;
}

std::vector<std::vector<NodeId>> connected_components(const Graph& g) {
  std::vector<std::vector<NodeId>> components;
  std::vector<bool> seen(g.size(), false);
  for (NodeId start = 0; start < g.size(); ++start) {
    if (seen[start]) continue;
    components.emplace_back();
    auto& component = components.back();
    std::queue<NodeId> frontier;
    seen[start] = true;
    frontier.push(start);
    while (!frontier.empty()) {
      const NodeId u = frontier.front();
      frontier.pop();
      component.push_back(u);
      for (const Edge& e : g.neighbours(u)) {
        if (!seen[e.peer]) {
          seen[e.peer] = true;
          frontier.push(e.peer);
        }
      }
    }
  }
  return components;
}

bool is_connected(const Graph& g) {
  if (g.empty()) return true;
  return connected_components(g).size() == 1;
}

double PathStats::mean_path_length() const {
  FASTCONS_EXPECTS(nodes >= 2);
  const auto n = static_cast<double>(nodes);
  return static_cast<double>(hop_sum) / (n * (n - 1.0));
}

PathStats path_stats(const Graph& g) {
  PathStats stats;
  stats.nodes = g.size();
  constexpr auto unreached = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> dist(g.size());
  std::vector<NodeId> queue(g.size());
  for (NodeId s = 0; s < g.size(); ++s) {
    std::fill(dist.begin(), dist.end(), unreached);
    dist[s] = 0;
    queue[0] = s;
    std::size_t head = 0;
    std::size_t tail = 1;
    while (head < tail) {
      const NodeId u = queue[head++];
      const std::size_t next = dist[u] + 1;
      for (const Edge& e : g.neighbours(u)) {
        if (dist[e.peer] == unreached) {
          dist[e.peer] = next;
          queue[tail++] = e.peer;
          stats.hop_sum += next;
        }
      }
    }
    if (tail != g.size()) return PathStats{g.size(), false, 0, 0};
    // BFS dequeues in non-decreasing distance: the last node is farthest.
    stats.diameter = std::max(stats.diameter, dist[queue[tail - 1]]);
  }
  return stats;
}

std::size_t diameter(const Graph& g) {
  if (g.empty()) throw ConfigError("diameter of empty graph");
  const PathStats stats = path_stats(g);
  if (!stats.connected) throw ConfigError("diameter of disconnected graph");
  return stats.diameter;
}

double mean_path_length(const Graph& g) {
  if (g.size() < 2) throw ConfigError("mean_path_length needs >= 2 nodes");
  const PathStats stats = path_stats(g);
  if (!stats.connected) {
    throw ConfigError("mean_path_length on disconnected graph");
  }
  return stats.mean_path_length();
}

std::vector<std::size_t> degree_sequence(const Graph& g) {
  std::vector<std::size_t> degrees(g.size());
  for (NodeId n = 0; n < g.size(); ++n) degrees[n] = g.degree(n);
  std::sort(degrees.begin(), degrees.end(), std::greater<>());
  return degrees;
}

PowerLawFit degree_rank_fit(const Graph& g) {
  const auto degrees = degree_sequence(g);
  // Least squares on (log rank, log degree); degree-0 nodes are skipped
  // (log undefined) — random-but-connected generators never produce them.
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0, syy = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < degrees.size(); ++i) {
    if (degrees[i] == 0) continue;
    const double x = std::log(static_cast<double>(i + 1));
    const double y = std::log(static_cast<double>(degrees[i]));
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
    syy += y * y;
    ++count;
  }
  PowerLawFit fit;
  if (count < 2) return fit;
  const auto n = static_cast<double>(count);
  const double denom = n * sxx - sx * sx;
  if (denom == 0.0) return fit;
  fit.slope = (n * sxy - sx * sy) / denom;
  fit.intercept = (sy - fit.slope * sx) / n;
  const double ss_tot = syy - sy * sy / n;
  const double ss_res = ss_tot - fit.slope * (sxy - sx * sy / n);
  fit.r_squared = ss_tot <= 0.0 ? 1.0 : 1.0 - ss_res / ss_tot;
  return fit;
}

}  // namespace fastcons
