// Graph analysis: BFS distances, diameter, components, degree statistics and
// the Faloutsos power-law fit used to validate the BRITE-replacement
// generator (paper §5 cites both).
#ifndef FASTCONS_TOPOLOGY_METRICS_HPP
#define FASTCONS_TOPOLOGY_METRICS_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "topology/graph.hpp"

namespace fastcons {

/// Hop distances from `source` to every node; unreachable == SIZE_MAX.
std::vector<std::size_t> bfs_hops(const Graph& g, NodeId source);

/// Latency-weighted shortest-path distances from `source` (Dijkstra);
/// unreachable == +inf.
std::vector<double> shortest_latencies(const Graph& g, NodeId source);

/// Connected components, each a list of node ids; the component containing
/// node 0 comes first. Empty graph -> empty result.
std::vector<std::vector<NodeId>> connected_components(const Graph& g);

bool is_connected(const Graph& g);

/// All-pairs hop statistics from one BFS per source.
struct PathStats {
  /// Nodes in the swept graph.
  std::size_t nodes = 0;
  /// False when some node is unreachable from node 0; the sweep then stops
  /// after that first source and `diameter` / `hop_sum` stay 0.
  bool connected = true;
  /// Largest hop distance between any two nodes.
  std::size_t diameter = 0;
  /// Sum of hop distances over all ordered pairs (exact).
  std::uint64_t hop_sum = 0;

  /// hop_sum over the n * (n - 1) ordered pairs. Requires nodes >= 2.
  double mean_path_length() const;
};

/// One all-pairs sweep that reuses a single distance buffer and queue. An
/// empty graph is connected with zero diameter and hop sum.
PathStats path_stats(const Graph& g);

/// Hop-count diameter. Requires a connected, non-empty graph.
std::size_t diameter(const Graph& g);

/// Mean hop distance over all ordered pairs. Requires connected, size >= 2.
double mean_path_length(const Graph& g);

/// Least-squares fit of log(degree) against log(rank) where rank 1 is the
/// highest-degree node — Faloutsos et al.'s rank exponent power law. On a
/// BA graph the slope is clearly negative with high |R|.
struct PowerLawFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;
};

PowerLawFit degree_rank_fit(const Graph& g);

/// Sorted (descending) degree sequence.
std::vector<std::size_t> degree_sequence(const Graph& g);

}  // namespace fastcons

#endif  // FASTCONS_TOPOLOGY_METRICS_HPP
