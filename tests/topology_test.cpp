#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "topology/generators.hpp"
#include "topology/graph.hpp"
#include "topology/metrics.hpp"

namespace fastcons {
namespace {

LatencyRange kLat{0.01, 0.05};

TEST(GraphTest, AddNodesAndEdges) {
  Graph g(3);
  EXPECT_EQ(g.size(), 3u);
  g.add_edge(0, 1, 0.5);
  g.add_edge(1, 2, 0.25);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_DOUBLE_EQ(g.latency(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(g.latency(1, 0), 0.5);
  EXPECT_EQ(g.degree(1), 2u);
}

/// Every half-edge's peer_slot must index the reverse half-edge at the
/// peer, with the same latency both ways.
void expect_reverse_slots(const Graph& g) {
  for (NodeId u = 0; u < g.size(); ++u) {
    const std::vector<Edge>& adjacency = g.neighbours(u);
    for (PeerSlot slot = 0; slot < adjacency.size(); ++slot) {
      const Edge& e = adjacency[slot];
      ASSERT_LT(e.peer_slot, g.degree(e.peer)) << u << "->" << e.peer;
      const Edge& back = g.neighbours(e.peer)[e.peer_slot];
      EXPECT_EQ(back.peer, u);
      EXPECT_EQ(back.peer_slot, slot);
      EXPECT_EQ(back.latency, e.latency);
    }
  }
}

TEST(GraphTest, PeerSlotIndexesTheReverseHalfEdge) {
  Rng rng(31);
  expect_reverse_slots(make_line(7, kLat, rng));
  expect_reverse_slots(make_ring(9, kLat, rng));
  expect_reverse_slots(make_grid(4, 5, kLat, rng));
  expect_reverse_slots(make_binary_tree(15, kLat, rng));
  expect_reverse_slots(make_barabasi_albert(200, 2, kLat, rng));
}

TEST(GraphTest, PeerSlotSurvivesSetLatency) {
  Graph g(3);
  g.add_edge(0, 1, 0.5);
  g.add_edge(2, 1, 0.25);
  g.add_edge(0, 2, 0.75);
  g.set_latency(1, 2, 0.125);
  expect_reverse_slots(g);
  EXPECT_EQ(g.neighbours(1)[1].peer, 2u);  // slot = insertion order at 1
  EXPECT_EQ(g.neighbours(1)[1].peer_slot, 0u);
}

TEST(GraphTest, AddNodeGrows) {
  Graph g;
  EXPECT_EQ(g.add_node(), 0u);
  EXPECT_EQ(g.add_node(), 1u);
  EXPECT_EQ(g.size(), 2u);
}

TEST(GraphTest, DuplicateEdgeThrows) {
  Graph g(2);
  g.add_edge(0, 1);
  EXPECT_THROW(g.add_edge(0, 1), ConfigError);
  EXPECT_THROW(g.add_edge(1, 0), ConfigError);
}

TEST(GraphTest, MissingEdgeLatencyThrows) {
  Graph g(2);
  EXPECT_THROW(g.latency(0, 1), ConfigError);
  EXPECT_THROW(g.set_latency(0, 1, 0.5), ConfigError);
}

TEST(GraphTest, SetLatencyUpdatesBothDirections) {
  Graph g(2);
  g.add_edge(0, 1, 0.1);
  g.set_latency(1, 0, 0.9);
  EXPECT_DOUBLE_EQ(g.latency(0, 1), 0.9);
}

TEST(GeneratorTest, LineShape) {
  Rng rng(1);
  const Graph g = make_line(5, kLat, rng);
  EXPECT_EQ(g.size(), 5u);
  EXPECT_EQ(g.edge_count(), 4u);
  EXPECT_EQ(diameter(g), 4u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(2), 2u);
}

TEST(GeneratorTest, SingleNodeLine) {
  Rng rng(1);
  const Graph g = make_line(1, kLat, rng);
  EXPECT_EQ(g.size(), 1u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_EQ(diameter(g), 0u);
}

TEST(GeneratorTest, RingShape) {
  Rng rng(2);
  const Graph g = make_ring(8, kLat, rng);
  EXPECT_EQ(g.edge_count(), 8u);
  EXPECT_EQ(diameter(g), 4u);
  for (NodeId n = 0; n < g.size(); ++n) EXPECT_EQ(g.degree(n), 2u);
}

TEST(GeneratorTest, RingTooSmallThrows) {
  Rng rng(2);
  EXPECT_THROW(make_ring(2, kLat, rng), ConfigError);
}

TEST(GeneratorTest, GridShape) {
  Rng rng(3);
  const Graph g = make_grid(4, 3, kLat, rng);
  EXPECT_EQ(g.size(), 12u);
  // 4x3 grid: horizontal 3*3 + vertical 4*2 = 17 edges.
  EXPECT_EQ(g.edge_count(), 17u);
  EXPECT_EQ(diameter(g), 5u);  // (4-1)+(3-1)
  EXPECT_EQ(g.degree(0), 2u);  // corner
}

TEST(GeneratorTest, StarShape) {
  Rng rng(4);
  const Graph g = make_star(6, kLat, rng);
  EXPECT_EQ(g.edge_count(), 5u);
  EXPECT_EQ(g.degree(0), 5u);
  EXPECT_EQ(diameter(g), 2u);
  for (NodeId n = 1; n < g.size(); ++n) EXPECT_EQ(g.degree(n), 1u);
}

TEST(GeneratorTest, CompleteShape) {
  Rng rng(5);
  const Graph g = make_complete(6, kLat, rng);
  EXPECT_EQ(g.edge_count(), 15u);
  EXPECT_EQ(diameter(g), 1u);
}

TEST(GeneratorTest, BinaryTreeShape) {
  Rng rng(6);
  const Graph g = make_binary_tree(7, kLat, rng);
  EXPECT_EQ(g.edge_count(), 6u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(diameter(g), 4u);  // leaf-to-leaf through the root
}

TEST(GeneratorTest, BarabasiAlbertBasicProperties) {
  Rng rng(7);
  const Graph g = make_barabasi_albert(100, 2, kLat, rng);
  EXPECT_EQ(g.size(), 100u);
  // m0 = 3 clique (3 edges) + 97 nodes * 2 edges.
  EXPECT_EQ(g.edge_count(), 3u + 97u * 2u);
  EXPECT_TRUE(is_connected(g));
  // Every node has degree >= m.
  for (NodeId n = 0; n < g.size(); ++n) EXPECT_GE(g.degree(n), 2u);
}

TEST(GeneratorTest, BarabasiAlbertRejectsBadParams) {
  Rng rng(8);
  EXPECT_THROW(make_barabasi_albert(5, 0, kLat, rng), ConfigError);
  EXPECT_THROW(make_barabasi_albert(2, 2, kLat, rng), ConfigError);
}

TEST(GeneratorTest, BarabasiAlbertFollowsPowerLaw) {
  // Faloutsos et al.'s rank-degree power law: log(degree) vs log(rank) is
  // close to linear with negative slope. This is the property the paper
  // uses BRITE for; we verify our replacement generator satisfies it.
  Rng rng(9);
  const Graph g = make_barabasi_albert(400, 2, kLat, rng);
  const PowerLawFit fit = degree_rank_fit(g);
  EXPECT_LT(fit.slope, -0.3);
  EXPECT_GT(fit.r_squared, 0.75);
}

TEST(GeneratorTest, BarabasiAlbertHasHubs) {
  Rng rng(10);
  const Graph g = make_barabasi_albert(300, 2, kLat, rng);
  const auto degrees = degree_sequence(g);
  // Preferential attachment produces hubs far above the mean degree (~4).
  EXPECT_GE(degrees.front(), 15u);
  // ...and many low-degree leaves.
  EXPECT_LE(degrees.back(), 3u);
}

TEST(GeneratorTest, ErdosRenyiConnectedAndSized) {
  Rng rng(11);
  const Graph g = make_erdos_renyi(80, 0.05, kLat, rng);
  EXPECT_EQ(g.size(), 80u);
  EXPECT_TRUE(is_connected(g));
}

TEST(GeneratorTest, ErdosRenyiZeroProbabilityStillConnected) {
  Rng rng(12);
  // p=0 samples no edges; the connectivity repair must chain everything.
  const Graph g = make_erdos_renyi(20, 0.0, kLat, rng);
  EXPECT_TRUE(is_connected(g));
  EXPECT_GE(g.edge_count(), 19u);
}

TEST(GeneratorTest, WaxmanConnectedWithDistanceLatencies) {
  Rng rng(13);
  const Graph g = make_waxman(60, 0.6, 0.3, kLat, rng);
  EXPECT_TRUE(is_connected(g));
  for (NodeId n = 0; n < g.size(); ++n) {
    for (const Edge& e : g.neighbours(n)) {
      EXPECT_GE(e.latency, kLat.lo - 1e-12);
      EXPECT_LE(e.latency, kLat.hi + 1e-12);
    }
  }
}

TEST(GeneratorTest, DumbbellShape) {
  Rng rng(14);
  const Graph g = make_dumbbell(5, 3, kLat, rng);
  EXPECT_EQ(g.size(), 13u);
  EXPECT_TRUE(is_connected(g));
  // Each clique contributes C(5,2)=10 edges; the bridge path 0 - b0 - b1 -
  // b2 - node k adds 4.
  EXPECT_EQ(g.edge_count(), 24u);
  // Bridge nodes have degree 2.
  EXPECT_EQ(g.degree(10), 2u);
}

TEST(MetricsTest, BfsHopsLine) {
  Rng rng(15);
  const Graph g = make_line(5, kLat, rng);
  const auto d = bfs_hops(g, 0);
  EXPECT_EQ(d, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(MetricsTest, ShortestLatenciesTakeCheapPath) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(0, 2, 5.0);
  const auto d = shortest_latencies(g, 0);
  EXPECT_DOUBLE_EQ(d[2], 2.0);  // via node 1, not the direct heavy edge
}

TEST(MetricsTest, ComponentsOfDisconnectedGraph) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  const auto comps = connected_components(g);
  ASSERT_EQ(comps.size(), 3u);
  EXPECT_EQ(comps[0], (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(comps[1], (std::vector<NodeId>{2, 3}));
  EXPECT_EQ(comps[2], (std::vector<NodeId>{4}));
  EXPECT_FALSE(is_connected(g));
}

TEST(MetricsTest, DiameterOfDisconnectedThrows) {
  Graph g(2);
  EXPECT_THROW(diameter(g), ConfigError);
}

TEST(MetricsTest, MeanPathLengthRing) {
  Rng rng(16);
  const Graph g = make_ring(4, kLat, rng);
  // Ring of 4: distances from any node are {1, 2, 1}; mean = 4/3.
  EXPECT_NEAR(mean_path_length(g), 4.0 / 3.0, 1e-12);
}

TEST(MetricsTest, OnePassPathStatsMatchPairwiseBfs) {
  Rng rng(18);
  const std::vector<Graph> graphs{
      make_line(9, kLat, rng),          make_ring(12, kLat, rng),
      make_grid(5, 4, kLat, rng),       make_binary_tree(31, kLat, rng),
      make_barabasi_albert(120, 2, kLat, rng), make_line(1, kLat, rng)};
  for (const Graph& g : graphs) {
    std::size_t brute_diameter = 0;
    std::uint64_t brute_sum = 0;
    for (NodeId s = 0; s < g.size(); ++s) {
      for (const std::size_t d : bfs_hops(g, s)) {
        brute_diameter = std::max(brute_diameter, d);
        brute_sum += d;
      }
    }
    const PathStats stats = path_stats(g);
    EXPECT_EQ(stats.nodes, g.size());
    EXPECT_TRUE(stats.connected);
    EXPECT_EQ(stats.diameter, brute_diameter) << g.size();
    EXPECT_EQ(stats.hop_sum, brute_sum) << g.size();
    EXPECT_EQ(diameter(g), brute_diameter);
    if (g.size() >= 2) {
      const auto n = static_cast<double>(g.size());
      EXPECT_EQ(mean_path_length(g),
                static_cast<double>(brute_sum) / (n * (n - 1.0)));
    }
  }
}

TEST(MetricsTest, PathStatsRejectDisconnectedAndEmptyGraphs) {
  Graph split(4);
  split.add_edge(0, 1);
  split.add_edge(2, 3);
  const PathStats stats = path_stats(split);
  EXPECT_FALSE(stats.connected);
  EXPECT_EQ(stats.diameter, 0u);
  EXPECT_EQ(stats.hop_sum, 0u);
  EXPECT_THROW(diameter(split), ConfigError);
  EXPECT_THROW(mean_path_length(split), ConfigError);

  const Graph empty;
  EXPECT_TRUE(path_stats(empty).connected);
  EXPECT_THROW(diameter(empty), ConfigError);
  EXPECT_THROW(mean_path_length(empty), ConfigError);
  EXPECT_THROW(mean_path_length(Graph(1)), ConfigError);
}

TEST(MetricsTest, DegreeRankFitOnRegularGraphIsFlat) {
  Rng rng(17);
  const Graph g = make_ring(50, kLat, rng);
  const PowerLawFit fit = degree_rank_fit(g);
  EXPECT_NEAR(fit.slope, 0.0, 1e-9);  // all degrees equal -> flat line
}

class TopologyFamilySweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(TopologyFamilySweep, AllGeneratorsYieldConnectedSimpleGraphs) {
  const auto [family, seed] = GetParam();
  Rng rng(seed);
  Graph g = [&]() -> Graph {
    switch (family) {
      case 0: return make_line(17, kLat, rng);
      case 1: return make_ring(17, kLat, rng);
      case 2: return make_grid(5, 4, kLat, rng);
      case 3: return make_star(17, kLat, rng);
      case 4: return make_complete(9, kLat, rng);
      case 5: return make_binary_tree(17, kLat, rng);
      case 6: return make_barabasi_albert(40, 2, kLat, rng);
      case 7: return make_erdos_renyi(40, 0.08, kLat, rng);
      case 8: return make_waxman(40, 0.7, 0.3, kLat, rng);
      default: return make_dumbbell(6, 4, kLat, rng);
    }
  }();
  EXPECT_TRUE(is_connected(g));
  // Simplicity: neighbour lists contain no duplicates and no self-loops.
  for (NodeId n = 0; n < g.size(); ++n) {
    std::set<NodeId> seen;
    for (const Edge& e : g.neighbours(n)) {
      EXPECT_NE(e.peer, n);
      EXPECT_TRUE(seen.insert(e.peer).second);
      EXPECT_GE(e.latency, 0.0);
    }
  }
  // Handshake lemma: degree sum equals twice the edge count.
  std::size_t degree_sum = 0;
  for (NodeId n = 0; n < g.size(); ++n) degree_sum += g.degree(n);
  EXPECT_EQ(degree_sum, 2 * g.edge_count());
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndSeeds, TopologyFamilySweep,
    ::testing::Combine(::testing::Range(0, 10),
                       ::testing::Values(1u, 2u, 3u)));

}  // namespace
}  // namespace fastcons
