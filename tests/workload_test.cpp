#include "experiment/workload.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "common/error.hpp"
#include "topology/generators.hpp"

namespace fastcons {
namespace {

WorkloadConfig small_workload() {
  WorkloadConfig w;
  w.keys = 3;
  w.write_interval = 2.0;
  w.duration = 30.0;
  w.warmup = 4.0;
  w.seed = 11;
  return w;
}

std::shared_ptr<const DemandModel> uniform_demand(std::size_t n,
                                                  std::uint64_t seed) {
  Rng rng(seed);
  return std::make_shared<StaticDemand>(
      make_uniform_random_demand(n, 5.0, 50.0, rng));
}

TEST(WorkloadTest, ValidatesConfig) {
  Rng rng(1);
  const Graph g = make_ring(5, {0.01, 0.02}, rng);
  SimConfig sim;
  sim.protocol = ProtocolConfig::fast();
  WorkloadConfig bad = small_workload();
  bad.keys = 0;
  EXPECT_THROW(run_workload(Graph(g), uniform_demand(5, 2), sim, bad),
               ConfigError);
  bad = small_workload();
  bad.write_interval = 0.0;
  EXPECT_THROW(run_workload(Graph(g), uniform_demand(5, 2), sim, bad),
               ConfigError);
  bad = small_workload();
  bad.warmup = bad.duration;
  EXPECT_THROW(run_workload(Graph(g), uniform_demand(5, 2), sim, bad),
               ConfigError);
}

TEST(WorkloadTest, ProducesReadsAndWrites) {
  Rng rng(2);
  Graph g = make_barabasi_albert(12, 2, {0.01, 0.05}, rng);
  SimConfig sim;
  sim.protocol = ProtocolConfig::fast();
  sim.seed = 3;
  const WorkloadResult result =
      run_workload(std::move(g), uniform_demand(12, 4), sim, small_workload());
  EXPECT_GT(result.writes, 5u);
  // ~12 nodes * ~27 demand * 26 effective units of reads ≈ thousands.
  EXPECT_GT(result.reads, 1000u);
  EXPECT_GT(result.fresh_reads, 0u);
  EXPECT_LE(result.fresh_reads, result.reads);
  EXPECT_GE(result.fresh_fraction(), 0.0);
  EXPECT_LE(result.fresh_fraction(), 1.0);
}

TEST(WorkloadTest, DeterministicForSameSeeds) {
  const auto run = [] {
    Rng rng(5);
    Graph g = make_ring(8, {0.01, 0.02}, rng);
    SimConfig sim;
    sim.protocol = ProtocolConfig::fast();
    sim.seed = 6;
    return run_workload(std::move(g), uniform_demand(8, 7), sim,
                        small_workload());
  };
  const WorkloadResult a = run();
  const WorkloadResult b = run();
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.fresh_reads, b.fresh_reads);
  EXPECT_EQ(a.writes, b.writes);
}

TEST(WorkloadTest, FastServesFresherThanWeak) {
  // The paper's bottom line from the client's point of view: under the same
  // workload, fast consistency serves a larger fraction of reads with the
  // newest content.
  const auto run = [](ProtocolConfig protocol) {
    Rng rng(8);
    Graph g = make_barabasi_albert(25, 2, {0.01, 0.05}, rng);
    SimConfig sim;
    sim.protocol = protocol;
    sim.seed = 9;
    WorkloadConfig w = small_workload();
    w.duration = 60.0;
    w.write_interval = 1.5;
    w.seed = 10;
    return run_workload(std::move(g), uniform_demand(25, 11), sim, w);
  };
  const WorkloadResult weak = run(ProtocolConfig::weak());
  const WorkloadResult fast = run(ProtocolConfig::fast());
  EXPECT_GT(fast.fresh_fraction(), weak.fresh_fraction());
  // Stale reads that do happen are also younger under fast consistency.
  EXPECT_LT(fast.stale_age.mean(), weak.stale_age.mean());
}

TEST(WorkloadTest, NoWritesMeansAllReadsFresh) {
  Rng rng(12);
  Graph g = make_ring(6, {0.01, 0.02}, rng);
  SimConfig sim;
  sim.protocol = ProtocolConfig::fast();
  WorkloadConfig w = small_workload();
  w.write_interval = 1e9;  // effectively never writes
  const WorkloadResult result =
      run_workload(std::move(g), uniform_demand(6, 13), sim, w);
  EXPECT_EQ(result.writes, 0u);
  EXPECT_EQ(result.fresh_reads, result.reads);
  EXPECT_DOUBLE_EQ(result.fresh_fraction(), 1.0);
}

TEST(WorkloadTest, ZeroDemandNodesIssueNoReads) {
  Rng rng(14);
  Graph g = make_line(4, {0.01, 0.02}, rng);
  auto demand = std::make_shared<StaticDemand>(std::vector<double>{0, 0, 0, 0});
  SimConfig sim;
  sim.protocol = ProtocolConfig::fast();
  const WorkloadResult result =
      run_workload(std::move(g), demand, sim, small_workload());
  EXPECT_EQ(result.reads, 0u);
}

}  // namespace
}  // namespace fastcons
