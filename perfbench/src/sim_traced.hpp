// The traced propagation trial. SimNetwork calls the engine from inside its
// own event closures, where the benchmark cannot put spans, so the traced
// run replays SimNetwork's dispatch loop here: it draws the trial exactly
// as harness::propagation_trial does, wires the network through
// SimNetworkPool::acquire, and then drives a Simulator of its own with
// spans around Simulator::step/schedule_*, the ReplicaEngine entry points
// and Graph::find_edge. Its event and message counts must equal the
// untraced trial's on the same seed; the workload prints both.
#ifndef PERFBENCH_SIM_TRACED_HPP
#define PERFBENCH_SIM_TRACED_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "experiment/propagation.hpp"
#include "harness/scenario.hpp"
#include "measure.hpp"
#include "sim/simulator.hpp"
#include "sim_runtime/sim_network.hpp"

namespace perfbench {

/// What one traced trial did, for comparison with the untraced run.
struct TracedTrial {
  std::uint64_t events = 0;  ///< program events (slice sentinels excluded)
  std::size_t pending_peak = 0;
  fastcons::TrafficCounters traffic;
  fastcons::EngineStats stats;
  bool converged = false;
  double time_to_full = 0.0;
  /// Summaries of the writer and of the last replica reached, at the end.
  fastcons::SummaryVector writer_summary;
  fastcons::SummaryVector last_summary;
  std::size_t writer_log_updates = 0;
};

class TracedSim {
 public:
  explicit TracedSim(Tracer& tracer) : tracer_(tracer) {}
  TracedSim(const TracedSim&) = delete;
  TracedSim& operator=(const TracedSim&) = delete;

  /// Runs one traced repetition of a propagation point (no faults, no
  /// shared topology) and returns the harness's TrialResult for it.
  fastcons::harness::TrialResult run(const fastcons::harness::SweepPoint& point,
                                     std::uint64_t seed, TracedTrial& out);

 private:
  void refresh_demand(fastcons::NodeId node);
  void dispatch(fastcons::NodeId from);
  void session_tick(fastcons::NodeId node);
  void perform_write(fastcons::NodeId node);
  void deliver(fastcons::NodeId from, fastcons::NodeId to, fastcons::Message&& msg);

  Tracer& tracer_;
  fastcons::SimNetworkPool pool_;
  fastcons::Simulator sim_;
  fastcons::SimNetwork* net_ = nullptr;
  std::shared_ptr<const fastcons::DemandModel> demand_;
  std::vector<fastcons::Rng> node_rngs_;
  std::vector<fastcons::Outbound> out_;
  double period_ = 1.0;
  std::size_t pending_peak_ = 0;
  fastcons::PropagationTrial trial_;
  std::vector<double> demands_;
  std::vector<fastcons::NodeId> order_;
  std::vector<bool> high_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SIM_TRACED_HPP
