#include "sim_traced.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "harness/scenarios.hpp"

namespace perfbench {

using namespace fastcons;
using harness::SweepPoint;
using harness::TrialResult;

namespace {

// The constants harness::propagation_trial and SimNetwork use.
constexpr double kDeadline = 60.0;           // PropagationExperiment::deadline
constexpr double kHighDemandFraction = 0.10;  // PropagationExperiment default
constexpr double kSlice = 0.1;               // run_until_update_everywhere

}  // namespace

void TracedSim::refresh_demand(NodeId node) {
  const Span span(tracer_, SpanKind::demand_at);
  net_->engine(node).set_own_demand(demand_->demand_at(node, sim_.now()));
}

void TracedSim::dispatch(NodeId from) {
  // SimNetwork::dispatch without loss, outages or faults (none configured):
  // one latency lookup and one scheduled delivery per message.
  for (Outbound& out : out_) {
    double latency = 0.0;
    {
      const Span span(tracer_, SpanKind::find_edge);
      const Edge* edge = net_->graph().find_edge(from, out.to);
      if (edge == nullptr) throw ConfigError("message between non-adjacent nodes");
      latency = edge->latency;
    }
    const Span span(tracer_, SpanKind::sim_schedule);
    sim_.schedule_in(latency, [this, from, to = out.to, msg = std::move(out.msg)]() mutable {
      deliver(from, to, std::move(msg));
    });
  }
}

void TracedSim::session_tick(NodeId node) {
  const Span body(tracer_, SpanKind::dispatch);
  refresh_demand(node);
  out_.clear();
  {
    const Span span(tracer_, SpanKind::core_timer);
    net_->engine(node).on_session_timer(sim_.now(), out_);
  }
  dispatch(node);
  const double gap = node_rngs_[node].exponential(period_);
  const Span span(tracer_, SpanKind::sim_schedule);
  sim_.schedule_in(gap, [this, node] { session_tick(node); });
}

void TracedSim::perform_write(NodeId node) {
  const Span body(tracer_, SpanKind::dispatch);
  refresh_demand(node);
  out_.clear();
  {
    const Span span(tracer_, SpanKind::core_write);
    net_->engine(node).local_write("key", "value", sim_.now(), out_);
  }
  dispatch(node);
}

void TracedSim::deliver(NodeId from, NodeId to, Message&& msg) {
  const Span body(tracer_, SpanKind::dispatch);
  refresh_demand(to);
  out_.clear();
  {
    const Span span(tracer_, SpanKind::core_handle);
    net_->engine(to).handle(from, std::move(msg), sim_.now(), out_);
  }
  dispatch(to);
}

TrialResult TracedSim::run(const SweepPoint& point, std::uint64_t seed, TracedTrial& out) {
  const Span trial_span(tracer_, SpanKind::trial);
  if (harness::fault_config_from_point(point) ||
      harness::param_or(point.params, "shared_topo", 0.0) != 0.0 ||
      harness::param_or(point.params, "deadline", kDeadline) != kDeadline) {
    throw ConfigError("the traced trial replays plain propagation points only");
  }

  // The draws of harness::propagation_trial + run_propagation_trial, in order.
  Rng rng(seed);
  std::shared_ptr<const Graph> graph;
  {
    const Span span(tracer_, SpanKind::topology_generate);
    graph = std::make_shared<const Graph>(harness::topology_from_point(point)(rng));
  }
  {
    const Span span(tracer_, SpanKind::demand_factory);
    demand_ = harness::uniform_demand()(*graph, rng);
  }
  SimConfig config;
  config.protocol = harness::algorithm_config(harness::tag_or(point.tags, "algo", "fast"));
  config.seed = rng.next_u64();
  {
    const Span span(tracer_, SpanKind::acquire);
    net_ = &pool_.acquire(graph, demand_, config);
  }
  const std::size_t n = net_->size();
  period_ = config.protocol.session_period;

  // SimNetwork::wire's per-node streams: one next_u64 per engine seed, then
  // one split per node. Its own simulator holds the same first timers; this
  // one replays them and the pooled network's simulator is never run.
  sim_.reset();
  Rng streams(config.seed);
  node_rngs_.clear();
  for (NodeId node = 0; node < n; ++node) {
    streams.next_u64();
    node_rngs_.push_back(streams.split());
  }
  for (NodeId node = 0; node < n; ++node) {
    const double first = node_rngs_[node].exponential(period_);
    const Span span(tracer_, SpanKind::sim_schedule);
    sim_.schedule_at(first, [this, node] { session_tick(node); });
  }
  const auto writer = static_cast<NodeId>(rng.index(n));
  const double write_at = rng.uniform(0.5, 1.5);
  const UpdateId id{writer, 1};
  {
    const Span span(tracer_, SpanKind::sim_schedule);
    sim_.schedule_at(write_at, [this, writer] { perform_write(writer); });
  }

  // run_until_update_everywhere: check coverage at slice boundaries. A
  // sentinel event marks each boundary so the loop can call step() itself.
  const double deadline = write_at + kDeadline;
  const std::uint64_t events_before = sim_.events_executed();
  std::uint64_t sentinels = 0;
  pending_peak_ = 0;
  bool converged = false;
  const auto holding = [&] {
    const Span span(tracer_, SpanKind::net_query);
    return net_->nodes_holding(id);
  };
  while (sim_.now() < deadline) {
    if (holding() == n) {
      converged = true;
      break;
    }
    bool boundary = false;
    sim_.schedule_at(std::min(deadline, sim_.now() + kSlice), [&boundary] { boundary = true; });
    ++sentinels;
    while (!boundary) {
      {
        const Span span(tracer_, SpanKind::sim_step);
        sim_.step();
      }
      pending_peak_ = std::max(pending_peak_, sim_.pending_events());
    }
  }
  if (!converged) converged = holding() == n;

  // The rest of run_propagation_trial: demand snapshot, high-demand mask,
  // sessions-to-delivery per replica.
  PropagationTrial& trial = trial_;
  trial.sessions_all.clear();
  trial.sessions_high.clear();
  trial.censored_samples = 0;
  trial.converged = converged;
  trial.consistent = converged;
  demands_.resize(n);
  for (NodeId node = 0; node < n; ++node) demands_[node] = demand_->demand_at(node, write_at);
  order_.resize(n);
  for (std::size_t i = 0; i < n; ++i) order_[i] = static_cast<NodeId>(i);
  std::sort(order_.begin(), order_.end(), [&](NodeId a, NodeId b) {
    if (demands_[a] != demands_[b]) return demands_[a] > demands_[b];
    return a < b;
  });
  const auto k = static_cast<std::size_t>(
      std::max(1.0, std::ceil(kHighDemandFraction * static_cast<double>(n))));
  high_.assign(n, false);
  for (std::size_t i = 0; i < std::min(k, n); ++i) high_[order_[i]] = true;
  double last = 0.0;
  NodeId last_node = writer;
  for (NodeId node = 0; node < n; ++node) {
    if (node == writer) continue;
    std::optional<double> at;
    {
      const Span span(tracer_, SpanKind::net_query);
      at = net_->first_delivery(node, id);
    }
    double sessions = kDeadline / period_;
    if (at.has_value()) {
      sessions = (*at - write_at) / period_;
    } else {
      ++trial.censored_samples;
    }
    if (sessions > last) {
      last = sessions;
      last_node = node;
    }
    trial.sessions_all.push_back(sessions);
    if (high_[node]) trial.sessions_high.push_back(sessions);
  }
  trial.time_to_full = last;
  trial.traffic = net_->total_traffic();

  TrialResult result;
  {
    const Span span(tracer_, SpanKind::harness_record);
    harness::record_propagation(result, trial);
  }

  out.events = sim_.events_executed() - events_before - sentinels;
  out.pending_peak = pending_peak_;
  out.traffic = trial.traffic;
  out.stats = net_->total_stats();
  out.converged = converged;
  out.time_to_full = last;
  out.writer_summary = net_->engine(writer).summary();
  out.last_summary = net_->engine(last_node).summary();
  out.writer_log_updates = net_->engine(writer).log().size();
  return result;
}

}  // namespace perfbench
