// sim-fig5 and sim-ba4096: registered propagation points run through their
// public TrialFn on one worker thread (the calling thread).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness/registry.hpp"
#include "harness/scenarios.hpp"
#include "sim_traced.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace fastcons;
using harness::SweepPoint;
using harness::TrialResult;

namespace {

struct SimWorkload {
  const char* scenario;
  std::vector<std::string> labels;  ///< timed points, run on paired seeds
  std::size_t seed_group;           ///< the points' SweepPoint::seed_group
  /// Fixed percentile for update_ms_tail: the highest with at least ten
  /// trials beyond it in a 20 s run on a 4-core Xeon, fixed so that a run
  /// which completes more trials still reports the same percentile.
  double tail_p;
  /// Trials (per point) whose counts are printed: a prefix every run
  /// completes, so the counts repeat exactly for a given seed.
  std::size_t count_prefix;
  /// Paired baseline point for the fast-beats-weak check when the timed
  /// points do not include it, and how many of its trials to run.
  std::string weak_label;
  std::size_t weak_trials;
};

SimWorkload workload_for(const std::string& name) {
  if (name == "sim-fig5") return {"fig5", {"weak", "demand-order", "fast"}, 0, 99.0, 300, "", 0};
  return {"large-scale", {"ba-4096/fast"}, 1, 90.0, 4, "ba-4096/weak", 2};
}

const SweepPoint& find_point(const harness::ScenarioSpec& spec, const std::string& label) {
  for (const SweepPoint& p : spec.sweep) {
    if (p.label == label) return p;
  }
  throw std::runtime_error("no sweep point " + label + " in " + spec.name);
}

std::uint64_t counter_of(const TrialResult& r, const std::string& name) {
  for (const auto& [n, v] : r.counters) {
    if (n == name) return v;
  }
  return 0;
}

double value_of(const TrialResult& r, const std::string& name) {
  for (const auto& [n, v] : r.values) {
    if (n == name) return v;
  }
  return 0.0;
}

/// One timed trial of the untraced run.
struct TrialRecord {
  std::size_t point = 0;
  std::size_t index = 0;
  double ms = 0.0;
  std::uint64_t events = 0;
  bool converged = false;
  double time_to_full = 0.0;
  std::uint64_t messages[static_cast<std::size_t>(TrafficClass::kCount)] = {};
};

TrialRecord run_untraced(const harness::ScenarioSpec& spec, const SweepPoint& point,
                         std::uint64_t seed, harness::TrialContext& ctx) {
  TrialRecord rec;
  const std::uint64_t events0 = Simulator::thread_events_executed();
  const auto t0 = Clock::now();
  const TrialResult result = spec.run(point, seed, ctx);
  rec.ms = ms_between(t0, Clock::now());
  rec.events = Simulator::thread_events_executed() - events0;
  rec.converged = counter_of(result, "trials_converged") == 1;
  rec.time_to_full = value_of(result, "time_to_full");
  for (std::size_t c = 0; c < static_cast<std::size_t>(TrafficClass::kCount); ++c) {
    rec.messages[c] = counter_of(
        result, "messages_" + std::string(traffic_class_name(static_cast<TrafficClass>(c))));
  }
  return rec;
}

/// Time to have the first trial ready: registry, point lookup, topology,
/// demand and a freshly built pooled network.
double setup_seconds(const SimWorkload& w, std::uint64_t seed, int rep) {
  const auto t0 = Clock::now();
  const harness::ScenarioRegistry registry = harness::builtin_registry();
  const SweepPoint& point = find_point(registry.get(w.scenario), w.labels.front());
  Rng rng(harness::derive_trial_seed(seed, "perfbench-setup", 0, static_cast<std::size_t>(rep)));
  auto graph = std::make_shared<const Graph>(harness::topology_from_point(point)(rng));
  auto demand = harness::uniform_demand()(*graph, rng);
  SimConfig config;
  config.protocol = harness::algorithm_config(harness::tag_or(point.tags, "algo", "fast"));
  config.seed = rng.next_u64();
  SimNetworkPool pool;
  pool.acquire(graph, demand, config);
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// Running totals over the timed trials. Memory does not grow with the
/// number of trials (only the first count_prefix indices are kept), so a
/// faster program does not show a larger peak RSS.
struct Tally {
  LogHistogram ms;
  std::uint64_t trials = 0;
  std::uint64_t failed = 0;      ///< trials not converged by the deadline
  std::uint64_t unexpected = 0;  ///< trials whose convergence differs from the expectation
  double events = 0.0;
  std::vector<double> ttf_sum;   ///< per point: sessions-to-full, summed
  std::vector<TrialRecord> prefix;

  void add(const TrialRecord& rec, const SimWorkload& w, const Options& options) {
    // Expected: every trial converges. --corrupt expects the first not to.
    const bool expected = !(options.corrupts("sim-converged") && trials == 0);
    ++trials;
    failed += rec.converged ? 0 : 1;
    unexpected += rec.converged == expected ? 0 : 1;
    events += static_cast<double>(rec.events);
    ms.add(rec.ms);
    ttf_sum.resize(w.labels.size(), 0.0);
    ttf_sum[rec.point] += rec.time_to_full;
    if (rec.index < w.count_prefix) prefix.push_back(rec);
  }
};

void print_counts(Report& report, const SimWorkload& w, const Tally& tally) {
  const double n = static_cast<double>(std::max<std::size_t>(tally.prefix.size(), 1));
  report.note("counts over", std::to_string(tally.prefix.size()) + " trials (the first " +
                                 std::to_string(w.count_prefix) + " per point)");
  double events = 0.0;
  double messages[static_cast<std::size_t>(TrafficClass::kCount)] = {};
  for (const TrialRecord& t : tally.prefix) {
    events += static_cast<double>(t.events);
    for (std::size_t c = 0; c < static_cast<std::size_t>(TrafficClass::kCount); ++c) {
      messages[c] += static_cast<double>(t.messages[c]);
    }
  }
  report.count("events_per_trial", events / n);
  for (std::size_t c = 0; c < static_cast<std::size_t>(TrafficClass::kCount); ++c) {
    report.count("messages_" + std::string(traffic_class_name(static_cast<TrafficClass>(c))) +
                     "_per_trial",
                 messages[c] / n);
  }
  for (std::size_t p = 0; p < w.labels.size(); ++p) {
    std::vector<double> ttf;
    for (const TrialRecord& t : tally.prefix) {
      if (t.point == p) ttf.push_back(t.time_to_full);
    }
    report.count("sessions_to_full_mean." + w.labels[p], mean(ttf));
  }
}

/// Checks shared by the untraced and traced runs. --corrupt falsifies the
/// expectation a check compares against, never the program's output.
void check_outputs(Report& report, const SimWorkload& w, const Tally& tally,
                   const std::vector<TrialRecord>& weak_trials) {
  const Options& options = report.options();
  std::uint64_t failed = tally.failed, unexpected = tally.unexpected;
  for (const TrialRecord& t : weak_trials) {
    failed += t.converged ? 0 : 1;
    unexpected += t.converged ? 0 : 1;
  }
  const std::uint64_t attempted = tally.trials + weak_trials.size();
  report.add_attempts(attempted, failed);
  report.check("sim-converged", unexpected == 0,
               std::to_string(attempted - failed) + " of " + std::to_string(attempted) +
                   " trials converged by the deadline");

  // Fast against weak on the same trial indices (paired seeds). Trials run
  // in whole index groups, so every point has run the same indices.
  double f = 0.0, wk = 0.0;
  std::size_t pairs = 0;
  if (weak_trials.empty()) {
    pairs = tally.trials / w.labels.size();
    f = tally.ttf_sum.back() / static_cast<double>(std::max<std::size_t>(pairs, 1));
    wk = tally.ttf_sum.front() / static_cast<double>(std::max<std::size_t>(pairs, 1));
  } else {
    std::vector<double> fast, weak;
    for (const TrialRecord& t : weak_trials) {
      for (const TrialRecord& p : tally.prefix) {
        if (p.index == t.index) {
          fast.push_back(p.time_to_full);
          weak.push_back(t.time_to_full);
        }
      }
    }
    pairs = fast.size();
    f = mean(fast);
    wk = mean(weak);
  }
  const bool expected = !options.corrupts("sim-fast-beats-weak");
  report.check("sim-fast-beats-weak", pairs > 0 && (f < wk) == expected,
               "mean sessions-to-full fast " + fixed(f) + " vs weak " + fixed(wk) + " over " +
                   std::to_string(pairs) + " paired trials");
}

std::vector<TrialRecord> run_weak_pairs(const SimWorkload& w, const harness::ScenarioSpec& spec,
                                        std::uint64_t seed, harness::TrialContext& ctx) {
  std::vector<TrialRecord> out;
  if (w.weak_label.empty()) return out;
  const SweepPoint& weak = find_point(spec, w.weak_label);
  for (std::size_t i = 0; i < w.weak_trials; ++i) {
    TrialRecord rec = run_untraced(
        spec, weak, harness::derive_trial_seed(seed, w.scenario, w.seed_group, i), ctx);
    rec.index = i;
    out.push_back(rec);
  }
  return out;
}

/// Times the two SummaryVector operations the engine runs per session on
/// summaries the workload captured. merge_ns includes copying the left
/// operand, which merge updates in place.
void time_summary_ops(Report& report, const std::vector<SummaryVector>& caps) {
  if (caps.size() < 2) return;
  std::size_t calls = 0;
  std::uint64_t sink = 0;
  const auto t0 = now_ns();
  for (int round = 0; round < 4; ++round) {
    for (std::size_t i = 0; i + 1 < caps.size(); ++i) {
      SummaryVector merged = caps[i];
      merged.merge(caps[i + 1]);
      sink += merged.total();
      ++calls;
    }
  }
  const auto t1 = now_ns();
  for (int round = 0; round < 4; ++round) {
    for (std::size_t i = 0; i + 1 < caps.size(); ++i) {
      sink += caps[i].missing_from(caps[i + 1]).size();
    }
  }
  const auto t2 = now_ns();
  report.per_layer("replication.merge_ns", static_cast<double>(t1 - t0) / static_cast<double>(calls));
  report.per_layer("replication.missing_from_ns",
                   static_cast<double>(t2 - t1) / static_cast<double>(calls));
  report.note("summary ops checksum", std::to_string(sink));
}

}  // namespace

void summary_layer_metrics(Report& report, const std::vector<SummaryVector>& caps) {
  double origins = 0.0, extras = 0.0;
  for (const SummaryVector& s : caps) {
    origins += static_cast<double>(s.origins().size());
    extras += static_cast<double>(s.extras().size());
  }
  const double n = static_cast<double>(std::max<std::size_t>(caps.size(), 1));
  report.per_layer("replication.summary_origins", origins / n);
  report.per_layer("replication.summary_extras", extras / n);
  time_summary_ops(report, caps);
}

void run_sim_workload(const Options& options, Report& report) {
  const SimWorkload w = workload_for(options.workload);
  report.provenance(1);
  report.note("provenance worker_cpu", std::to_string(pin_to_last_cpu()));
  report.note("config", std::string("scenario=") + w.scenario + " points=" + [&] {
    std::string s;
    for (const auto& l : w.labels) s += (s.empty() ? "" : ",") + l;
    return s;
  }() + " worker_threads=1 seeds=derive_trial_seed(seed, scenario, seed_group, trial)");

  std::vector<double> setups;
  for (int rep = 0; rep < 9; ++rep) setups.push_back(setup_seconds(w, options.seed, rep));

  const harness::ScenarioRegistry registry = harness::builtin_registry();
  const harness::ScenarioSpec& spec = registry.get(w.scenario);
  std::vector<const SweepPoint*> points;
  for (const auto& label : w.labels) points.push_back(&find_point(spec, label));
  harness::TrialContext ctx;

  // Warm-up: one trial per point, outside the measurement, on seeds no
  // timed trial uses.
  for (const SweepPoint* p : points) {
    run_untraced(spec, *p, harness::derive_trial_seed(options.seed, "perfbench-warmup", 0, 0), ctx);
  }

  const auto deadline = Clock::now() + std::chrono::duration<double>(options.seconds);
  Tally tally;

  if (!options.trace) {
    // events_per_cpu_s is the median over one-second windows of whole
    // trials, so a burst of load from elsewhere on the host moves one
    // window rather than the run's figure.
    std::vector<double> window_rates;
    const double cpu_start = thread_cpu_seconds();
    double window_cpu = cpu_start, window_events = 0.0;
    auto window_start = Clock::now();
    for (std::size_t index = 0; Clock::now() < deadline; ++index) {
      const std::uint64_t seed = harness::derive_trial_seed(options.seed, w.scenario, w.seed_group, index);
      for (std::size_t p = 0; p < points.size(); ++p) {
        TrialRecord rec = run_untraced(spec, *points[p], seed, ctx);
        rec.point = p;
        rec.index = index;
        tally.add(rec, w, options);
      }
      if (Clock::now() - window_start >= std::chrono::seconds(1)) {
        const double cpu = thread_cpu_seconds();
        window_rates.push_back((tally.events - window_events) / (cpu - window_cpu));
        window_cpu = cpu;
        window_events = tally.events;
        window_start = Clock::now();
      }
    }
    const double cpu = thread_cpu_seconds() - cpu_start;
    std::vector<TrialRecord> weak = run_weak_pairs(w, spec, options.seed, ctx);

    const double p50 = tally.ms.percentile(50.0);
    const double tail = tally.ms.percentile(w.tail_p);
    const double events_per_cpu_s = window_rates.empty() ? tally.events / cpu : median(window_rates);
    report.end_to_end("setup_s", median(setups), "s");
    report.end_to_end("peak_rss_mb", peak_rss_mb(), "MB");
    report.end_to_end("events_per_cpu_s", events_per_cpu_s, "1/s");
    report.end_to_end("update_ms_p50", p50, "ms");
    report.end_to_end("update_ms_tail", tail, "ms");
    report.info("sim_events_per_s", events_per_cpu_s, "1/s");
    report.info("trial_ms_p50", p50, "ms");
    report.info("trial_ms_tail", tail, "ms");
    report.note("tail", "trial_ms_tail is p" + fixed(w.tail_p, 1) + " with " +
                            std::to_string(tally.trials - static_cast<std::uint64_t>(std::ceil(
                                                              w.tail_p / 100.0 * static_cast<double>(tally.trials)))) +
                            " of " + std::to_string(tally.trials) + " trials beyond it");
    report.note("trials", std::to_string(tally.trials));
    report.info("worker_cpu_s", cpu, "s");
    report.info("events_per_cpu_s_whole_run", tally.events / cpu, "1/s");
    {
      std::string s;
      for (const double r : window_rates) s += (s.empty() ? "" : ",") + fixed(r, 0);
      report.note("window rates", s);
    }
    print_counts(report, w, tally);
    check_outputs(report, w, tally, weak);
    return;
  }

  // Traced run: each trial runs untraced (the reference) and then traced
  // on the same seed; the two must do identical work.
  Tracer tracer;
  TracedSim traced(tracer);
  std::vector<double> traced_ms, untraced_ms;
  std::vector<SummaryVector> summaries;
  std::uint64_t traced_events = 0, untraced_events = 0;
  std::uint64_t traced_msgs[static_cast<std::size_t>(TrafficClass::kCount)] = {};
  std::uint64_t untraced_msgs[static_cast<std::size_t>(TrafficClass::kCount)] = {};
  std::uint64_t mismatched = 0, dups = 0, received = 0;
  double log_updates = 0.0;
  std::size_t pending_peak = 0;
  std::uint32_t trial_id = 0;
  for (std::size_t index = 0; Clock::now() < deadline; ++index) {
    const std::uint64_t seed = harness::derive_trial_seed(options.seed, w.scenario, w.seed_group, index);
    for (std::size_t p = 0; p < points.size(); ++p) {
      TrialRecord rec = run_untraced(spec, *points[p], seed, ctx);
      rec.point = p;
      rec.index = index;
      tally.add(rec, w, options);
      untraced_ms.push_back(rec.ms);

      TracedTrial tt;
      tracer.set_trial(trial_id++);
      const auto t0 = Clock::now();
      traced.run(*points[p], seed, tt);
      traced_ms.push_back(ms_between(t0, Clock::now()));

      traced_events += tt.events;
      untraced_events += rec.events;
      // Expected: the traced trial executes exactly the untraced events.
      const std::uint64_t expected_events =
          rec.events + (options.corrupts("trace-matches-untraced") ? 1 : 0);
      bool same = tt.events == expected_events;
      for (std::size_t c = 0; c < static_cast<std::size_t>(TrafficClass::kCount); ++c) {
        const std::uint64_t m = tt.traffic.messages(static_cast<TrafficClass>(c));
        traced_msgs[c] += m;
        untraced_msgs[c] += rec.messages[c];
        same = same && m == rec.messages[c];
      }
      mismatched += same ? 0 : 1;
      dups += tt.stats.duplicate_updates;
      received += tt.stats.duplicate_updates + tt.stats.updates_applied;
      log_updates += static_cast<double>(tt.writer_log_updates);
      pending_peak = std::max(pending_peak, tt.pending_peak);
      if (summaries.size() < 256) {
        summaries.push_back(tt.writer_summary);
        summaries.push_back(tt.last_summary);
      }
    }
  }
  std::vector<TrialRecord> weak = run_weak_pairs(w, spec, options.seed, ctx);

  const double n = static_cast<double>(traced_ms.size());
  const auto per_call = [&](SpanKind k, bool self) {
    const std::uint64_t calls = tracer.calls(k);
    if (calls == 0) return 0.0;
    return static_cast<double>(self ? tracer.self_ns(k) : tracer.total_ns(k)) /
           static_cast<double>(calls);
  };
  const auto msgs = [&](TrafficClass a, TrafficClass b) {
    return static_cast<double>(traced_msgs[static_cast<std::size_t>(a)] +
                               (a == b ? 0 : traced_msgs[static_cast<std::size_t>(b)])) / n;
  };
  report.per_layer("sim.events", static_cast<double>(traced_events) / n);
  report.per_layer("sim.step_self_ns", per_call(SpanKind::sim_step, true));
  report.per_layer("sim.schedule_ns", per_call(SpanKind::sim_schedule, false));
  report.per_layer("sim.pending_peak", static_cast<double>(pending_peak));
  report.per_layer("sim_runtime.acquire_us",
                   static_cast<double>(tracer.total_ns(SpanKind::acquire)) / n / 1e3);
  report.per_layer("sim_runtime.acquire_share",
                   static_cast<double>(tracer.total_ns(SpanKind::acquire)) /
                       static_cast<double>(tracer.total_ns(SpanKind::trial)));
  report.per_layer("topology.generate_us",
                   static_cast<double>(tracer.total_ns(SpanKind::topology_generate)) / n / 1e3);
  report.per_layer("topology.latency_lookup_ns", per_call(SpanKind::find_edge, false));
  report.per_layer("core.handle_calls", static_cast<double>(tracer.calls(SpanKind::core_handle)) / n);
  report.per_layer("core.handle_self_ns", per_call(SpanKind::core_handle, true));
  report.per_layer("core.timer_self_ns", per_call(SpanKind::core_timer, true));
  report.per_layer("core.msgs_session",
                   msgs(TrafficClass::session_control, TrafficClass::session_payload));
  report.per_layer("core.msgs_fast", msgs(TrafficClass::fast_control, TrafficClass::fast_payload));
  report.per_layer("core.msgs_advert", msgs(TrafficClass::demand_advert, TrafficClass::demand_advert));
  report.per_layer("core.dup_ratio",
                   received == 0 ? 0.0 : static_cast<double>(dups) / static_cast<double>(received));
  report.per_layer("replication.log_updates", log_updates / n);
  summary_layer_metrics(report, summaries);

  // Trace against untraced: identical work, and the cost of tracing.
  report.count("trace.trials", n);
  report.count("trace.events_traced", static_cast<double>(traced_events));
  report.count("trace.events_untraced", static_cast<double>(untraced_events));
  for (std::size_t c = 0; c < static_cast<std::size_t>(TrafficClass::kCount); ++c) {
    const std::string cls(traffic_class_name(static_cast<TrafficClass>(c)));
    report.count("trace.messages_" + cls + "_traced", static_cast<double>(traced_msgs[c]));
    report.count("trace.messages_" + cls + "_untraced", static_cast<double>(untraced_msgs[c]));
  }
  report.check("trace-matches-untraced", mismatched == 0,
               std::to_string(mismatched) + " of " + std::to_string(traced_ms.size()) +
                   " traced trials differ from the untraced trial in events or messages");
  const double traced_p50 = median(traced_ms), untraced_p50 = median(untraced_ms);
  report.info("trace.untraced_trial_ms_p50", untraced_p50, "ms");
  report.info("trace.traced_trial_ms_p50", traced_p50, "ms");
  report.info("trace.overhead_pct", (traced_p50 / untraced_p50 - 1.0) * 100.0, "%");

  // Self time by span: every nanosecond of a traced trial is in exactly one
  // span's self time, so the rows add up to the traced trial time.
  const double trial_total_ms = static_cast<double>(tracer.total_ns(SpanKind::trial)) / 1e6;
  double self_sum_ms = 0.0;
  for (std::size_t k = 0; k < static_cast<std::size_t>(SpanKind::kCount); ++k) {
    const auto kind = static_cast<SpanKind>(k);
    if (tracer.calls(kind) == 0) continue;
    const double self_ms = static_cast<double>(tracer.self_ns(kind)) / 1e6;
    self_sum_ms += self_ms;
    report.note(std::string("self ") + span_layer(kind) + "." + span_name(kind),
                "calls=" + std::to_string(tracer.calls(kind)) + " self_ms=" + fixed(self_ms) +
                    " share=" + fixed(100.0 * self_ms / trial_total_ms, 2) + "%");
  }
  report.info("trace.layer_self_sum_ms", self_sum_ms, "ms");
  report.info("trace.traced_trial_total_ms", trial_total_ms, "ms");
  const std::string tsv = options.out_dir + "/trace-" + options.workload + "-seed" +
                          std::to_string(options.seed) + ".tsv";
  tracer.write_tsv(tsv);
  report.note("trace file", tsv + " (" + std::to_string(tracer.dropped()) +
                                " spans beyond the in-memory cap aggregated only)");
  print_counts(report, w, tally);
  check_outputs(report, w, tally, weak);
}

}  // namespace perfbench
