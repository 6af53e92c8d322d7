/// @file
/// Declarative experiment scenarios.
///
/// A ScenarioSpec describes one of the paper's experiments as data: a sweep
/// of configuration points (topology x algorithm x workload parameters), a
/// trial count per point, and a trial function that runs ONE independent
/// repetition from a derived seed. The TrialRunner (runner.hpp) fans trials
/// out across threads; because every trial is seeded purely from
/// (base_seed, scenario, point, trial) and aggregation happens in trial
/// order, results are bit-identical for any thread count.
#ifndef FASTCONS_HARNESS_SCENARIO_HPP
#define FASTCONS_HARNESS_SCENARIO_HPP

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "harness/trial_context.hpp"

namespace fastcons::harness {

/// Ordered key/value numeric parameters. A vector of pairs rather than a map
/// so JSON output preserves declaration order deterministically.
using ParamMap = std::vector<std::pair<std::string, double>>;

/// Ordered key/value string tags (algorithm names, topology kinds).
using TagMap = std::vector<std::pair<std::string, std::string>>;

/// Looks up `key` in `params`; returns `fallback` when absent.
double param_or(const ParamMap& params, const std::string& key,
                double fallback);

/// Looks up `key` in `tags`; returns `fallback` when absent.
std::string tag_or(const TagMap& tags, const std::string& key,
                   const std::string& fallback);

/// Replaces or inserts `key` in `params`.
void set_param(ParamMap& params, const std::string& key, double value);

/// One point of a scenario's parameter sweep.
struct SweepPoint {
  /// Unique within the scenario; used in output and for --sweep filtering
  /// (e.g. "fast/ba-50").
  std::string label;

  /// Numeric knobs the trial function reads (node counts, rates, periods).
  ParamMap params;

  /// String knobs the trial function reads (algorithm / topology names).
  TagMap tags;

  /// Static reference values echoed into the results file: paper-reported
  /// numbers, analytic curves, structural metrics of a sample topology.
  ParamMap reference;

  /// Per-point divisor on the scenario's trial count (expensive sweep points
  /// run fewer trials, like the diameter-scaling bench always did).
  std::size_t trials_divisor = 1;

  /// Seed-pairing group: points sharing a group value get the SAME seed for
  /// the same trial index, so algorithm variants compare on identical
  /// random instances (topologies, demands, writers) — the common-random-
  /// numbers variance reduction the paper-comparison tables rely on.
  /// Unset: the point seeds from its own sweep index (fully independent).
  std::optional<std::size_t> seed_group;
};

/// Everything one trial observed. Field order inside each vector is the
/// insertion order and is preserved into the JSON output.
struct TrialResult {
  /// Scalar observations, aggregated across trials into mean/stddev/min/max.
  std::vector<std::pair<std::string, double>> values;

  /// Sample sets, pooled across trials into an empirical CDF.
  std::vector<std::pair<std::string, std::vector<double>>> samples;

  /// Monotone counters, summed across trials.
  std::vector<std::pair<std::string, std::uint64_t>> counters;

  /// Appends a scalar observation.
  void value(std::string name, double v) {
    values.emplace_back(std::move(name), v);
  }
  /// Appends a pooled sample set.
  void sample(std::string name, std::vector<double> v) {
    samples.emplace_back(std::move(name), std::move(v));
  }
  /// Appends a counter increment.
  void counter(std::string name, std::uint64_t v) {
    counters.emplace_back(std::move(name), v);
  }
};

/// Runs one independent repetition of a sweep point. `seed` is the only
/// source of randomness; implementations must not read clocks, globals or
/// the environment, so any two invocations with equal arguments return
/// equal results on any thread. `ctx` is the calling worker's pooled
/// state (see trial_context.hpp): anything stashed there may be reused by
/// later trials on the same worker, and MUST NOT change results — a trial
/// run with a fresh context and one run with a heavily reused context
/// return identical TrialResults (the reset-equivalence tests enforce
/// this for every registered scenario).
using TrialFn = std::function<TrialResult(
    const SweepPoint& point, std::uint64_t seed, TrialContext& ctx)>;

/// A complete experiment description. Instances live in a
/// ScenarioRegistry (registry.hpp).
struct ScenarioSpec {
  /// Registry key and results-file stem, e.g. "fig5".
  std::string name;

  /// One-line human title.
  std::string title;

  /// Paper anchor, e.g. "§5, Figure 5".
  std::string paper_ref;

  /// What the experiment shows and what shape to expect.
  std::string description;

  /// The sweep; at least one point.
  std::vector<SweepPoint> sweep;

  /// Independent repetitions per sweep point at full scale.
  std::size_t trials = 1;

  /// Repetitions per point under --smoke.
  std::size_t smoke_trials = 1;

  /// Parameter overrides applied to every point under --smoke (smaller
  /// topologies, shorter horizons). Keys absent from a point's params are
  /// inserted, so trial functions can rely on param_or defaults otherwise.
  ParamMap smoke_overrides;

  /// Runs one repetition.
  TrialFn run;
};

/// Derives the seed for one trial: a pure function of the base seed, the
/// scenario name, the sweep-point index and the trial index. Trials are
/// therefore independent of execution order and thread placement, and every
/// (scenario, point, trial) triple gets a well-separated stream.
std::uint64_t derive_trial_seed(std::uint64_t base_seed,
                                std::string_view scenario, std::size_t point,
                                std::size_t trial) noexcept;

}  // namespace fastcons::harness

#endif  // FASTCONS_HARNESS_SCENARIO_HPP
