/// @file
/// Multi-threaded trial execution and order-independent aggregation.
#ifndef FASTCONS_HARNESS_RUNNER_HPP
#define FASTCONS_HARNESS_RUNNER_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "harness/scenario.hpp"
#include "stats/cdf.hpp"
#include "stats/online_stats.hpp"

namespace fastcons::harness {

/// Execution knobs shared by the CLI and the tests.
struct RunOptions {
  /// Worker threads. 0 means hardware_concurrency (min 1). Results are
  /// bit-identical for every value: trials are seeded by index and
  /// aggregated in index order.
  std::size_t jobs = 1;

  /// Tiny-scale mode: smoke_trials per point and smoke_overrides applied.
  bool smoke = false;

  /// Base seed fed into derive_trial_seed.
  std::uint64_t base_seed = 42;

  /// Overrides the spec's trial count (per sweep point, before the
  /// per-point divisor). Set by --trials.
  std::optional<std::size_t> trials = std::nullopt;

  /// When set, only sweep points whose label contains this substring run.
  /// Point indices (and therefore seeds and results) are unaffected by the
  /// filtering, so a filtered run reproduces the same numbers.
  std::string sweep_filter;
};

/// Aggregated results of one sweep point.
struct PointResult {
  /// The point as executed (smoke overrides applied).
  SweepPoint point;

  /// Index of the point in the spec's sweep (stable under --sweep filters).
  std::size_t index = 0;

  /// Trials executed for this point.
  std::size_t trials = 0;

  /// Scalar metrics: per-trial values reduced to count/mean/stddev/min/max.
  std::vector<std::pair<std::string, OnlineStats>> values;

  /// Distributions: samples pooled across trials.
  std::vector<std::pair<std::string, EmpiricalCdf>> samples;

  /// Counters summed across trials.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

/// Aggregated results of one scenario run.
struct ScenarioResult {
  std::string name;
  std::string title;
  std::string paper_ref;
  std::string description;
  bool smoke = false;
  std::uint64_t base_seed = 0;
  std::vector<PointResult> points;
};

/// Runs every (selected) sweep point of `spec` with `options.jobs` worker
/// threads. Trials execute in arbitrary order across threads; aggregation
/// happens afterwards in (point, trial) index order, so the returned
/// ScenarioResult — and its JSON serialisation — is bit-identical
/// regardless of thread count. Exceptions thrown by trial functions are
/// rethrown here (the one from the lowest task index wins).
ScenarioResult run_scenario(const ScenarioSpec& spec, const RunOptions& options);

}  // namespace fastcons::harness

#endif  // FASTCONS_HARNESS_RUNNER_HPP
