/// @file
/// The scenario registry: every experiment this repository can run, by name.
#ifndef FASTCONS_HARNESS_REGISTRY_HPP
#define FASTCONS_HARNESS_REGISTRY_HPP

#include <string>
#include <vector>

#include "harness/scenario.hpp"

namespace fastcons::harness {

/// Named collection of ScenarioSpecs with stable iteration order
/// (registration order, which for the built-ins follows the paper).
class ScenarioRegistry {
 public:
  /// Registers a scenario. Throws ConfigError on duplicate or empty names,
  /// empty sweeps, or a missing trial function.
  void add(ScenarioSpec spec);

  /// Looks a scenario up by exact name; nullptr when absent.
  const ScenarioSpec* find(const std::string& name) const noexcept;

  /// Like find(), but throws ConfigError naming the known scenarios when
  /// `name` is not registered — the CLI's error path.
  const ScenarioSpec& get(const std::string& name) const;

  /// All scenarios in registration order.
  const std::vector<ScenarioSpec>& all() const noexcept { return specs_; }

  /// Registered names in registration order.
  std::vector<std::string> names() const;

 private:
  std::vector<ScenarioSpec> specs_;
};

/// The built-in registry: every deterministic scenario — the paper's
/// figures and claims (docs/paper-map.md maps each to its section), the
/// extensions, the "large-scale" 1k/4k-node sweeps, "faults" and
/// "degraded" — in registration order. Built fresh on each call; cheap
/// enough for CLI startup. The wall-clock families are in live_registry()
/// (src/harness_live).
ScenarioRegistry builtin_registry();

}  // namespace fastcons::harness

#endif  // FASTCONS_HARNESS_REGISTRY_HPP
