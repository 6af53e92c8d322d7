/// @file
/// The wall-clock scenario families: real TCP sockets (LocalCluster) and,
/// for recovery, the disk. Kept out of src/harness so the digest-bearing
/// harness links neither sockets nor the disk.
#ifndef FASTCONS_HARNESS_LIVE_LIVE_REGISTRY_HPP
#define FASTCONS_HARNESS_LIVE_LIVE_REGISTRY_HPP

#include "harness/registry.hpp"

namespace fastcons::harness {

/// Real-socket scenarios ("live"): LocalCluster meshes over TCP, weak vs
/// fast, measuring wall-clock convergence, sustained write throughput and
/// write-visibility latency. Results are wall-clock measurements, not
/// deterministic functions of the seed.
void register_live_scenarios(ScenarioRegistry& registry);

/// Durable crash-recovery benchmark ("recovery"): a demand-asymmetric line
/// cluster whose middle node is killed and restarted in recover mode,
/// measuring local WAL/checkpoint replay time against log size and
/// demand-ordered catch-up time against the downtime write rate. Wall-clock
/// and disk measurements.
void register_recovery_scenarios(ScenarioRegistry& registry);

/// The live-transport registry: "live" then "recovery". Kept OUT of
/// builtin_registry() on purpose — their results depend on the host and
/// the clock, so they are excluded from the determinism digests and the
/// reset-equivalence sweeps that pin every builtin scenario.
ScenarioRegistry live_registry();

}  // namespace fastcons::harness

#endif  // FASTCONS_HARNESS_LIVE_LIVE_REGISTRY_HPP
