// The "recovery" scenario family: crash a durable replica, bring it back,
// and clock both halves of its recovery — local replay (checkpoint + WAL
// off disk, no network) and demand-ordered catch-up (the anti-entropy
// sessions that re-fetch what was written while it was down).
//
// The topology is a 5-node line 0-1-2-3-4 with node 2 as the victim. Its
// two sides are demand-asymmetric (0,1 hot; 3,4 cold), so while 2 is down
// the line is partitioned into a hot half and a cold half, each absorbing
// its own writes. On restart the recovered node should serve the hot side's
// keys first — the paper's demand ordering applied to the recovery path —
// which the hot/cold catch-up split below makes directly observable.
//
// Like the "live" family these are wall-clock measurements of this host
// (and its disk), so the family lives in live_registry(), outside the
// digest-pinned builtin registry.
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "harness/scenarios.hpp"
#include "harness_live/live_registry.hpp"
#include "net/cluster.hpp"
#include "net/pacer.hpp"
#include "topology/generators.hpp"

namespace fastcons::harness {
namespace {

constexpr std::size_t kNodes = 5;
constexpr NodeId kVictim = 2;      // middle of the line: sole bridge
constexpr NodeId kHotWriter = 0;   // writes on the high-demand side
constexpr NodeId kColdWriter = 4;  // writes on the low-demand side

/// Demands along the line: the victim's neighbour 1 (hot side) far
/// outweighs neighbour 3 (cold side), so the demand-ordered catch-up queue
/// is {1, 3} whether it comes from a checkpoint or the first advert round.
/// The victim's own demand is the lowest on purpose: neither side's demand
/// cycle nor its fast-push gradient then prefers the victim, so what it
/// regains after restart comes from the sessions it initiates itself — the
/// catch-up order under test — not from ambient pushes into it.
const std::vector<double> kDemands = {90.0, 80.0, 5.0, 10.0, 8.0};

TrialResult recovery_trial(const SweepPoint& point, std::uint64_t seed,
                           TrialContext& /*ctx*/) {
  using Clock = std::chrono::steady_clock;
  namespace fs = std::filesystem;
  const auto ms_since = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
  };

  const auto preload =
      static_cast<std::uint64_t>(param_or(point.params, "preload", 1024.0));
  const double rate = param_or(point.params, "downtime_rate", 200.0);
  const double downtime_seconds =
      param_or(point.params, "downtime_seconds", 1.0);
  const auto checkpoint_every = static_cast<std::uint64_t>(
      param_or(point.params, "checkpoint_every", 0.0));
  const double timeout = param_or(point.params, "timeout_s", 30.0);

  // Scratch directory under the working directory (unique per trial: the
  // seed is a pure function of scenario/point/trial), removed on the way
  // out. A leftover from an aborted run is wiped first so recovery never
  // reads another trial's state.
  std::string label = point.label;
  for (char& c : label) {
    if (c == '/') c = '-';
  }
  const fs::path dir = fs::path("fastcons-recovery-scratch") /
                       (label + "-" + std::to_string(seed));
  std::error_code ec;
  fs::remove_all(dir, ec);

  Rng rng(seed);
  const Graph topology = make_line(kNodes, LatencyRange{}, rng);
  ClusterConfig cfg;
  cfg.protocol = ProtocolConfig::fast();  // adverts on, as in deployment
  cfg.seconds_per_unit = param_or(point.params, "seconds_per_unit", 0.02);
  cfg.seed = rng.next_u64();
  cfg.demands = kDemands;
  cfg.durability_dir = dir.string();
  // fsync stays off: the benchmark measures replay and catch-up, not the
  // host's fdatasync latency (the crash-consistency tests cover sync).
  cfg.checkpoint_every = checkpoint_every;

  LocalCluster cluster(topology, cfg);
  cluster.start();

  // Phase 1: preload through the victim, so its WAL (or checkpoint + WAL
  // suffix) holds every key, then wait for the cluster to hold them all.
  for (std::uint64_t i = 0; i < preload; ++i) {
    cluster.server(kVictim).write("pre/" + std::to_string(i), "v");
  }
  const bool preloaded = cluster.wait_for_convergence(timeout, preload);

  // Phase 2: kill the bridge and keep writing on both severed sides at the
  // configured rate — the backlog catch-up must repair.
  cluster.kill(kVictim);
  const auto downtime_writes =
      static_cast<std::uint64_t>(rate * downtime_seconds);
  const auto down_start = Clock::now();
  const RatePacer pacer(down_start, rate);
  for (std::uint64_t i = 0; i < downtime_writes; ++i) {
    auto now = Clock::now();
    while (now < pacer.due(i)) {
      std::this_thread::sleep_for(pacer.sleep_toward(i, now));
      now = Clock::now();
    }
    cluster.server(kHotWriter).write("hot/" + std::to_string(i), "v");
    cluster.server(kColdWriter).write("cold/" + std::to_string(i), "v");
  }
  // Let each severed side settle internally, so the backlog the recovered
  // node fetches is complete at its first-hop peers (1 and 3) and the hot/
  // cold timings measure catch-up transfer, not leftover intra-side
  // propagation racing the restart.
  const auto settle_deadline =
      Clock::now() + std::chrono::duration<double>(timeout);
  const std::uint64_t side_total = preload + downtime_writes;
  bool sides_settled = false;
  while (Clock::now() < settle_deadline) {
    // The count check matters: write() only enqueues, so two summaries can
    // compare equal while the tail of the burst still sits in the writer's
    // command queue.
    const SummaryVector hot_side = cluster.server(kHotWriter).summary();
    const SummaryVector cold_side = cluster.server(kColdWriter).summary();
    if (hot_side.total() >= side_total && cold_side.total() >= side_total &&
        hot_side == cluster.server(1).summary() &&
        cold_side == cluster.server(3).summary()) {
      sides_settled = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }

  // Phase 3: restart in recover mode. Local replay happens inside
  // restart() (ReplicaServer::start()); what it found is in recovery_info.
  const auto t_restart = Clock::now();
  cluster.restart(kVictim, RestartMode::recover);
  const RecoveryInfo rec = cluster.server(kVictim).recovery_info();

  // Phase 4: clock catch-up at the recovered node, hot and cold sides
  // separately. Confirmed counts only advance in key order, so each pass
  // is O(new keys), not O(all keys).
  std::uint64_t hot_seen = 0;
  std::uint64_t cold_seen = 0;
  double hot_first_ms = -1.0;
  double cold_first_ms = -1.0;
  double hot_ms = -1.0;
  double cold_ms = -1.0;
  const auto deadline =
      t_restart + std::chrono::duration<double>(timeout);
  while (Clock::now() < deadline) {
    ReplicaServer& victim = cluster.server(kVictim);
    while (hot_seen < downtime_writes &&
           victim.read("hot/" + std::to_string(hot_seen)).has_value()) {
      ++hot_seen;
    }
    while (cold_seen < downtime_writes &&
           victim.read("cold/" + std::to_string(cold_seen)).has_value()) {
      ++cold_seen;
    }
    // One timestamp per pass: when hot and cold both complete between two
    // polls, their times tie EXACTLY and the ordering below reports the
    // tie honestly instead of crediting whichever side was checked first.
    const double t = ms_since(t_restart);
    if (hot_first_ms < 0.0 && hot_seen > 0) hot_first_ms = t;
    if (cold_first_ms < 0.0 && cold_seen > 0) cold_first_ms = t;
    if (hot_ms < 0.0 && hot_seen == downtime_writes) hot_ms = t;
    if (cold_ms < 0.0 && cold_seen == downtime_writes) cold_ms = t;
    if (hot_ms >= 0.0 && cold_ms >= 0.0) break;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  // Who drove the catch-up: sessions the victim initiated (its demand-
  // ordered queue + periodic timer) vs sessions peers initiated into it.
  const EngineStats victim_stats = cluster.server(kVictim).stats();

  const bool hot_caught_up = hot_ms >= 0.0;
  const bool cold_caught_up = cold_ms >= 0.0;
  if (hot_ms < 0.0) hot_ms = ms_since(t_restart);
  if (cold_ms < 0.0) cold_ms = ms_since(t_restart);

  // Phase 5: full convergence (identical summaries everywhere) and a
  // key-value digest cross-check against a surviving peer.
  const std::uint64_t total_updates = preload + 2 * downtime_writes;
  const bool converged = cluster.wait_for_convergence(timeout, total_updates);
  const double total_ms = ms_since(t_restart);
  const bool digest_match = cluster.server(kVictim).kv_digest() ==
                            cluster.server(kHotWriter).kv_digest();
  cluster.stop();
  fs::remove_all(dir, ec);

  TrialResult out;
  out.value("preloaded", preloaded ? 1.0 : 0.0);
  out.value("sides_settled", sides_settled ? 1.0 : 0.0);
  out.value("converged", converged ? 1.0 : 0.0);
  out.value("kv_digest_match", digest_match ? 1.0 : 0.0);
  out.value("recovered_from_disk", rec.recovered_from_disk ? 1.0 : 0.0);
  out.value("had_checkpoint", rec.had_checkpoint ? 1.0 : 0.0);
  out.value("restored_updates", static_cast<double>(rec.restored_updates));
  // No full resync: everything written before the crash came back off disk.
  out.value("resync_avoided",
            rec.restored_updates >= preload ? 1.0 : 0.0);
  out.value("local_recovery_ms", rec.load_ms);
  out.value("wal_replay_records", static_cast<double>(rec.wal_records));
  out.value("wal_replay_bytes", static_cast<double>(rec.wal_bytes));
  out.value("checkpoint_updates",
            static_cast<double>(rec.checkpoint_updates));
  out.value("hot_caught_up", hot_caught_up ? 1.0 : 0.0);
  out.value("cold_caught_up", cold_caught_up ? 1.0 : 0.0);
  out.value("hot_first_ms", hot_first_ms);
  out.value("cold_first_ms", cold_first_ms);
  out.value("hot_catchup_ms", hot_ms);
  out.value("cold_catchup_ms", cold_ms);
  // 1 = hot side strictly first, 0 = cold strictly first, 0.5 = both
  // completed inside one poll window (indistinguishable at this scale).
  out.value("hot_before_cold",
            !hot_caught_up                         ? 0.0
            : !cold_caught_up || hot_ms < cold_ms  ? 1.0
            : hot_ms == cold_ms                    ? 0.5
                                                   : 0.0);
  out.value("total_catchup_ms", total_ms);
  out.value("downtime_writes_per_side",
            static_cast<double>(downtime_writes));
  out.counter("wal_records", rec.wal_records);
  out.counter("wal_bytes", rec.wal_bytes);
  out.value("victim_sessions_initiated",
            static_cast<double>(victim_stats.sessions_initiated));
  out.value("victim_sessions_responded",
            static_cast<double>(victim_stats.sessions_responded));
  return out;
}

/// One sweep point; params omitted here fall back to the trial defaults
/// (preload 1024, downtime_rate 200, checkpoint_every 0 = WAL only).
void add_recovery_point(std::vector<SweepPoint>& sweep,
                        const std::string& label, ParamMap params) {
  SweepPoint point;
  point.label = label;
  point.params = std::move(params);
  sweep.push_back(std::move(point));
}

}  // namespace

void register_recovery_scenarios(ScenarioRegistry& registry) {
  ScenarioSpec spec;
  spec.name = "recovery";
  spec.title = "Durable recovery: WAL replay time and demand-first catch-up";
  spec.paper_ref = "§3-4 (rapid updating, applied to the recovery path)";
  spec.description =
      "Crash-and-recover benchmark for the durability layer. A 5-node line "
      "with a demand-hot side (0,1) and a demand-cold side (3,4) preloads "
      "writes through the middle node, kills it, keeps writing on both "
      "severed sides, then restarts it in recover mode. Reported per point: "
      "local recovery time vs WAL size (wal-* points) and vs checkpoint "
      "presence (checkpointed point), catch-up time vs the downtime write "
      "rate (rate-* points), and whether the demand-hot side's keys became "
      "readable before the cold side's (hot_before_cold — the paper's "
      "demand ordering on the recovery path). resync_avoided = 1 means the "
      "pre-crash state came back from disk, not from peers. Wall-clock "
      "measurements of this host — excluded from the determinism digests.";
  add_recovery_point(spec.sweep, "wal-256", {{"preload", 256}});
  add_recovery_point(spec.sweep, "wal-1024", {{"preload", 1024}});
  add_recovery_point(spec.sweep, "wal-4096", {{"preload", 4096}});
  add_recovery_point(spec.sweep, "checkpointed-4096",
                     {{"preload", 4096}, {"checkpoint_every", 32}});
  add_recovery_point(spec.sweep, "rate-50",
                     {{"preload", 1024}, {"downtime_rate", 50}});
  add_recovery_point(spec.sweep, "rate-400",
                     {{"preload", 1024}, {"downtime_rate", 400}});
  spec.trials = 3;
  spec.smoke_trials = 1;
  // Smoke: small preloads and a short downtime window, same five phases.
  // checkpoint_every is per-point, so the checkpointed point still writes
  // checkpoints (64 / 32 = 2 of them) under smoke.
  spec.smoke_overrides = {{"preload", 64},
                          {"downtime_rate", 60.0},
                          {"downtime_seconds", 0.4},
                          {"timeout_s", 20.0}};
  spec.run = recovery_trial;
  registry.add(std::move(spec));
}

ScenarioRegistry live_registry() {
  ScenarioRegistry registry;
  register_live_scenarios(registry);
  register_recovery_scenarios(registry);
  return registry;
}

}  // namespace fastcons::harness
