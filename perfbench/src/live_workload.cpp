// live-line3: three in-process ReplicaServers on loopback TCP in a line
// (0 - 1 - 2), the fast protocol with peer health on, a durable WAL per
// replica with FsyncPolicy::none and no periodic checkpoint, so a crash
// recovery replays the whole WAL. One generator thread (the calling one)
// writes open-loop at every replica on a fixed ladder of offered rates and
// probes visibility with client reads; then the middle replica is
// crash-stopped and restarted in recover mode, three times.
#include <algorithm>
#include <array>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "durability/store.hpp"
#include "durability/wal.hpp"
#include "harness/scenario.hpp"
#include "net/cluster.hpp"
#include "net/wire.hpp"
#include "topology/generators.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace fastcons;
namespace fs = std::filesystem;

namespace {

constexpr std::size_t kReplicas = 3;
constexpr NodeId kVictim = 1;  // the middle of the line
/// Wall seconds per protocol time unit (the mean session period): the
/// LocalCluster default. With 5 ms and 20 ms periods the visibility median
/// followed the host's thread-wakeup latency and moved 25-75% between runs
/// on a shared 4-core host; at 50 ms, sessions set it and it repeats.
constexpr double kSecondsPerUnit = 0.05;
/// A demand gradient along the line, so fast pushes flow 0 -> 1 -> 2 and
/// writes at the high-demand end reach the others only by sessions.
constexpr double kDemands[kReplicas] = {10.0, 50.0, 90.0};
/// Offered rates (writes/s summed over the three writers). 500/s is the
/// fixed rung the latency metrics come from: every write lands in a sorted
/// log, so the cost of a write grows over the rung, and at 1000/s the end
/// of a 20 s rung was close enough to the knee that visibility followed
/// the host's speed. 16000/s is past the knee but still drains.
constexpr double kLadder[] = {500.0, 1000.0, 2000.0, 4000.0, 8000.0, 16000.0};
constexpr double kFixedRate = 500.0;
/// Each other rung runs this long, or a tenth of --seconds if that is
/// shorter; the fixed rung runs the rest. Short upper rungs keep the logs,
/// the WAL and the top rung's backlog the same size at any run length.
constexpr double kOtherRungSeconds = 0.5;
/// max_writes_per_s counts a rung whose visibility p99 stays at or below this.
constexpr double kVisibilityLimitMs = 250.0;
/// A write not visible everywhere this long after the rung's last due time
/// has failed.
constexpr double kDrainBoundSeconds = 5.0;
/// Unconfirmed writes a probe pass may read past in one (origin, replica)
/// queue before moving on: bounds the reads per pass while still catching
/// updates that arrive out of order.
constexpr std::size_t kProbeWindow = 8;
/// Time between probe passes: visibility is resolved to about this.
constexpr auto kProbeInterval = std::chrono::microseconds(100);
constexpr int kSetups = 21;
/// Slices of the fixed rung in a traced run, alternately untraced and traced.
constexpr std::size_t kTracedSlices = 8;
constexpr int kRecoveries = 3;

struct Write {
  std::string key;
  std::string value;
  NodeId writer = 0;
  Clock::time_point due;
  double late_ms = 0.0;
  std::uint8_t seen = 0;  // bit r: visible at replica r
  bool visible = false;
  double visibility_ms = 0.0;
};

struct Rung {
  double rate = 0.0;
  std::size_t count = 0;  // writes, issued 1/rate apart
  std::vector<Write> writes;
  LogHistogram read_us;  // reads made while this rung's writes flowed
  std::uint64_t failed_reads = 0;
  double poll_gap_us_p50 = 0.0;
  std::size_t passes = 0;
  bool traced = false;
  // Server threads' CPU time and engine events (frames received plus local
  // writes) during the rung, for events_per_cpu_s.
  double server_cpu_s = 0.0;
  std::uint64_t events = 0;
};

std::uint64_t frames_received(LocalCluster& cluster, Tracer* tracer) {
  std::uint64_t sum = 0;
  for (NodeId n = 0; n < kReplicas; ++n) {
    const MaybeSpan span(tracer, SpanKind::server_stats);
    sum += cluster.server(n).net_stats().frames_received;
  }
  return sum;
}

/// Reads `key` at `replica`; the latency is a read_us sample of `window`
/// when the read happened while that rung's writes flowed.
std::optional<std::string> timed_read(LocalCluster& cluster, NodeId replica,
                                      const std::string& key, Tracer* tracer, Rung* window) {
  const auto t0 = Clock::now();
  std::optional<std::string> got;
  {
    const MaybeSpan span(tracer, SpanKind::server_read);
    got = cluster.server(replica).read(key);
  }
  if (window != nullptr) {
    window->read_us.add(std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
  }
  return got;
}

class Generator {
 public:
  Generator(LocalCluster& cluster, Rng& rng, std::uint64_t seed)
      : cluster_(cluster), rng_(rng), seed_(seed) {}

  /// Runs one rung: issues its writes 1/rate apart, at their due times, and
  /// probes until each is visible everywhere or the drain bound passes.
  /// With a tracer, the rung also samples peer health and summaries.
  void run(Rung& rung, std::size_t rung_index, Tracer* tracer, std::vector<double>& health_polls,
           std::vector<SummaryVector>& summaries) {
    tracer_ = tracer;
    const std::size_t count = rung.count;
    rung.writes.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      Write& w = rung.writes[i];
      w.key = "r" + std::to_string(rung_index) + "/" + std::to_string(i);
      char value[40];
      std::snprintf(value, sizeof(value), "%016llx-%zu",
                    static_cast<unsigned long long>(seed_ ^ rng_.next_u64()), i);
      w.value = value;
      // Each block of three writes has one at every replica, in a seeded
      // order: the mix is exactly a third each, because the visibility
      // median is sensitive to the share of writes the fast path serves.
      if (i % kReplicas == 0) {
        for (NodeId r = 0; r < kReplicas; ++r) order_[r] = r;
        rng_.shuffle(order_);
      }
      w.writer = order_[i % kReplicas];
    }
    for (auto& q : queues_) q.clear();

    const auto gap = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / rung.rate));
    const auto start = Clock::now();
    const auto last_due = start + gap * static_cast<long>(count > 0 ? count - 1 : 0);
    const auto drain_deadline = last_due + std::chrono::duration_cast<Clock::duration>(
                                                    std::chrono::duration<double>(kDrainBoundSeconds));
    std::size_t next = 0, outstanding = 0;
    std::vector<double> poll_gaps;
    auto last_pass = start;
    auto next_pass = start;
    auto next_sample = start;
    while (true) {
      auto now = Clock::now();
      while (next < count && start + gap * static_cast<long>(next) <= now) {
        Write& w = rung.writes[next];
        w.due = start + gap * static_cast<long>(next);
        {
          const MaybeSpan span(tracer_, SpanKind::server_write);
          cluster_.server(w.writer).write(w.key, w.value);
        }
        now = Clock::now();
        w.late_ms = ms_between(w.due, now);
        for (NodeId r = 0; r < kReplicas; ++r) queues_[w.writer * kReplicas + r].push_back(next);
        ++outstanding;
        ++next;
      }
      if (next == count && outstanding == 0) break;
      if (next == count && now > drain_deadline) break;
      if (now >= next_pass) {
        Rung* window = next < count ? &rung : nullptr;
        outstanding -= probe_pass(rung, window);
        poll_gaps.push_back(std::chrono::duration<double, std::micro>(now - last_pass).count());
        last_pass = now;
        next_pass = now + kProbeInterval;
        if (tracer_ != nullptr && now >= next_sample) {
          sample_health(health_polls);
          if (summaries.size() < 256) {
            for (NodeId r = 0; r < kReplicas; ++r) {
              const MaybeSpan span(tracer_, SpanKind::server_stats);
              summaries.push_back(cluster_.server(r).summary());
            }
          }
          next_sample = now + std::chrono::milliseconds(20);
        }
      }
      // Sleep toward the next due write or probe; spin the last stretch so
      // writes leave on time.
      const auto next_due = next < count ? start + gap * static_cast<long>(next) : drain_deadline;
      const auto wake = std::min(next_due, next_pass);
      if (wake - Clock::now() > std::chrono::microseconds(200)) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      } else {
        std::this_thread::yield();
      }
    }
    rung.poll_gap_us_p50 = median(poll_gaps);
    rung.passes = poll_gaps.size();
  }

 private:
  /// One probe pass over every (origin, replica) queue. Returns the number
  /// of writes that became visible at every replica.
  std::size_t probe_pass(Rung& rung, Rung* window) {
    std::size_t completed = 0;
    for (std::size_t qi = 0; qi < queues_.size(); ++qi) {
      const auto replica = static_cast<NodeId>(qi % kReplicas);
      std::deque<std::size_t>& q = queues_[qi];
      std::size_t misses = 0;
      for (std::size_t i = 0; i < q.size() && misses < kProbeWindow;) {
        Write& w = rung.writes[q[i]];
        const std::optional<std::string> got = timed_read(cluster_, replica, w.key, tracer_, window);
        if (!got.has_value()) {
          ++misses;
          ++i;
          continue;
        }
        if (*got != w.value) ++rung.failed_reads;
        w.seen |= static_cast<std::uint8_t>(1u << replica);
        if (w.seen == (1u << kReplicas) - 1) {
          w.visible = true;
          w.visibility_ms = ms_between(w.due, Clock::now());
          ++completed;
        }
        q.erase(q.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
    return completed;
  }

  void sample_health(std::vector<double>& polls) {
    double non_up = 0.0;
    for (NodeId n = 0; n < kReplicas; ++n) {
      NetStats stats;
      {
        const MaybeSpan span(tracer_, SpanKind::server_stats);
        stats = cluster_.server(n).net_stats();
      }
      for (const PeerNetStats& peer : stats.peers) non_up += peer.health == PeerHealth::up ? 0 : 1;
    }
    polls.push_back(non_up);
  }

  LocalCluster& cluster_;
  Rng& rng_;
  std::uint64_t seed_;
  Tracer* tracer_ = nullptr;
  std::vector<NodeId> order_ = std::vector<NodeId>(kReplicas);
  std::array<std::deque<std::size_t>, kReplicas * kReplicas> queues_;
};

/// Statistics pooled over one or more rungs.
struct Pooled {
  std::vector<double> vis;   ///< visibility of the writes that became visible
  std::vector<double> late;  ///< generator lateness of every write
  LogHistogram read_us;
  double server_cpu_s = 0.0;
  std::uint64_t events = 0;

  void add(const Rung& rung) {
    for (const Write& w : rung.writes) {
      if (w.visible) vis.push_back(w.visibility_ms);
      late.push_back(w.late_ms);
    }
    read_us.merge(rung.read_us);
    server_cpu_s += rung.server_cpu_s;
    events += rung.events;
  }
  double events_per_cpu_s() const {
    return static_cast<double>(events) / std::max(server_cpu_s, 1e-9);
  }
};

ClusterConfig cluster_config(std::uint64_t seed, const std::string& dir) {
  ClusterConfig cfg;
  cfg.protocol = ProtocolConfig::fast();
  cfg.protocol.health.enabled = true;
  cfg.seconds_per_unit = kSecondsPerUnit;
  cfg.seed = seed;
  cfg.demands.assign(std::begin(kDemands), std::end(kDemands));
  cfg.durability_dir = dir;
  cfg.fsync = FsyncPolicy::none;
  cfg.checkpoint_every = 0;
  return cfg;
}

/// Polls `done` every 100 us until it holds or `timeout_s` passes.
template <typename F>
bool wait_until(F done, double timeout_s) {
  const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(timeout_s));
  while (Clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return done();
}

struct Live {
  std::unique_ptr<LocalCluster> cluster;
  std::string dir;
};

/// Removes the run's data directory when the workload ends, on an error
/// too. Declared before the cluster, so the servers stop first.
struct DataDir {
  std::string path;
  ~DataDir() {
    std::error_code ignored;
    fs::remove_all(path, ignored);
  }
};

/// Builds and starts a cluster and waits until every peer is up and a seed
/// write is readable at every replica.
Live start_cluster(const std::string& dir, std::uint64_t seed, double& topology_us) {
  Live live;
  live.dir = dir;
  Rng rng(seed);
  const auto t0 = Clock::now();
  const Graph line = make_line(kReplicas, LatencyRange{}, rng);
  topology_us = std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
  live.cluster = std::make_unique<LocalCluster>(line, cluster_config(rng.next_u64(), dir));
  live.cluster->start();
  if (!live.cluster->wait_for_peer_health(10.0)) throw std::runtime_error("peers never came up");
  live.cluster->server(0).write("seed", "seed-value");
  const bool converged = wait_until(
      [&] {
        for (NodeId r = 0; r < kReplicas; ++r) {
          if (live.cluster->server(r).read("seed") != std::optional<std::string>("seed-value")) {
            return false;
          }
        }
        return true;
      },
      10.0);
  if (!converged) throw std::runtime_error("seed write never converged");
  return live;
}

/// Codec timings on the live run's message shapes, built from its updates
/// and a captured summary.
void time_codec(Report& report, Tracer& tracer, const std::vector<Update>& updates,
                const SummaryVector& summary) {
  if (updates.empty()) return;
  const std::vector<Update> batch(updates.begin(),
                                  updates.begin() + static_cast<std::ptrdiff_t>(std::min<std::size_t>(8, updates.size())));
  std::vector<Message> shapes;
  shapes.emplace_back(SessionRequest{7});
  shapes.emplace_back(SessionSummary{7, summary});
  shapes.emplace_back(SessionPush{7, summary, batch});
  shapes.emplace_back(SessionReply{7, batch});
  shapes.emplace_back(FastOffer{9, {OfferedId{updates.front().id, updates.front().created_at}}});
  shapes.emplace_back(FastAck{9, true, {updates.front().id}});
  shapes.emplace_back(FastData{9, {updates.front()}});
  shapes.emplace_back(DemandAdvert{50.0});
  std::uint64_t sink = 0;
  for (int round = 0; round < 500; ++round) {
    for (const Message& m : shapes) {
      std::vector<std::uint8_t> frame;
      {
        const Span span(tracer, SpanKind::frame_encode);
        frame = encode_frame(kVictim, m);
      }
      const Span span(tracer, SpanKind::frame_decode);
      const WireFrame decoded = decode_body(std::span<const std::uint8_t>(frame).subspan(4));
      sink += decoded.sender + frame.size();
    }
  }
  const auto per_call = [&](SpanKind k) {
    return static_cast<double>(tracer.total_ns(k)) / static_cast<double>(tracer.calls(k));
  };
  report.per_layer("net.encode_ns", per_call(SpanKind::frame_encode));
  report.per_layer("net.decode_ns", per_call(SpanKind::frame_decode));
  report.note("codec checksum", std::to_string(sink));
}

/// Replays a copy of the crashed replica's directory from outside, and
/// times WAL appends of the workload's own updates.
std::vector<Update> time_durability(Report& report, Tracer& tracer, const std::string& copy,
                                    const std::string& append_path) {
  std::vector<double> replay_ms;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    {
      const Span span(tracer, SpanKind::store_recover);
      DurableStore store(DurabilityConfig{copy, FsyncPolicy::none, 0});
      RecoveryStats stats;
      store.recover(kVictim, stats);
    }
    replay_ms.push_back(ms_between(t0, Clock::now()));
  }
  report.per_layer("durability.replay_ms", median(replay_ms));

  std::vector<std::uint8_t> bytes;
  {
    std::FILE* f = std::fopen((copy + "/wal.log").c_str(), "rb");
    if (f != nullptr) {
      std::uint8_t buf[1 << 16];
      std::size_t got = 0;
      while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.insert(bytes.end(), buf, buf + got);
      std::fclose(f);
    }
  }
  WalScanResult scan = scan_wal(bytes);
  if (!scan.updates.empty()) {
    fs::remove(append_path);
    WalWriter writer(append_path);
    std::vector<std::uint8_t> record;
    for (const Update& u : scan.updates) {
      const Span span(tracer, SpanKind::wal_append);
      record.clear();
      encode_wal_record(record, u);
      writer.append(record);
    }
    report.per_layer("durability.append_us", static_cast<double>(tracer.total_ns(SpanKind::wal_append)) /
                                                 static_cast<double>(tracer.calls(SpanKind::wal_append)) / 1e3);
    fs::remove(append_path);
  }
  return std::move(scan.updates);
}

}  // namespace

void run_live_workload(const Options& options, Report& report) {
  report.provenance(4);
  report.note("config", "topology=line-3 protocol=fast health=on seconds_per_unit=" +
                            fixed(kSecondsPerUnit, 3) + " demands=10,50,90 durability=wal fsync=none "
                            "checkpoint_every=0 threads=3 servers + 1 generator, 4 connections "
                            "load=open-loop, writers=all 3 replicas, ladder=500,1000,2000,4000,8000,16000 "
                            "writes/s, fixed rung=500 writes/s, drain bound=5 s");
  std::unique_ptr<Tracer> tracer_owner;
  if (options.trace) tracer_owner = std::make_unique<Tracer>();
  Tracer* tracer = tracer_owner.get();

  const DataDir data{options.out_dir + "/live-" + std::to_string(::getpid())};
  fs::remove_all(data.path);
  fs::create_directories(data.path);
  const std::string base = data.path + "/";
  Rng rng(harness::derive_trial_seed(options.seed, "live-line3", 0, 0));

  // Set-up, several times; the last cluster is the one measured.
  std::vector<double> setups;
  double topology_us = 0.0;
  Live live;
  for (int rep = 0; rep < kSetups; ++rep) {
    if (live.cluster != nullptr) {
      live.cluster->stop();
      live.cluster.reset();
      fs::remove_all(live.dir);
    }
    const auto t0 = Clock::now();
    live = start_cluster(base + "cluster-" + std::to_string(rep), rng.next_u64(), topology_us);
    setups.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  LocalCluster& cluster = *live.cluster;
  report.note("setup samples", [&] {
    std::string s;
    for (const double v : setups) s += (s.empty() ? "" : ",") + fixed(v * 1e3, 3);
    return s + " ms";
  }());

  // The ladder. A traced run splits the fixed rung into slices that
  // alternate untraced and traced, so the tracing overhead is the
  // difference between the two kinds while the total work stays that of
  // the untraced run, and the log's growth over the rung affects both.
  std::vector<Rung> rungs;
  const double other_seconds = std::min(kOtherRungSeconds, options.seconds / 10.0);
  for (const double rate : kLadder) {
    Rung r;
    r.rate = rate;
    r.traced = options.trace;
    const double seconds =
        rate == kFixedRate
            ? options.seconds - other_seconds * static_cast<double>(std::size(kLadder) - 1)
            : other_seconds;
    const auto count = static_cast<std::size_t>(rate * seconds);
    if (rate == kFixedRate && options.trace) {
      for (std::size_t slice = 0; slice < kTracedSlices; ++slice) {
        r.traced = slice % 2 == 1;
        r.count = count * (slice + 1) / kTracedSlices - count * slice / kTracedSlices;
        rungs.push_back(r);
      }
      continue;
    }
    r.count = count;
    rungs.push_back(std::move(r));
  }
  Generator generator(cluster, rng, options.seed);
  std::vector<double> health_polls;
  std::vector<SummaryVector> summaries;
  const std::uint64_t frames0 = frames_received(cluster, nullptr);
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    Rung& rung = rungs[i];
    const double cpu0 = process_cpu_seconds(), gen0 = thread_cpu_seconds();
    const std::uint64_t ev0 = frames_received(cluster, nullptr);
    generator.run(rung, i, rung.traced ? tracer : nullptr, health_polls, summaries);
    rung.server_cpu_s = (process_cpu_seconds() - cpu0) - (thread_cpu_seconds() - gen0);
    rung.events = frames_received(cluster, nullptr) - ev0 + rung.writes.size();
  }

  // Stream totals, before the crash disturbs the connections.
  std::uint64_t writes = 0, visible = 0, failed_reads = 0;
  for (const Rung& r : rungs) {
    failed_reads += r.failed_reads;
    for (const Write& w : r.writes) {
      ++writes;
      visible += w.visible ? 1 : 0;
    }
  }
  NetStats net;
  TrafficCounters traffic;
  std::uint64_t dups = 0, received = 0, frames_shed = 0;
  for (NodeId n = 0; n < kReplicas; ++n) {
    const NetStats s = cluster.server(n).net_stats();
    net.frames_sent += s.frames_sent;
    net.bytes_sent += s.bytes_sent;
    net.frames_dropped += s.frames_dropped;
    net.frames_received += s.frames_received;
    net.codec_errors += s.codec_errors;
    net.disconnects += s.disconnects;
    for (const PeerNetStats& p : s.peers) frames_shed += p.frames_shed;
    traffic.merge(cluster.server(n).traffic());
    const EngineStats e = cluster.server(n).stats();
    dups += e.duplicate_updates;
    received += e.duplicate_updates + e.updates_applied;
  }
  const SummaryVector final_summary = cluster.server(0).summary();

  // Recovery: crash-stop the middle replica and restart it in recover mode.
  std::vector<double> recovery_ms;
  std::vector<RecoveryInfo> recoveries;
  double repromote_ms = 0.0;
  const std::string copy_dir = base + "victim-copy";
  const std::string victim_dir = live.dir + "/node-" + std::to_string(kVictim);
  bool recovered_ok = true;
  for (int cycle = 0; cycle < kRecoveries; ++cycle) {
    cluster.kill(kVictim);
    if (cycle == 0 && tracer != nullptr) {
      fs::copy(victim_dir, copy_dir, fs::copy_options::recursive);
    }
    const auto t0 = Clock::now();
    {
      const MaybeSpan span(tracer, SpanKind::cluster_restart);
      cluster.restart(kVictim, RestartMode::recover);
    }
    ReplicaServer& victim = cluster.server(kVictim);
    std::size_t rung_i = 0, write_i = 0;
    const bool served = wait_until(
        [&] {
          for (; rung_i < rungs.size(); ++rung_i, write_i = 0) {
            for (; write_i < rungs[rung_i].writes.size(); ++write_i) {
              const Write& w = rungs[rung_i].writes[write_i];
              if (!w.visible) continue;
              if (victim.read(w.key) != std::optional<std::string>(w.value)) return false;
            }
          }
          return cluster.converged(1);
        },
        kDrainBoundSeconds);
    recovery_ms.push_back(ms_between(t0, Clock::now()));
    recovered_ok = recovered_ok && served;
    recoveries.push_back(victim.recovery_info());
    if (cycle == 0 && tracer != nullptr) {
      wait_until([&] { return cluster.all_peers_up(); }, kDrainBoundSeconds);
      repromote_ms = ms_between(t0, Clock::now());
    }
  }

  // Output checks. --corrupt falsifies one expectation.
  std::uint64_t wrong_values = 0, checked = 0;
  bool first = true;
  for (const Rung& r : rungs) {
    for (const Write& w : r.writes) {
      if (!w.visible) continue;
      const std::string expected =
          w.value + (first && options.corrupts("live-readback") ? "-corrupted" : "");
      first = false;
      for (NodeId n = 0; n < kReplicas; ++n) {
        ++checked;
        if (cluster.server(n).read(w.key) != std::optional<std::string>(expected)) ++wrong_values;
      }
    }
  }
  report.check("live-readback", wrong_values == 0 && failed_reads == 0,
               std::to_string(checked - wrong_values) + " of " + std::to_string(checked) +
                   " reads of confirmed writes returned the written value; " +
                   std::to_string(failed_reads) + " probe reads returned another value");
  std::uint64_t digests[kReplicas];
  for (NodeId n = 0; n < kReplicas; ++n) digests[n] = cluster.server(n).kv_digest();
  const std::uint64_t expected_digest = digests[0] + (options.corrupts("live-kv-digest") ? 1 : 0);
  bool digests_equal = true;
  for (NodeId n = 0; n < kReplicas; ++n) digests_equal = digests_equal && digests[n] == expected_digest;
  report.check("live-kv-digest", digests_equal, "kv_digest equal on all replicas after recovery");
  const std::uint64_t expected_codec_errors = options.corrupts("live-no-codec-errors") ? 1 : 0;
  report.check("live-no-codec-errors", net.codec_errors == expected_codec_errors,
               std::to_string(net.codec_errors) + " codec errors during the stream");
  const bool expect_recovered = !options.corrupts("live-recovered-from-disk");
  bool all_recovered = recovered_ok;
  for (const RecoveryInfo& info : recoveries) {
    all_recovered = all_recovered && info.recovered_from_disk == expect_recovered &&
                    (info.wal_records > 0) == expect_recovered;
  }
  report.check("live-recovered-from-disk", all_recovered,
               std::to_string(recoveries.size()) +
                   " restarts of the middle replica recovered from its WAL and served every "
                   "key it held within the drain bound");

  const std::uint64_t failed = (writes - visible) + failed_reads;
  report.add_attempts(writes + checked, failed);

  // End-to-end metrics, from the fixed rung (its traced slices in a traced
  // run, whose untraced slices give the tracing overhead).
  Pooled fixed_rung, untraced_slices;
  double max_rate = 0.0;
  for (const Rung& r : rungs) {
    Pooled one;
    one.add(r);
    const double p99 = percentile(one.vis, 99.0);
    if (one.vis.size() == r.writes.size() && p99 <= kVisibilityLimitMs) {
      max_rate = std::max(max_rate, r.rate);
    }
    if (r.rate == kFixedRate) (r.traced == options.trace ? fixed_rung : untraced_slices).add(r);
    report.note("rung " + fixed(r.rate, 0) + (r.traced ? " traced" : ""),
                "writes=" + std::to_string(r.writes.size()) + " visible=" + std::to_string(one.vis.size()) +
                    " visibility_ms_p50=" + fixed(median(one.vis)) + " visibility_ms_p99=" + fixed(p99) +
                    " read_us_p99=" + fixed(r.read_us.percentile(99.0), 3) +
                    " events_per_cpu_s=" + fixed(one.events_per_cpu_s(), 0) +
                    " late_ms_p99=" + fixed(percentile(one.late, 99.0), 3) +
                    " poll_gap_us_p50=" + fixed(r.poll_gap_us_p50, 1) +
                    " probe_passes=" + std::to_string(r.passes));
  }
  for (NodeId origin = 0; origin < kReplicas; ++origin) {
    std::vector<double> vis;
    for (const Rung& r : rungs) {
      if (r.rate != kFixedRate || r.traced != options.trace) continue;
      for (const Write& w : r.writes) {
        if (w.visible && w.writer == origin) vis.push_back(w.visibility_ms);
      }
    }
    report.note("fixed rung writes at replica " + std::to_string(origin),
                "visibility_ms_p50=" + fixed(median(vis)) + " visibility_ms_p99=" +
                    fixed(percentile(vis, 99.0)) + " writes=" + std::to_string(vis.size()));
  }
  const Tail vis_tail = tail_at(fixed_rung.vis, 99.0);
  if (!options.trace) {
    report.end_to_end("setup_s", median(setups), "s");
    report.end_to_end("peak_rss_mb", peak_rss_mb(), "MB");
    report.end_to_end("events_per_cpu_s", fixed_rung.events_per_cpu_s(), "1/s");
    report.end_to_end("update_ms_p50", median(fixed_rung.vis), "ms");
    report.end_to_end("update_ms_tail", vis_tail.value, "ms");
  }
  report.info("visibility_ms_p50", median(fixed_rung.vis), "ms");
  report.info("visibility_ms_p99", vis_tail.value, "ms");
  report.note("tail", "visibility_ms_p99 has " + std::to_string(vis_tail.beyond) + " of " +
                          std::to_string(vis_tail.samples) + " writes beyond it (fixed rung)");
  report.info("max_writes_per_s", max_rate, "1/s");
  report.info("read_us_p99", fixed_rung.read_us.percentile(99.0), "us");
  report.note("read samples", std::to_string(fixed_rung.read_us.count()) +
                                  " probe reads while the fixed rung's writes flowed");
  report.info("recovery_ms", median(recovery_ms), "ms");
  report.note("recovery samples", [&] {
    std::string s;
    for (const double v : recovery_ms) s += (s.empty() ? "" : ",") + fixed(v, 3);
    return s + " ms";
  }());
  if (options.trace) {
    report.info("trace.overhead_visibility_ms_p50", median(fixed_rung.vis) - median(untraced_slices.vis), "ms");
    report.info("trace.overhead_visibility_ms_p99",
                vis_tail.value - percentile(untraced_slices.vis, 99.0), "ms");
    report.info("trace.overhead_read_us_p99",
                fixed_rung.read_us.percentile(99.0) - untraced_slices.read_us.percentile(99.0), "us");
    report.info("trace.overhead_events_per_cpu_pct",
                (fixed_rung.events_per_cpu_s() / untraced_slices.events_per_cpu_s() - 1.0) * 100.0, "%");
  }

  // Deterministic counts.
  report.count("writes", static_cast<double>(writes));
  report.count("log_updates", static_cast<double>(final_summary.total()));
  report.count("summary_origins", static_cast<double>(final_summary.origins().size()));
  report.count("wal_records_replayed", static_cast<double>(recoveries.front().wal_records));
  report.count("wal_bytes_replayed", static_cast<double>(recoveries.front().wal_bytes));
  report.info("fixed_rung_server_cpu_s", fixed_rung.server_cpu_s, "s");

  if (tracer != nullptr) {
    const double n = static_cast<double>(std::max<std::uint64_t>(writes, 1));
    const auto per_write = [&](TrafficClass a, TrafficClass b) {
      return static_cast<double>(traffic.messages(a) + traffic.messages(b)) / n;
    };
    report.per_layer("topology.generate_us", topology_us);
    report.per_layer("core.handle_calls", static_cast<double>(net.frames_received - frames0) / n);
    report.per_layer("core.msgs_session",
                     per_write(TrafficClass::session_control, TrafficClass::session_payload));
    report.per_layer("core.msgs_fast", per_write(TrafficClass::fast_control, TrafficClass::fast_payload));
    report.per_layer("core.msgs_advert", static_cast<double>(traffic.messages(TrafficClass::demand_advert)) / n);
    report.per_layer("core.dup_ratio",
                     received == 0 ? 0.0 : static_cast<double>(dups) / static_cast<double>(received));
    report.per_layer("replication.log_updates", static_cast<double>(final_summary.total()));
    summary_layer_metrics(report, summaries);
    report.per_layer("net.frames_per_write", static_cast<double>(net.frames_sent) / n);
    report.per_layer("net.bytes_per_write", static_cast<double>(net.bytes_sent) / n);
    report.per_layer("net.frames_dropped", static_cast<double>(net.frames_dropped));
    report.per_layer("net.frames_shed", static_cast<double>(frames_shed));
    report.per_layer("net.codec_errors", static_cast<double>(net.codec_errors));
    report.per_layer("net.disconnects", static_cast<double>(net.disconnects));
    report.per_layer("net.write_call_us", static_cast<double>(tracer->total_ns(SpanKind::server_write)) /
                                              static_cast<double>(std::max<std::uint64_t>(tracer->calls(SpanKind::server_write), 1)) / 1e3);
    report.per_layer("durability.wal_records_replayed", static_cast<double>(recoveries.front().wal_records));
    report.per_layer("durability.wal_bytes", static_cast<double>(recoveries.front().wal_bytes));
    const std::vector<Update> updates = time_durability(report, *tracer, copy_dir, base + "append.log");
    time_codec(report, *tracer, updates, final_summary);
    double non_up = 0.0;
    for (const double v : health_polls) non_up += v;
    report.per_layer("health.non_up_verdicts", non_up);
    report.per_layer("health.repromote_ms", repromote_ms);
    report.per_layer("loadgen.late_ms_p99", percentile(fixed_rung.late, 99.0));
    report.per_layer("loadgen.late_ms_max", fixed_rung.late.empty() ? 0.0
                                                                    : *std::max_element(fixed_rung.late.begin(),
                                                                                        fixed_rung.late.end()));
    report.note("health polls", std::to_string(health_polls.size()));
    for (std::size_t k = 0; k < static_cast<std::size_t>(SpanKind::kCount); ++k) {
      const auto kind = static_cast<SpanKind>(k);
      if (tracer->calls(kind) == 0) continue;
      report.note(std::string("span ") + span_layer(kind) + "." + span_name(kind),
                  "calls=" + std::to_string(tracer->calls(kind)) +
                      " total_ms=" + fixed(static_cast<double>(tracer->total_ns(kind)) / 1e6, 3));
    }
    const std::string tsv = options.out_dir + "/trace-" + options.workload + "-seed" +
                            std::to_string(options.seed) + ".tsv";
    tracer->write_tsv(tsv);
    report.note("trace file", tsv);
  }
}

}  // namespace perfbench
