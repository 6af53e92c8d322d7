// Measurement plumbing shared by the benchmark's workloads: options,
// clocks, sample statistics, the span tracer and the result printer.
#ifndef PERFBENCH_MEASURE_HPP
#define PERFBENCH_MEASURE_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Name of one output check whose expectation is deliberately inverted
  /// (the self-check proves every check can fail); empty in real runs.
  std::string corrupt;
  /// Directory (inside the checkout) for live-cluster data, results and
  /// trace files.
  std::string out_dir = ".bench_build/run";
  std::string git_sha = "unknown";
  std::string source_sha256 = "unknown";

  /// True when `check`'s expected value is to be corrupted in this run.
  bool corrupts(const std::string& check) const { return corrupt == check; }
};

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// CPU seconds consumed by the calling thread / by the whole process.
double thread_cpu_seconds();
double process_cpu_seconds();

/// Pins the calling thread to the highest-numbered CPU it may run on and
/// returns that CPU (-1 if it could not). Without this, a single-threaded
/// run's speed depends on where the scheduler first placed it: on the
/// shared 4-core host the benchmark was defined on, CPU 0 ran the sim
/// workloads 25-35% slower than the others.
int pin_to_last_cpu();

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// `v` with `digits` decimals, for human-readable lines.
std::string fixed(double v, int digits = 3);

/// Nearest-rank percentile (0 < p <= 100) of unsorted samples; 0 if empty.
double percentile(std::vector<double> samples, double p);
double median(std::vector<double> samples);

/// A tail percentile with the number of samples strictly above its rank.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t beyond = 0;
  std::size_t samples = 0;
};

/// The tail at a fixed percentile, with the number of samples beyond it.
Tail tail_at(const std::vector<double>& samples, double p);

/// Fixed-memory histogram with log-spaced buckets (0.1% wide) over
/// [1e-3, 1e7]: any number of samples in constant memory, so a faster
/// program that takes more samples does not show a larger peak RSS.
class LogHistogram {
 public:
  void add(double v);
  void merge(const LogHistogram& other);
  std::uint64_t count() const { return count_; }
  /// `v` with `digits` decimals, for human-readable lines.
std::string fixed(double v, int digits = 3);

/// Nearest-rank percentile, as the bucket's midpoint; 0 if empty.
  double percentile(double p) const;

 private:
  static constexpr double kMin = 1e-3;
  static constexpr double kGrowth = 1.0 + 1.0 / 1024.0;
  static constexpr std::size_t kBuckets = 23590;  // kMin * kGrowth^kBuckets > 1e7
  std::vector<std::uint64_t> buckets_ = std::vector<std::uint64_t>(kBuckets, 0);
  std::uint64_t count_ = 0;
};

/// Collects one run's output: human-readable lines as they come, the
/// metrics for the final JSON line, and the output checks.
class Report {
 public:
  explicit Report(const Options& options) : options_(options) {}

  /// An end-to-end metric (printed always; in the JSON with --trace 0).
  void end_to_end(const std::string& name, double value,
                  const std::string& unit);
  /// A per-layer metric (in the JSON with --trace 1). The name must be in
  /// layer_metrics(); the unit comes from there. Metrics a workload does not
  /// set are reported as 0: the layer did no work there, or none the
  /// benchmark can observe from outside the program.
  void per_layer(const std::string& name, double value);
  /// A metric printed for people only: a workload-specific name that the
  /// JSON carries under a cross-workload name, or a diagnostic.
  void info(const std::string& name, double value, const std::string& unit);
  /// A deterministic count, printed next to the timings.
  void count(const std::string& name, double value);
  /// Free-form key=value line (configuration, provenance).
  void note(const std::string& key, const std::string& value);

  /// Records an output check; `ok` is true when the program's output
  /// matched the expectation (which --corrupt <name> has falsified).
  void check(const std::string& name, bool ok, const std::string& detail);

  void add_attempts(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  bool correct() const { return checks_failed_ == 0; }
  const Options& options() const { return options_; }

  /// Prints provenance lines.
  void provenance(int worker_threads);

  /// Writes the results file and prints the final JSON line. Returns the
  /// process exit code.
  int finish();

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  const Options& options_;
  std::vector<Metric> end_to_end_;
  std::vector<std::pair<std::string, double>> per_layer_;
  std::vector<std::pair<std::string, std::string>> lines_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  int checks_failed_ = 0;
};

/// Every per-layer metric, with its unit, in report order.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetric>& layer_metrics();

/// Span kinds recorded by the traced runs. Each belongs to a src/ module
/// ("layer"); "bench" is the benchmark's own code.
enum class SpanKind : std::uint8_t {
  trial,              // bench: one traced trial (root)
  dispatch,           // bench: the event body that replays SimNetwork's glue
  sim_step,           // sim: Simulator::step
  sim_schedule,       // sim: Simulator::schedule_in / schedule_at
  acquire,            // sim_runtime: SimNetworkPool::acquire
  net_query,          // sim_runtime: nodes_holding / first_delivery
  topology_generate,  // topology: generator call
  find_edge,          // topology: Graph::find_edge
  demand_factory,     // demand: per-trial demand model
  demand_at,          // demand: DemandModel::demand_at
  core_handle,        // core: ReplicaEngine::handle
  core_timer,         // core: ReplicaEngine::on_session_timer
  core_write,         // core: ReplicaEngine::local_write
  harness_record,     // harness: record_propagation
  server_write,       // net: ReplicaServer::write
  server_read,        // net: ReplicaServer::read
  server_stats,       // net: ReplicaServer::net_stats / summary
  cluster_restart,    // net: LocalCluster::restart (replays the WAL)
  frame_encode,       // net: encode_frame
  frame_decode,       // net: decode_body
  store_recover,      // durability: DurableStore::recover
  wal_append,         // durability: encode_wal_record + WalWriter::append
  kCount,
};

const char* span_name(SpanKind kind);
const char* span_layer(SpanKind kind);

/// In-memory span recorder. Spans nest strictly (RAII); self time is a
/// span's duration minus the time covered by its direct children. Every
/// span is aggregated; the first `keep` spans are also kept verbatim and
/// written out at the end.
class Tracer {
 public:
  explicit Tracer(std::size_t keep = 1u << 16);

  void begin(SpanKind kind);
  void end();

  /// Trial identifier stamped on every recorded span.
  void set_trial(std::uint32_t trial) { trial_ = trial; }

  std::uint64_t calls(SpanKind k) const { return agg_[idx(k)].calls; }
  std::uint64_t total_ns(SpanKind k) const { return agg_[idx(k)].total_ns; }
  std::uint64_t self_ns(SpanKind k) const { return agg_[idx(k)].self_ns; }
  std::size_t dropped() const { return dropped_; }

  /// Writes kept spans as TSV: trial, span id, parent id, name, layer,
  /// start ns (relative), end ns.
  void write_tsv(const std::string& path) const;

 private:
  static std::size_t idx(SpanKind k) { return static_cast<std::size_t>(k); }
  struct Open {
    SpanKind kind;
    std::int64_t start;
    std::int64_t child_ns;
    std::uint32_t id;
  };
  struct Record {
    std::uint32_t trial;
    std::uint32_t id;
    std::uint32_t parent;
    SpanKind kind;
    std::int64_t start;
    std::int64_t end;
  };
  struct Agg {
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
  };
  std::vector<Open> stack_;
  std::vector<Record> kept_;
  std::size_t keep_;
  std::size_t dropped_ = 0;
  std::uint32_t next_id_ = 1;
  std::uint32_t trial_ = 0;
  std::int64_t origin_;
  Agg agg_[static_cast<std::size_t>(SpanKind::kCount)];
};

/// RAII span on a tracer that may be absent (untraced runs pass nullptr).
class MaybeSpan {
 public:
  MaybeSpan(Tracer* tracer, SpanKind kind) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->begin(kind);
  }
  ~MaybeSpan() {
    if (tracer_ != nullptr) tracer_->end();
  }
  MaybeSpan(const MaybeSpan&) = delete;
  MaybeSpan& operator=(const MaybeSpan&) = delete;

 private:
  Tracer* tracer_;
};

/// RAII span.
class Span {
 public:
  Span(Tracer& tracer, SpanKind kind) : tracer_(tracer) { tracer_.begin(kind); }
  ~Span() { tracer_.end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_HPP
