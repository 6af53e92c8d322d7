#include "measure.hpp"

#include <sched.h>
#include <sys/stat.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <thread>

namespace perfbench {
namespace {

double timespec_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Shortest round-trip decimal form; JSON has no NaN or infinity.
std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc{} ? std::string(buf, end) : std::string("0");
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

}  // namespace

double thread_cpu_seconds() { return timespec_seconds(CLOCK_THREAD_CPUTIME_ID); }
double process_cpu_seconds() { return timespec_seconds(CLOCK_PROCESS_CPUTIME_ID); }

int pin_to_last_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives execve, so it
  // would report the launching process's peak when that one was larger.
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

std::string fixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const std::size_t n = samples.size();
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) { return percentile(std::move(samples), 50.0); }

Tail tail_at(const std::vector<double>& samples, double p) {
  Tail t;
  t.percentile = p;
  t.samples = samples.size();
  if (samples.empty()) return t;
  const auto rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(samples.size()))), 1,
      samples.size());
  t.value = percentile(samples, p);
  t.beyond = samples.size() - rank;
  return t;
}


void LogHistogram::add(double v) {
  const double x = std::max(v, kMin);
  const auto i = static_cast<std::size_t>(std::log(x / kMin) / std::log(kGrowth));
  ++buckets_[std::min(i, kBuckets - 1)];
  ++count_;
}

void LogHistogram::merge(const LogHistogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double LogHistogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  const auto rank = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::ceil(p / 100.0 * static_cast<double>(count_))), 1, count_);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank) return kMin * std::pow(kGrowth, static_cast<double>(i) + 0.5);
  }
  return kMin * std::pow(kGrowth, static_cast<double>(kBuckets));
}

void Report::end_to_end(const std::string& name, double value, const std::string& unit) {
  end_to_end_.push_back(Metric{name, value, unit});
  std::cout << "metric " << name << " " << number(value) << " " << unit << "\n";
}

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> metrics{
      {"sim.events", "count"},
      {"sim.step_self_ns", "ns"},
      {"sim.schedule_ns", "ns"},
      {"sim.pending_peak", "count"},
      {"sim_runtime.acquire_us", "us"},
      {"sim_runtime.acquire_share", "frac"},
      {"topology.generate_us", "us"},
      {"topology.latency_lookup_ns", "ns"},
      {"core.handle_calls", "count"},
      {"core.handle_self_ns", "ns"},
      {"core.timer_self_ns", "ns"},
      {"core.msgs_session", "count"},
      {"core.msgs_fast", "count"},
      {"core.msgs_advert", "count"},
      {"core.dup_ratio", "frac"},
      {"replication.log_updates", "count"},
      {"replication.summary_origins", "count"},
      {"replication.summary_extras", "count"},
      {"replication.merge_ns", "ns"},
      {"replication.missing_from_ns", "ns"},
      {"net.frames_per_write", "count"},
      {"net.bytes_per_write", "bytes"},
      {"net.frames_dropped", "count"},
      {"net.frames_shed", "count"},
      {"net.codec_errors", "count"},
      {"net.disconnects", "count"},
      {"net.write_call_us", "us"},
      {"net.encode_ns", "ns"},
      {"net.decode_ns", "ns"},
      {"durability.wal_records_replayed", "count"},
      {"durability.wal_bytes", "bytes"},
      {"durability.replay_ms", "ms"},
      {"durability.append_us", "us"},
      {"health.non_up_verdicts", "count"},
      {"health.repromote_ms", "ms"},
      {"loadgen.late_ms_p99", "ms"},
      {"loadgen.late_ms_max", "ms"},
  };
  return metrics;
}

void Report::per_layer(const std::string& name, double value) {
  const auto& table = layer_metrics();
  const auto it = std::find_if(table.begin(), table.end(),
                               [&](const LayerMetric& m) { return name == m.name; });
  if (it == table.end()) throw std::logic_error("unknown per-layer metric " + name);
  per_layer_.emplace_back(name, value);
}

void Report::info(const std::string& name, double value, const std::string& unit) {
  lines_.emplace_back("info " + name, number(value) + " " + unit);
  std::cout << "metric " << name << " " << number(value) << " " << unit << "\n";
}

void Report::count(const std::string& name, double value) {
  lines_.emplace_back("count " + name, number(value));
  std::cout << "count " << name << " " << number(value) << "\n";
}

void Report::note(const std::string& key, const std::string& value) {
  lines_.emplace_back(key, value);
  std::cout << key << " " << value << "\n";
}

void Report::check(const std::string& name, bool ok, const std::string& detail) {
  if (!ok) ++checks_failed_;
  note("check " + name, std::string(ok ? "ok" : "FAILED") +
                            (options_.corrupts(name) ? " (expectation corrupted)" : "") + " " +
                            detail);
}

void Report::provenance(int worker_threads) {
  note("provenance build_type", PERFBENCH_BUILD_TYPE);
  note("provenance compiler", PERFBENCH_COMPILER);
  note("provenance git_sha", options_.git_sha);
  note("provenance source_sha256", options_.source_sha256);
  note("provenance nproc", std::to_string(std::thread::hardware_concurrency()));
  note("provenance cpu_model", cpu_model());
  note("provenance worker_threads", std::to_string(worker_threads));
  note("provenance workload", options_.workload);
  note("provenance seed", std::to_string(options_.seed));
  note("provenance seconds", number(options_.seconds));
  note("provenance trace", options_.trace ? "1" : "0");
}

int Report::finish() {
  std::vector<Metric> metrics = end_to_end_;
  if (options_.trace) {
    metrics.clear();
    for (const LayerMetric& m : layer_metrics()) {
      double value = 0.0;
      for (const auto& [name, v] : per_layer_) {
        if (name == m.name) value = v;
      }
      metrics.push_back(Metric{m.name, value, m.unit});
      std::cout << "layer " << m.name << " " << number(value) << " " << m.unit << "\n";
    }
  }
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) check("finite " + m.name, false, "value is not finite");
  }
  const double failed_frac =
      attempted_ == 0 ? 0.0 : static_cast<double>(failed_) / static_cast<double>(attempted_);
  std::cout << "metric failed_frac " << number(failed_frac) << " frac (" << failed_ << " of "
            << attempted_ << " attempts)\n";

  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(attempted_, 1));
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += json_string(metrics[i].name) + ": {\"value\": " + number(metrics[i].value) +
            ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  json += "}}";

  // The results file: the same JSON plus every printed line, provenance
  // included, so a number can always be traced to how it was produced.
  ::mkdir(options_.out_dir.c_str(), 0755);
  const std::string path = options_.out_dir + "/result-" + options_.workload + "-seed" +
                           std::to_string(options_.seed) + "-trace" +
                           (options_.trace ? "1" : "0") + ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::string body = "{\"result\": " + json + ", \"lines\": {";
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      if (i > 0) body += ", ";
      body += json_string(lines_[i].first) + ": " + json_string(lines_[i].second);
    }
    body += "}}\n";
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
  }
  std::cout << json << std::endl;
  return correct() ? 0 : 1;
}

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::trial: return "trial";
    case SpanKind::dispatch: return "dispatch";
    case SpanKind::sim_step: return "step";
    case SpanKind::sim_schedule: return "schedule";
    case SpanKind::acquire: return "acquire";
    case SpanKind::net_query: return "query";
    case SpanKind::topology_generate: return "generate";
    case SpanKind::find_edge: return "find_edge";
    case SpanKind::demand_factory: return "factory";
    case SpanKind::demand_at: return "demand_at";
    case SpanKind::core_handle: return "handle";
    case SpanKind::core_timer: return "session_timer";
    case SpanKind::core_write: return "local_write";
    case SpanKind::harness_record: return "record_propagation";
    case SpanKind::server_write: return "server_write";
    case SpanKind::server_read: return "server_read";
    case SpanKind::server_stats: return "server_stats";
    case SpanKind::cluster_restart: return "cluster_restart";
    case SpanKind::frame_encode: return "encode_frame";
    case SpanKind::frame_decode: return "decode_body";
    case SpanKind::store_recover: return "store_recover";
    case SpanKind::wal_append: return "wal_append";
    case SpanKind::kCount: break;
  }
  return "?";
}

const char* span_layer(SpanKind kind) {
  switch (kind) {
    case SpanKind::trial:
    case SpanKind::dispatch: return "bench";
    case SpanKind::sim_step:
    case SpanKind::sim_schedule: return "sim";
    case SpanKind::acquire:
    case SpanKind::net_query: return "sim_runtime";
    case SpanKind::topology_generate:
    case SpanKind::find_edge: return "topology";
    case SpanKind::demand_factory:
    case SpanKind::demand_at: return "demand";
    case SpanKind::core_handle:
    case SpanKind::core_timer:
    case SpanKind::core_write: return "core";
    case SpanKind::harness_record: return "harness";
    case SpanKind::server_write:
    case SpanKind::server_read:
    case SpanKind::server_stats:
    case SpanKind::cluster_restart:
    case SpanKind::frame_encode:
    case SpanKind::frame_decode: return "net";
    case SpanKind::store_recover:
    case SpanKind::wal_append: return "durability";
    case SpanKind::kCount: break;
  }
  return "?";
}

Tracer::Tracer(std::size_t keep) : keep_(keep), origin_(now_ns()) {
  stack_.reserve(64);
  kept_.reserve(keep);
}

void Tracer::begin(SpanKind kind) {
  stack_.push_back(Open{kind, now_ns(), 0, next_id_++});
}

void Tracer::end() {
  const std::int64_t t = now_ns();
  const Open open = stack_.back();
  stack_.pop_back();
  const std::int64_t duration = t - open.start;
  Agg& agg = agg_[idx(open.kind)];
  ++agg.calls;
  agg.total_ns += static_cast<std::uint64_t>(duration);
  agg.self_ns += static_cast<std::uint64_t>(duration - open.child_ns);
  std::uint32_t parent = 0;
  if (!stack_.empty()) {
    stack_.back().child_ns += duration;
    parent = stack_.back().id;
  }
  if (kept_.size() < keep_) {
    kept_.push_back(Record{trial_, open.id, parent, open.kind, open.start - origin_, t - origin_});
  } else {
    ++dropped_;
  }
}

void Tracer::write_tsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "trial\tspan\tparent\tlayer\tname\tstart_ns\tend_ns\n");
  for (const Record& r : kept_) {
    std::fprintf(f, "%u\t%u\t%u\t%s\t%s\t%lld\t%lld\n", r.trial, r.id, r.parent,
                 span_layer(r.kind), span_name(r.kind), static_cast<long long>(r.start),
                 static_cast<long long>(r.end));
  }
  std::fclose(f);
}

}  // namespace perfbench
