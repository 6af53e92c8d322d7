#include "harness/report.hpp"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/error.hpp"
#include "stats/table.hpp"

namespace fastcons::harness {
namespace {

/// Quantile grid used for the distribution summaries. Dense enough to
/// redraw the paper's CDF figures, small enough to diff by eye.
constexpr double kQuantiles[] = {0.05, 0.10, 0.25, 0.50, 0.75,
                                 0.90, 0.95, 0.99, 1.00};

JsonValue params_to_json(const ParamMap& params) {
  JsonValue obj = JsonValue::object();
  for (const auto& [key, value] : params) obj.add(key, value);
  return obj;
}

JsonValue tags_to_json(const TagMap& tags) {
  JsonValue obj = JsonValue::object();
  for (const auto& [key, value] : tags) obj.add(key, value);
  return obj;
}

JsonValue stats_to_json(const OnlineStats& stats) {
  JsonValue obj = JsonValue::object();
  obj.add("count", stats.count());
  obj.add("mean", stats.mean());
  obj.add("stddev", std::sqrt(stats.variance()));
  obj.add("min", stats.min());
  obj.add("max", stats.max());
  return obj;
}

JsonValue cdf_to_json(const EmpiricalCdf& cdf) {
  JsonValue obj = JsonValue::object();
  obj.add("count", static_cast<std::uint64_t>(cdf.count()));
  if (!cdf.empty()) {
    obj.add("mean", cdf.mean());
    obj.add("min", cdf.min());
    obj.add("max", cdf.max());
    JsonValue quantiles = JsonValue::object();
    for (const double q : kQuantiles) {
      char key[8];
      std::snprintf(key, sizeof(key), "p%02d", static_cast<int>(q * 100.0));
      quantiles.add(key, cdf.quantile(q));
    }
    obj.add("quantiles", std::move(quantiles));
  }
  return obj;
}

JsonValue point_to_json(const PointResult& point) {
  JsonValue obj = JsonValue::object();
  obj.add("label", point.point.label);
  obj.add("index", static_cast<std::uint64_t>(point.index));
  obj.add("trials", static_cast<std::uint64_t>(point.trials));
  if (!point.point.params.empty()) {
    obj.add("params", params_to_json(point.point.params));
  }
  if (!point.point.tags.empty()) {
    obj.add("tags", tags_to_json(point.point.tags));
  }
  if (!point.point.reference.empty()) {
    obj.add("reference", params_to_json(point.point.reference));
  }
  JsonValue metrics = JsonValue::object();
  for (const auto& [name, stats] : point.values) {
    metrics.add(name, stats_to_json(stats));
  }
  obj.add("metrics", std::move(metrics));
  JsonValue distributions = JsonValue::object();
  for (const auto& [name, cdf] : point.samples) {
    distributions.add(name, cdf_to_json(cdf));
  }
  obj.add("distributions", std::move(distributions));
  JsonValue counters = JsonValue::object();
  for (const auto& [name, value] : point.counters) counters.add(name, value);
  obj.add("counters", std::move(counters));
  return obj;
}

}  // namespace

JsonValue scenario_to_json(const ScenarioResult& result) {
  JsonValue obj = JsonValue::object();
  obj.add("schema_version", kResultsSchemaVersion);
  obj.add("scenario", result.name);
  obj.add("title", result.title);
  obj.add("paper_ref", result.paper_ref);
  obj.add("description", result.description);
  obj.add("mode", result.smoke ? "smoke" : "full");
  obj.add("base_seed", result.base_seed);
  JsonValue points = JsonValue::array();
  for (const PointResult& point : result.points) {
    points.push_back(point_to_json(point));
  }
  obj.add("points", std::move(points));
  return obj;
}

JsonValue rollup_to_json(const std::vector<ScenarioResult>& results) {
  JsonValue obj = JsonValue::object();
  obj.add("schema_version", kResultsSchemaVersion);
  obj.add("mode", !results.empty() && results.front().smoke ? "smoke" : "full");
  JsonValue scenarios = JsonValue::array();
  for (const ScenarioResult& result : results) {
    scenarios.push_back(scenario_to_json(result));
  }
  obj.add("scenarios", std::move(scenarios));
  return obj;
}

namespace {

void ensure_dir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    throw Error("cannot create results directory '" + dir + "': " +
                ec.message());
  }
}

void write_file(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << body;
  if (!out) throw Error("cannot write results file '" + path + "'");
}

}  // namespace

std::string write_scenario_file(const ScenarioResult& result,
                                const std::string& dir) {
  ensure_dir(dir);
  const JsonValue doc = scenario_to_json(result);
  write_file(dir + "/" + result.name + ".json", doc.dump_pretty());
  return digest_hex(doc.dump());
}

std::string write_results(const std::vector<ScenarioResult>& results,
                          const std::string& dir) {
  ensure_dir(dir);
  std::string digests;
  for (const ScenarioResult& result : results) {
    digests += result.name;
    digests += ' ';
    digests += write_scenario_file(result, dir);
    digests += '\n';
  }
  const JsonValue rollup = rollup_to_json(results);
  write_file(dir + "/BENCH_RESULTS.json", rollup.dump_pretty());
  const std::string rollup_digest = digest_hex(rollup.dump());
  digests += "rollup ";
  digests += rollup_digest;
  digests += '\n';
  write_file(dir + "/DIGESTS.txt", digests);
  return rollup_digest;
}

void print_scenario(const ScenarioResult& result, std::ostream& out) {
  out << "== " << result.name << " — " << result.title << " ("
      << result.paper_ref << ") ==\n";
  out << (result.smoke ? "mode: smoke" : "mode: full")
      << ", base seed " << result.base_seed << "\n";

  // One row per (point, metric), uniformly across every scenario.
  Table table({"point", "trials", "metric", "mean", "stddev", "p50", "p99",
               "max"});
  for (const PointResult& point : result.points) {
    const std::string trials = Table::num(static_cast<std::uint64_t>(point.trials));
    for (const auto& [name, stats] : point.values) {
      table.add_row({point.point.label, trials, name, Table::num(stats.mean()),
                     Table::num(std::sqrt(stats.variance())), "-", "-",
                     Table::num(stats.max())});
    }
    for (const auto& [name, cdf] : point.samples) {
      if (cdf.empty()) continue;
      table.add_row({point.point.label, trials, name, Table::num(cdf.mean()),
                     "-", Table::num(cdf.quantile(0.5)),
                     Table::num(cdf.quantile(0.99)), Table::num(cdf.max())});
    }
  }
  table.print(out);

  bool printed_header = false;
  for (const PointResult& point : result.points) {
    for (const auto& [name, value] : point.counters) {
      if (name != "trials_converged") continue;
      if (!printed_header) {
        out << "converged: ";
        printed_header = true;
      } else {
        out << ", ";
      }
      out << point.point.label << " " << value << "/" << point.trials;
    }
  }
  if (printed_header) out << "\n";
}

}  // namespace fastcons::harness
