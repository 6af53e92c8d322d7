// The benchmark program: perfbench --workload <name> --seed <n> --seconds <s>
// --trace <0|1>. Prints metrics, counts, checks and provenance as lines,
// then one JSON object as the last line. Exit code 0 when every output
// check passed, 1 when one failed, 2 on bad arguments or an error.
#include <algorithm>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

void usage() {
  std::cerr << "usage: perfbench --workload sim-fig5|sim-ba4096|live-line3 --seed N "
               "--seconds S --trace 0|1 [--corrupt CHECK] [--out-dir DIR] [--git-sha SHA] "
               "[--source-sha256 SHA]\n";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      usage();
      return 2;
    }
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") throw std::invalid_argument("trace");
        options.trace = value == "1";
      } else if (arg == "--corrupt") {
        options.corrupt = value;
      } else if (arg == "--out-dir") {
        options.out_dir = value;
      } else if (arg == "--git-sha") {
        options.git_sha = value;
      } else if (arg == "--source-sha256") {
        options.source_sha256 = value;
      } else {
        usage();
        return 2;
      }
    } catch (const std::exception&) {
      std::cerr << "bad value for " << arg << ": " << value << "\n";
      return 2;
    }
  }
  if (options.seconds <= 0.0) {
    usage();
    return 2;
  }
  static const char* const kChecks[] = {
      "sim-converged",  "sim-fast-beats-weak",  "trace-matches-untraced",  "live-readback",
      "live-kv-digest", "live-no-codec-errors", "live-recovered-from-disk"};
  if (!options.corrupt.empty() &&
      std::find(std::begin(kChecks), std::end(kChecks), options.corrupt) == std::end(kChecks)) {
    std::cerr << "unknown check for --corrupt: " << options.corrupt << "\n";
    return 2;
  }
  try {
    perfbench::Report report(options);
    if (options.workload == "sim-fig5" || options.workload == "sim-ba4096") {
      perfbench::run_sim_workload(options, report);
    } else if (options.workload == "live-line3") {
      perfbench::run_live_workload(options, report);
    } else {
      usage();
      return 2;
    }
    return report.finish();
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
