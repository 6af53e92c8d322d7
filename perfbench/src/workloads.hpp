// The benchmark's workloads. Each runs one workload for Options::seconds,
// prints its metrics, counts and checks into the Report, and returns.
#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <vector>

#include "measure.hpp"
#include "replication/summary_vector.hpp"

namespace perfbench {

/// sim-fig5 and sim-ba4096.
void run_sim_workload(const Options& options, Report& report);

/// Reports the replication layer's summary shape (origins, out-of-order
/// extras) and times merge/missing_from on summaries a workload captured.
void summary_layer_metrics(Report& report, const std::vector<fastcons::SummaryVector>& caps);

/// live-line3.
void run_live_workload(const Options& options, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_HPP
