// The four coordination workloads and one measured run of each. README.md
// beside this directory gives each workload's rationale and the metric map.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "edc/sim/time.h"

namespace perfbench {

const std::vector<std::string>& WorkloadNames();

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  // Observability on: per-layer counters, stage breakdowns and replays.
  bool traced = false;
  // 0 = the workload's own warmup / window.
  edc::Duration warmup = 0;
  edc::Duration window = 0;
  // Test double for the correctness checks: acknowledge the first counter
  // increment of the window without sending it.
  bool skip_one_increment = false;
};

// Simulated-clock results. A seed fixes every one of them, so a traced and
// an untraced run of one seed must agree exactly.
struct SimResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t samples = 0;
  double ops_per_s = 0;
  double p50_ms = 0;
  double p999_ms = 0;
  double kb_per_op = 0;
  double attempts_per_op = 0;
  double slo_ok_ratio = 0;
  double unavail_ms = 0;
  double read_p999_ms = 0;
  double write_p999_ms = 0;

  bool operator==(const SimResult&) const = default;
};

// A host-time span the benchmark records around one phase of a run.
struct Phase {
  std::string name;
  double wall_start_s = 0;  // since the run began
  double wall_s = 0;
  double cpu_s = 0;
};

struct RunResult {
  // First failed correctness check; empty when the run is correct.
  std::string violation;
  SimResult sim;
  std::vector<Phase> phases;
  // Process CPU seconds from the start of the run until the first measured
  // op is due, and across the measured window.
  double setup_cpu_s = 0;
  double window_cpu_s = 0;
  int64_t window_events = 0;
  // Per-layer values (traced runs fill the counter-based ones and run the
  // replays).
  std::map<std::string, double> layers;
};

RunResult RunWorkload(const RunConfig& config);

// Process CPU time and monotonic wall time, in seconds.
double CpuSeconds();
double WallSeconds();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
