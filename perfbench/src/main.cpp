// perfbench: runs one coordination workload and prints its metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]
//
// --trace 0 repeats the untraced run (same seed, so identical simulated
// results, which is checked) a fixed number of times, S seconds' worth at the
// workload's nominal cost per repeat, and reports the end-to-end metrics with
// the fastest repeat's set-up time.
// --trace 1 runs the workload untraced and then traced, fails unless both
// give identical simulated results, and reports the per-layer metrics, host
// time per op among them.
// The last line of stdout is one JSON object; a failed correctness check
// exits 1 without it.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kMinReps = 3;
constexpr int kMaxReps = 25;
// Repeats still running after this many wall seconds fail the run: the host
// is too slow for the requested repeats.
constexpr double kWallCapSeconds = 150;

// Wall seconds one untraced repeat takes on a 4-core x86-64 VM. The repeat
// count depends only on these and --seconds, never on how fast the host is
// at the moment, so the fastest-repeat figure is always a minimum over the
// same number of repeats.
double NominalRepeatSeconds(const std::string& workload) {
  static const std::map<std::string, double> kSeconds{
      {"ezk_counter", 2.4}, {"eds_queue", 3.6}, {"ezk_mixed", 2.8}, {"ezk_leader_crash", 1.5}};
  return kSeconds.at(workload);
}

int Repeats(const std::string& workload, double seconds) {
  long n = std::lround(seconds / NominalRepeatSeconds(workload));
  return static_cast<int>(std::clamp<long>(n, kMinReps, kMaxReps));
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void PrintResult(const SimResult& sim, const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": true, \"attempted\": " + std::to_string(sim.attempted) +
                     ", \"failed\": " + std::to_string(sim.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

void PrintSim(const char* label, const SimResult& s) {
  std::printf("%s: ops/s %.3f  p50 %.6f ms  p99.9 %.6f ms (%lld samples)  KB/op %.6f  "
              "attempts/op %.6f  slo_ok %.6f  unavail %.6f ms  read_p99.9 %.6f ms  "
              "write_p99.9 %.6f ms  attempted %lld  failed %lld\n",
              label, s.ops_per_s, s.p50_ms, s.p999_ms, static_cast<long long>(s.samples),
              s.kb_per_op, s.attempts_per_op, s.slo_ok_ratio, s.unavail_ms, s.read_p999_ms,
              s.write_p999_ms, static_cast<long long>(s.attempted),
              static_cast<long long>(s.failed));
}

bool Correct(const RunResult& r) {
  if (r.violation.empty()) {
    return true;
  }
  std::fprintf(stderr, "perfbench: correctness check failed: %s\n", r.violation.c_str());
  return false;
}

void WriteSpans(const std::string& path, const RunConfig& config,
                const std::vector<std::pair<std::string, const RunResult*>>& runs) {
  if (path.empty()) {
    return;
  }
  std::ofstream out(path);
  out << "{\"workload\": \"" << config.workload << "\", \"seed\": " << config.seed
      << ", \"runs\": [";
  for (size_t i = 0; i < runs.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "{\"run\": \"" << runs[i].first << "\", \"spans\": [";
    const auto& phases = runs[i].second->phases;
    for (size_t p = 0; p < phases.size(); ++p) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\": \"%s\", \"start_s\": %.9f, \"wall_s\": %.9f, "
                    "\"cpu_s\": %.9f}",
                    p == 0 ? "" : ", ", phases[p].name.c_str(), phases[p].wall_start_s,
                    phases[p].wall_s, phases[p].cpu_s);
      out << buf;
    }
    out << "]}";
  }
  out << "]}\n";
  if (!out) {
    std::fprintf(stderr, "perfbench: warning: cannot write %s\n", path.c_str());
  }
}

double PhaseCpu(const RunResult& r, const std::string& name) {
  for (const Phase& p : r.phases) {
    if (p.name == name) {
      return p.cpu_s;
    }
  }
  return 0;
}

int EndToEnd(const RunConfig& config, double seconds, const std::string& spans) {
  const int repeats = Repeats(config.workload, seconds);
  std::vector<RunResult> reps;
  std::vector<double> setup;
  std::vector<double> us_per_op;
  const double begin = WallSeconds();
  while (static_cast<int>(reps.size()) < repeats) {
    if (WallSeconds() - begin > kWallCapSeconds) {
      std::fprintf(stderr, "perfbench: %zu of %d repeats took over %.0f s; host too slow\n",
                   reps.size(), repeats, kWallCapSeconds);
      return 1;
    }
    RunResult r = RunWorkload(config);
    if (!Correct(r)) {
      return 1;
    }
    if (!reps.empty() && !(r.sim == reps[0].sim)) {
      std::fprintf(stderr, "perfbench: repeated run of one seed gave other simulated results\n");
      return 1;
    }
    setup.push_back(r.setup_cpu_s);
    us_per_op.push_back(r.window_cpu_s * 1e6 / static_cast<double>(r.sim.attempted));
    std::printf("repeat %zu: setup_s %.6f  host_us_per_op %.6f\n", reps.size(), setup.back(),
                us_per_op.back());
    reps.push_back(std::move(r));
  }
  // A shared machine only ever adds time to a repeat, so the fastest repeat
  // is the steadiest estimate of the simulator's own set-up cost. Every run
  // takes it over the same number of repeats. Host time per op is only
  // printed here: it drifts with the host by more than any end-to-end bound
  // allows, so it is a per-layer value (README.md, "Two clocks").
  const double best_setup = *std::min_element(setup.begin(), setup.end());
  const double best_us_per_op = *std::min_element(us_per_op.begin(), us_per_op.end());
  const SimResult& sim = reps[0].sim;
  PrintSim("simulated", sim);
  std::printf("host: %zu repeats, setup_s min %.6f median %.6f, host_us_per_op min %.6f "
              "median %.6f\n",
              reps.size(), best_setup, Median(setup), best_us_per_op, Median(us_per_op));
  WriteSpans(spans, config, {{"untraced", &reps[0]}});
  PrintResult(sim, {
                       {"setup_s", best_setup, "s"},
                       {"ops_per_s", sim.ops_per_s, "ops/s"},
                       {"p50_ms", sim.p50_ms, "ms"},
                       {"p999_ms", sim.p999_ms, "ms"},
                       {"kb_per_op", sim.kb_per_op, "KB"},
                       {"attempts_per_op", sim.attempts_per_op, "attempts/op"},
                       {"slo_ok_ratio", sim.slo_ok_ratio, "ratio"},
                       {"peak_rss_mb", PeakRssMb(), "MB"},
                   });
  return 0;
}

// Unit of each per-layer value, in the order they are printed.
const std::vector<std::pair<std::string, const char*>>& LayerUnits() {
  static const std::vector<std::pair<std::string, const char*>> kUnits{
      {"host_us_per_op", "us"},
      {"sim.events_per_op", "events/op"},
      {"sim.host_ns_per_event", "ns"},
      {"sim.host_ns_schedule_run", "ns"},
      {"sim.host_ns_cancel", "ns"},
      {"sim.pending_end", "count"},
      {"net.packets_per_op", "packets/op"},
      {"net.bytes_per_op", "B/op"},
      {"net.drops", "count"},
      {"net.host_ns_per_send", "ns"},
      {"cpu.busy_share_max", "ratio"},
      {"cpu.queue_wait_p99_ms", "ms"},
      {"stage.queue_ms", "ms"},
      {"stage.cpu_ms", "ms"},
      {"stage.network_ms", "ms"},
      {"stage.fsync_ms", "ms"},
      {"stage.other_ms", "ms"},
      {"logstore.syncs_per_op", "syncs/op"},
      {"logstore.batch_records_mean", "records"},
      {"logstore.inflight_mean", "batches"},
      {"zab.proposals_per_op", "msgs/op"},
      {"zab.commits_per_op", "msgs/op"},
      {"zab.heartbeats", "count"},
      {"zab.leader_changes", "count"},
      {"bft.prepares_per_op", "msgs/op"},
      {"bft.commits_per_op", "msgs/op"},
      {"bft.checkpoints_per_op", "count/op"},
      {"bft.state_transfers", "count"},
      {"bft.host_us_per_snapshot", "us"},
      {"bft.snapshot_bytes", "B"},
      {"ext.invocations_per_op", "count/op"},
      {"ext.steps_per_invocation", "steps"},
      {"ext.vm_share", "ratio"},
      {"ext.host_ns_per_invocation", "ns"},
      {"client.zk.failovers", "count"},
      {"client.zk.reconnect_attempts", "count"},
      {"client.zk.sessions_expired", "count"},
      {"client.ds.retransmits", "count"},
      {"client.ds.give_ups", "count"},
      {"client.lost_callbacks", "count"},
      {"client.late_callbacks", "count"},
      {"client.failed_op_ratio", "ratio"},
      {"client.gen_lateness_ms", "ms"},
      {"recipes.retries_per_op", "count/op"},
      {"recipes.extra_applies", "count"},
      {"e2e.samples", "count"},
      {"e2e.unavail_ms", "ms"},
      {"e2e.read_p999_ms", "ms"},
      {"e2e.write_p999_ms", "ms"},
      {"harness.boot_s", "s"},
      {"harness.recipe_setup_s", "s"},
      {"harness.warmup_s", "s"},
      {"obs.trace_overhead", "ratio"},
  };
  return kUnits;
}

int PerLayer(const RunConfig& config, const std::string& spans) {
  RunResult plain = RunWorkload(config);
  if (!Correct(plain)) {
    return 1;
  }
  RunConfig traced_config = config;
  traced_config.traced = true;
  RunResult traced = RunWorkload(traced_config);
  if (!Correct(traced)) {
    return 1;
  }
  PrintSim("untraced", plain.sim);
  PrintSim("traced", traced.sim);
  if (!(plain.sim == traced.sim)) {
    std::fprintf(stderr, "perfbench: tracing changed simulated results\n");
    return 1;
  }
  std::map<std::string, double> layers = traced.layers;
  layers["host_us_per_op"] =
      plain.window_cpu_s * 1e6 / static_cast<double>(std::max<int64_t>(1, plain.sim.attempted));
  layers["sim.host_ns_per_event"] =
      plain.window_cpu_s * 1e9 / static_cast<double>(std::max<int64_t>(1, plain.window_events));
  layers["harness.boot_s"] = PhaseCpu(plain, "boot");
  layers["harness.recipe_setup_s"] = PhaseCpu(plain, "recipe_setup");
  layers["harness.warmup_s"] = PhaseCpu(plain, "warmup");
  layers["obs.trace_overhead"] = traced.window_cpu_s / plain.window_cpu_s;
  std::vector<Metric> metrics;
  for (const auto& [name, unit] : LayerUnits()) {
    auto it = layers.find(name);
    if (it == layers.end()) {
      std::fprintf(stderr, "perfbench: per-layer value %s missing\n", name.c_str());
      return 1;
    }
    metrics.push_back(Metric{name, it->second, unit});
  }
  WriteSpans(spans, config, {{"untraced", &plain}, {"traced", &traced}});
  PrintResult(plain.sim, metrics);
  return 0;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans FILE]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig config;
  double seconds = 10;
  int trace = 0;
  std::string spans;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + arg).c_str());
    }
    std::string value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (arg == "--spans") {
      spans = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), config.workload) == names.end()) {
    return Usage(("unknown workload '" + config.workload + "'").c_str());
  }
  if (trace != 0 && trace != 1) {
    return Usage("--trace takes 0 or 1");
  }
  return trace == 1 ? PerLayer(config, spans) : EndToEnd(config, seconds, spans);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
