// Reproduces paper Fig. 6: shared-counter throughput and latency vs number
// of clients, for ZooKeeper / EZK / DepSpace / EDS.
//
// Expected shape (paper): the traditional read+cas recipe collapses under
// contention (retries), while the extension-based single-RPC variant scales
// to server saturation — ~20x for EZK over ZooKeeper at 50 clients, with
// EZK latency ~2 ms and EDS ~3 ms.

#include "bench/runner.h"

namespace edc {
namespace {

constexpr Duration kWarmup = Seconds(1);
constexpr Duration kMeasure = Seconds(3);
constexpr int kSeeds = 3;

Sample CounterRun(CoordFixture& fixture, SystemKind system) {
  RecipeLoopRun run =
      RunRecipeLoop(fixture, SetupRecipe<SharedCounter>(fixture, IsExtensible(system)),
                    kWarmup, kMeasure, CounterIncrement);
  Sample sample = StatsSample(run.stats);
  sample.cells = {sample.ops_per_s, run.stats.MeanLatencyMs(),
                  PerOp(static_cast<double>(run.retries), static_cast<double>(run.stats.ops))};
  return sample;
}

void Main() {
  Sweep sweep{.name = "fig06_counter",
              .title = "=== Fig. 6: shared counter (avg of " + std::to_string(kSeeds) +
                       " runs) ===",
              .seeds = kSeeds,
              .seed_base = 1000,
              .key_columns = {"system", "clients"},
              .columns = {{"kops_per_s", 2, 1000}, {"avg_lat_ms"}, {"retries/op"}}};
  for (SystemKind system : AllSystems()) {
    for (size_t clients : ClientSweep(1)) {
      FixtureOptions options;
      options.system = system;
      options.num_clients = clients;
      options.observability = true;
      sweep.points.push_back(
          {SystemName(system), clients, {SystemName(system), std::to_string(clients)},
           options, 0, [system](CoordFixture& f) { return CounterRun(f, system); }});
    }
  }
  // Ablation: EZK at 50 clients with the pre-pipeline replication plane —
  // serial depth-1 group commit and per-record acks. The delta against the
  // pipelined EZK row above is entirely the replication pipeline's doing
  // (docs/replication_pipeline.md); the paper-shape speedup is computed from
  // the pipelined rows.
  FixtureOptions depth1;
  depth1.system = SystemKind::kExtensibleZooKeeper;
  depth1.num_clients = 50;
  depth1.observability = true;
  depth1.zk_server.log = LegacyLogStoreConfig();
  depth1.zk_server.zab.ack_aggregation = false;
  sweep.points.push_back({"ezk-depth1", 50, {"ezk-depth1", "50"}, depth1, 0, [](CoordFixture& f) {
                            return CounterRun(f, SystemKind::kExtensibleZooKeeper);
                          }});

  SweepResult result = RunAndReport(sweep);
  double zk50 = result.Means("ZooKeeper", 50)[0];
  double ezk50 = result.Means("EZK", 50)[0];
  double ezk50_depth1 = result.Means("ezk-depth1", 50)[0];
  if (zk50 > 0) {
    std::printf("\nshape check: EZK/ZooKeeper speedup at 50 clients = %.1fx "
                "(paper: ~20x)\n",
                ezk50 / zk50);
  }
  if (ezk50_depth1 > 0) {
    std::printf("pipeline check: EZK pipelined vs depth-1 at 50 clients = %.2fx\n",
                ezk50 / ezk50_depth1);
  }
}

}  // namespace
}  // namespace edc

int main() {
  edc::Main();
  return 0;
}
