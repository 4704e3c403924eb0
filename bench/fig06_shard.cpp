// Sharded variant of the Fig. 6 shared-counter bench (docs/sharding.md):
// aggregate throughput of the extension-based counter as the coordination
// plane is split into 1 / 4 / 8 / 16 shards, at a fixed offered load of 64
// closed-loop clients. Each client drives a counter namespaced under a
// subtree pinned to its shard (client i -> shard i % N), so shards never
// coordinate and aggregate throughput should scale until the load becomes
// client-bound (target: >= 3x from 1 to 4 shards while a single ensemble is
// saturated).

#include "bench/runner.h"

namespace edc {
namespace {

constexpr Duration kWarmup = Seconds(1);
constexpr Duration kMeasure = Seconds(2);
constexpr int kSeeds = 2;
constexpr size_t kClients = 64;

Sample CounterRun(CoordFixture& fixture) {
  RecipeLoopRun run =
      RunRecipeLoop(fixture, SetupShardedRecipe<SharedCounter>(fixture, true, "/f"),
                    kWarmup, kMeasure, CounterIncrement);
  Sample sample = StatsSample(run.stats);
  sample.cells = {sample.ops_per_s, run.stats.MeanLatencyMs()};
  return sample;
}

void Main() {
  Sweep sweep{.name = "fig06_shard",
              .title = "=== Fig. 6 (sharded): shared counter, " + std::to_string(kClients) +
                       " clients (avg of " + std::to_string(kSeeds) + " runs) ===",
              .seeds = kSeeds,
              .seed_base = 6000,
              .key_columns = {"system", "shards", "clients"},
              .columns = {{"kops_per_s", 2, 1000},
                          {"avg_lat_ms"},
                          {.name = "vs_1sh", .derive = VsOneShard}}};
  for (SystemKind system : {SystemKind::kExtensibleZooKeeper, SystemKind::kExtensibleDepSpace}) {
    for (size_t shards : ShardSweep()) {
      FixtureOptions options;
      options.system = system;
      options.num_clients = kClients;
      options.num_shards = shards;
      options.observability = true;
      std::string label = std::string(SystemName(system)) + "-" + std::to_string(shards) + "sh";
      sweep.points.push_back({label, kClients,
                              {label, std::to_string(shards), std::to_string(kClients)},
                              options, 0, CounterRun});
    }
  }
  SweepResult result = RunAndReport(sweep);
  std::printf("\nshape check: 1->4 shard aggregate speedup EZK = %.1fx, EDS = %.1fx "
              "(target: >= 3x)\n",
              VsOneShard(result, result.Find("EZK-4sh", kClients)),
              VsOneShard(result, result.Find("EDS-4sh", kClients)));
}

}  // namespace
}  // namespace edc

int main() {
  edc::Main();
  return 0;
}
