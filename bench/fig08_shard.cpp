// Sharded variant of the Fig. 8 distributed-queue bench (docs/sharding.md):
// one independent queue per shard, clients assigned round-robin (client i
// drives shard i % N's queue, alternating add / remove as in Fig. 8).
// Queues are pinned via prefix namespaces found with SubtreeForShard, so
// each shard's ensemble serves only its own queue traffic; the aggregate
// add+remove throughput should scale with the shard count until the fixed
// 64-client offered load becomes the bottleneck.

#include "bench/runner.h"

namespace edc {
namespace {

constexpr Duration kWarmup = Seconds(1);
constexpr Duration kMeasure = Seconds(2);
constexpr int kSeeds = 2;
constexpr size_t kClients = 64;

Sample QueueRun(CoordFixture& fixture) {
  RecipeLoopRun run =
      RunRecipeLoop(fixture, SetupShardedRecipe<DistributedQueue>(fixture, true, "/q"),
                    kWarmup, kMeasure, QueueAddRemove(kClients));
  Sample sample = QueueSample(run.stats);
  sample.cells = {sample.ops_per_s, sample.kb_per_op};
  return sample;
}

void Main() {
  Sweep sweep{.name = "fig08_shard",
              .title = "=== Fig. 8 (sharded): distributed queue, " + std::to_string(kClients) +
                       " clients (avg of " + std::to_string(kSeeds) + " runs) ===",
              .seeds = kSeeds,
              .seed_base = 8000,
              .key_columns = {"system", "shards", "clients"},
              .columns = {{"kops_per_s", 2, 1000},
                          {"client_kb_per_op"},
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
                              options, 0, QueueRun});
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
