// Reproduces paper Fig. 8: distributed queue throughput and client data per
// operation vs number of clients (each client alternates add / remove with
// empty payloads).
//
// Expected shape: traditional remove costs grow with contention (rdAll of
// the whole queue + delete races -> retries), so KB/op climbs with clients
// while the extension variant stays flat; EZK/EDS outperform by ~17x/24x.
// DepSpace-family clients send ~4x the bytes (requests go to all replicas).

#include "bench/runner.h"

namespace edc {
namespace {

constexpr Duration kWarmup = Seconds(1);
constexpr Duration kMeasure = Seconds(3);
constexpr int kSeeds = 3;

Sample QueueRun(CoordFixture& fixture, SystemKind system) {
  RecipeLoopRun run =
      RunRecipeLoop(fixture, SetupRecipe<DistributedQueue>(fixture, IsExtensible(system)),
                    kWarmup, kMeasure, QueueAddRemove(fixture.num_clients()));
  // Every column counts add and remove as one operation each, except the
  // latency columns, which stay per add+remove iteration.
  Sample sample = QueueSample(run.stats);
  double ops = static_cast<double>(run.stats.ops) * 2.0;
  sample.cells = {sample.ops_per_s, sample.kb_per_op,
                  PerOp(static_cast<double>(run.retries), ops)};
  return sample;
}

void Main() {
  Sweep sweep{.name = "fig08_queue",
              .title = "=== Fig. 8: distributed queue (avg of " + std::to_string(kSeeds) +
                       " runs) ===",
              .seeds = kSeeds,
              .seed_base = 2000,
              .key_columns = {"system", "clients"},
              .columns = {{"kops_per_s", 2, 1000}, {"client_kb_per_op", 3}, {"retries/op"}}};
  for (SystemKind system : AllSystems()) {
    for (size_t clients : ClientSweep(1)) {
      FixtureOptions options;
      options.system = system;
      options.num_clients = clients;
      options.observability = true;
      sweep.points.push_back(
          {SystemName(system), clients, {SystemName(system), std::to_string(clients)},
           options, 0, [system](CoordFixture& f) { return QueueRun(f, system); }});
    }
  }
  SweepResult result = RunAndReport(sweep);
  double zk50 = result.Means("ZooKeeper", 50)[0];
  double ezk50 = result.Means("EZK", 50)[0];
  double ds50 = result.Means("DepSpace", 50)[0];
  double eds50 = result.Means("EDS", 50)[0];
  if (zk50 > 0 && ds50 > 0) {
    std::printf("\nshape check: EZK/ZooKeeper = %.1fx (paper: ~17x), "
                "EDS/DepSpace = %.1fx (paper: ~24x)\n",
                ezk50 / zk50, eds50 / ds50);
  }
}

}  // namespace
}  // namespace edc

int main() {
  edc::Main();
  return 0;
}
