// Reproduces the §6.3 discussion: with clients reaching the service over
// wide-area links, remote calls (and especially retries) get much more
// expensive, so the extension-based recipes' advantage grows beyond the LAN
// numbers.

#include "bench/runner.h"

namespace edc {
namespace {

constexpr Duration kWarmup = Seconds(1);
constexpr Duration kMeasure = Seconds(4);
constexpr size_t kClients = 20;

Sample CounterRun(CoordFixture& fixture, SystemKind system) {
  RecipeLoopRun run =
      RunRecipeLoop(fixture, SetupRecipe<SharedCounter>(fixture, IsExtensible(system)),
                    kWarmup, kMeasure, CounterIncrement);
  Sample sample = StatsSample(run.stats);
  sample.cells = {sample.ops_per_s};
  return sample;
}

void Main() {
  LinkParams lan;  // defaults: 100us
  LinkParams wan;
  wan.latency = Millis(20);
  wan.jitter = Millis(2);
  const char* nets[2] = {"LAN(0.1ms)", "WAN(20ms)"};
  LinkParams links[2] = {lan, wan};
  SystemKind systems[2] = {SystemKind::kZooKeeper, SystemKind::kExtensibleZooKeeper};

  Sweep sweep{.name = "wan_gains",
              .title = "=== §6.3: extension gains on wide-area links (shared counter, " +
                       std::to_string(kClients) + " clients) ===",
              .seeds = 1,
              .seed_base = 7000,
              .key_columns = {"network", "system"},
              .columns = {{"counter_ops_per_s", 1}}};
  for (int n = 0; n < 2; ++n) {
    for (SystemKind system : systems) {
      FixtureOptions options;
      options.system = system;
      options.num_clients = kClients;
      options.link = links[n];
      options.observability = true;
      // Row label carries the network so LAN and WAN rows stay apart.
      sweep.points.push_back({std::string(nets[n]) + "/" + SystemName(system), kClients,
                              {nets[n], SystemName(system)}, options,
                              static_cast<uint64_t>(n),
                              [system](CoordFixture& f) { return CounterRun(f, system); }});
    }
  }
  SweepResult result = RunAndReport(sweep);
  auto speedup = [&](const char* net) {
    std::string prefix = std::string(net) + "/";
    return result.Means(prefix + "EZK", kClients)[0] /
           result.Means(prefix + "ZooKeeper", kClients)[0];
  };
  std::printf("\nshape check: EZK/ZooKeeper speedup LAN = %.1fx, WAN = %.1fx "
              "(paper: WAN gain exceeds LAN gain)\n",
              speedup(nets[0]), speedup(nets[1]));
}

}  // namespace
}  // namespace edc

int main() {
  edc::Main();
  return 0;
}
