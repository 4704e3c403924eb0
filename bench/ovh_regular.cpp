// Reproduces the §6.2 overhead claim: with the extensibility hooks in place
// but no extension triggered, regular read and write latency in EZK/EDS is
// within a fraction of a percent of plain ZooKeeper/DepSpace (the paper
// measured < 0.4%). The cost that remains is the per-request subscription
// check, which is also charged here.

#include "bench/runner.h"

namespace edc {
namespace {

constexpr Duration kWarmup = Seconds(1);
constexpr Duration kMeasure = Seconds(4);
constexpr int kSeeds = 3;
constexpr size_t kClients = 20;
const std::string kPayload(256, 'x');

// Even clients read their own 256-byte object, odd clients overwrite theirs.
Sample RegularRun(CoordFixture& fixture) {
  MustSetup(fixture, "object", fixture.num_clients(), [&](size_t i, CoordClient::Cb done) {
    fixture.coord(i)->Create(
        "/o-" + std::to_string(i), kPayload,
        [done = std::move(done)](Result<std::string> res) { done(res.status()); });
  });

  Recorder read_latency;
  Recorder write_latency;
  MeasureWindow window(fixture, kWarmup, kMeasure);
  ClosedLoop driver(&fixture, [&](size_t i, std::function<void()> done) {
    std::string path = "/o-" + std::to_string(i);
    if (i % 2 == 0) {
      fixture.coord(i)->Read(path, [done = window.Timed(read_latency, std::move(done))](
                                       Result<std::string>) { done(); });
    } else {
      fixture.coord(i)->Update(path, kPayload,
                               [done = window.Timed(write_latency, std::move(done))](
                                   Status) { done(); });
    }
  });
  Sample sample = StatsSample(driver.Run(kWarmup, kMeasure));
  sample.cells = {read_latency.Mean() / 1e6, write_latency.Mean() / 1e6};
  return sample;
}

void Main() {
  Sweep sweep{.name = "ovh_regular",
              .title = "=== §6.2: regular-operation overhead of extensibility hooks "
                       "(no extensions registered) ===",
              .seeds = kSeeds,
              .seed_base = 6000,
              .key_columns = {"system"},
              .columns = {{"read_ms", 4}, {"write_ms", 4}}};
  for (SystemKind system : AllSystems()) {
    FixtureOptions options;
    options.system = system;
    options.num_clients = kClients;
    options.observability = true;
    sweep.points.push_back(
        {SystemName(system), kClients, {SystemName(system)}, options, 0, RegularRun});
  }
  SweepResult result = RunAndReport(sweep);
  auto pct = [&](SystemKind base, SystemKind ext, size_t column) {
    double b = result.Means(SystemName(base), kClients)[column];
    double e = result.Means(SystemName(ext), kClients)[column];
    return b > 0 ? (e - b) / b * 100.0 : 0.0;
  };
  std::printf("\nshape check (paper: < 0.4%% overhead):\n");
  std::printf("  EZK vs ZooKeeper: read %+.2f%%, write %+.2f%%\n",
              pct(SystemKind::kZooKeeper, SystemKind::kExtensibleZooKeeper, 0),
              pct(SystemKind::kZooKeeper, SystemKind::kExtensibleZooKeeper, 1));
  std::printf("  EDS vs DepSpace:  read %+.2f%%, write %+.2f%%\n",
              pct(SystemKind::kDepSpace, SystemKind::kExtensibleDepSpace, 0),
              pct(SystemKind::kDepSpace, SystemKind::kExtensibleDepSpace, 1));
}

}  // namespace
}  // namespace edc

int main() {
  edc::Main();
  return 0;
}
