// Reproduces paper Fig. 13: impact of the queue extension on regular
// clients. 30 regular clients (15 readers / 15 writers, 256-byte objects)
// share EZK / EDS with a varying number of queue clients; reported is the
// regular clients' read and write latency against the queue throughput
// achieved.
//
// Expected shape: write latency climbs with queue throughput (both share the
// ordered update path); read latency stays essentially flat (reads take the
// fast path at the connected replica and bypass the extension machinery).

#include "bench/runner.h"

namespace edc {
namespace {

constexpr Duration kWarmup = Seconds(1);
constexpr Duration kMeasure = Seconds(3);
constexpr int kSeeds = 3;
constexpr size_t kRegularClients = 30;  // 15 readers + 15 writers
const std::string kPayload(256, 'x');   // typical coordination object size

// JSON columns: ops/s is the queue throughput; p50/p99 report the regular
// writers' mean and tail latency (the latency the figure is about).
Sample MixedRun(CoordFixture& fixture, SystemKind system, size_t queue_clients) {
  // Queue clients are 0..queue_clients-1; the regular clients follow, and
  // own one 256-byte object each.
  auto queues = SetupRecipeOn<DistributedQueue>(fixture, queue_clients, IsExtensible(system));
  MustSetup(fixture, "regular object", kRegularClients, [&](size_t r, CoordClient::Cb done) {
    fixture.coord(queue_clients + r)
        ->Create("/reg-" + std::to_string(r), kPayload,
                 [done = std::move(done)](Result<std::string> res) { done(res.status()); });
  });

  Recorder read_latency;
  Recorder write_latency;
  Recorder queue_iterations;  // count(): iterations completed in the window
  QueueAddRemove queue_op(queue_clients);
  MeasureWindow window(fixture, kWarmup, kMeasure);
  ClosedLoop driver(&fixture, [&](size_t i, std::function<void()> done) {
    if (i < queue_clients) {
      queue_op(*queues[i], i, window.Timed(queue_iterations, std::move(done)));
      return;
    }
    size_t r = i - queue_clients;
    std::string path = "/reg-" + std::to_string(r);
    if (r < kRegularClients / 2) {
      fixture.coord(i)->Read(path, [done = window.Timed(read_latency, std::move(done))](
                                       Result<std::string>) { done(); });
    } else {
      fixture.coord(i)->Update(path, kPayload,
                               [done = window.Timed(write_latency, std::move(done))](
                                   Status) { done(); });
    }
  });
  RunStats stats = driver.Run(kWarmup, kMeasure);

  double queue_kops = static_cast<double>(queue_iterations.count()) * 2.0 /
                      ToSeconds(kMeasure) / 1000.0;
  Sample sample;
  sample.ops_per_s = queue_kops * 1000.0;
  sample.p50_ms = write_latency.Mean() / 1e6;
  sample.p99_ms = static_cast<double>(write_latency.Percentile(0.99)) / 1e6;
  sample.stages = stats.stages;
  sample.cells = {queue_kops, read_latency.Mean() / 1e6, sample.p50_ms};
  return sample;
}

void Main() {
  Sweep sweep{.name = "fig13_regular",
              .title = "=== Fig. 13: impact of the queue extension on regular clients "
                       "(avg of " +
                       std::to_string(kSeeds) + " runs) ===",
              .seeds = kSeeds,
              .seed_base = 5000,
              .key_columns = {"system", "queue_clients"},
              .columns = {{"queue_kops_per_s"}, {"reg_read_ms", 3}, {"reg_write_ms", 3}}};
  for (SystemKind system : {SystemKind::kExtensibleZooKeeper, SystemKind::kExtensibleDepSpace}) {
    for (size_t queue_clients : {1, 5, 10, 20, 35, 50}) {
      FixtureOptions options;
      options.system = system;
      options.num_clients = queue_clients + kRegularClients;
      options.observability = true;
      sweep.points.push_back({SystemName(system), queue_clients,
                              {SystemName(system), std::to_string(queue_clients)}, options,
                              0, [system, queue_clients](CoordFixture& f) {
                                return MixedRun(f, system, queue_clients);
                              }});
    }
  }
  RunAndReport(sweep);
}

}  // namespace
}  // namespace edc

int main() {
  edc::Main();
  return 0;
}
