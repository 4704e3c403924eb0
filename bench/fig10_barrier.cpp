// Reproduces paper Fig. 10: distributed-barrier latency and client data per
// enter operation vs group size (2-50 clients).
//
// Expected shape: the extension variant needs a single blocking RPC per
// participant and the release notification goes out the instant the last
// participant arrives, so both latency and bytes stay well below the
// traditional recipe (which needs create + subObjects + block/create, plus a
// fetch after the unblock notification).

#include "bench/runner.h"

namespace edc {
namespace {

constexpr int kSeeds = 3;
constexpr int kRounds = 20;  // measured barrier rounds per run

// JSON columns: ops/s is rounds per second, p50 the mean round latency (start
// to last release), p99 its tail, KB/op the client bytes per enter, and the
// stage breakdown has one trace per round (round = the "op").
Sample BarrierRun(CoordFixture& fixture, SystemKind system) {
  size_t clients = fixture.num_clients();
  auto barriers = SetupRecipe<DistributedBarrier>(fixture, IsExtensible(system),
                                                  static_cast<int>(clients));

  Recorder round_latency;
  int64_t bytes_before = fixture.ClientBytesSent();
  int64_t enters = 0;
  Sample sample;
  Tracer& tracer = fixture.obs().tracer;
  SimTime run_start = fixture.loop().now();

  for (int round = 0; round < kRounds; ++round) {
    SimTime start = fixture.loop().now();
    SimTime last_release = start;
    size_t released = 0;
    bool all_released = false;
    // One trace per round: every participant's enter lands under it, and the
    // breakdown covers start -> last release.
    TraceContext prev = tracer.current();
    TraceContext root;
    if (tracer.enabled()) {
      root = tracer.BeginTrace("barrier.round", 0, start);
    }
    for (size_t i = 0; i < clients; ++i) {
      barriers[i]->Enter([&](Status s) {
        if (!s.ok()) {
          std::fprintf(stderr, "FATAL: barrier enter failed: %s\n", s.ToString().c_str());
          std::exit(1);
        }
        if (++released == clients) {
          all_released = true;
          last_release = fixture.loop().now();
        }
      });
      ++enters;
    }
    if (root.active()) {
      tracer.SetCurrent(prev);
    }
    WaitFor(fixture, all_released, "barrier round", Seconds(30));
    round_latency.Record(last_release - start);
    if (root.active()) {
      sample.stages.Add(tracer.FinishTrace(root, last_release));
    }
    MustSetup(
        fixture, "barrier reset", 1,
        [&](size_t, CoordClient::Cb done) { barriers[0]->Reset(std::move(done)); },
        Seconds(30));
  }

  Duration elapsed = fixture.loop().now() - run_start;
  sample.ops_per_s = elapsed > 0 ? static_cast<double>(kRounds) / ToSeconds(elapsed) : 0.0;
  sample.p50_ms = round_latency.Mean() / 1e6;
  sample.p99_ms = static_cast<double>(round_latency.Percentile(0.99)) / 1e6;
  sample.kb_per_op = static_cast<double>(fixture.ClientBytesSent() - bytes_before) / 1024.0 /
                     static_cast<double>(enters);
  sample.cells = {sample.p50_ms, sample.kb_per_op};
  return sample;
}

void Main() {
  Sweep sweep{.name = "fig10_barrier",
              .title = "=== Fig. 10: distributed barrier (avg of " + std::to_string(kSeeds) +
                       " runs, " + std::to_string(kRounds) + " rounds each) ===",
              .seeds = kSeeds,
              .seed_base = 3000,
              .key_columns = {"system", "clients"},
              .columns = {{"avg_lat_ms"}, {"client_kb_per_op", 3}}};
  for (SystemKind system : AllSystems()) {
    for (size_t clients : ClientSweep(2)) {
      FixtureOptions options;
      options.system = system;
      options.num_clients = clients;
      options.observability = true;
      sweep.points.push_back(
          {SystemName(system), clients, {SystemName(system), std::to_string(clients)},
           options, 0, [system](CoordFixture& f) { return BarrierRun(f, system); }});
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
