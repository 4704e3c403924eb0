// Reproduces paper Fig. 12: leader-election stress — a newly appointed
// leader immediately abdicates. Reports leader changes per second and the
// signaling latency from abdication to the successor learning of its
// election.
//
// Expected shape: EZK/EDS avoid the post-event confirmation RPC (the new
// leader is unblocked directly), so they sustain more changes/s with ~25%
// (ZK) / ~45% (DS) lower signaling latency; DepSpace trails everyone because
// it has no deletion notifications (clients poll).

#include "bench/runner.h"

namespace edc {
namespace {

constexpr Duration kWarmup = Seconds(1);
constexpr Duration kMeasure = Seconds(4);
constexpr int kSeeds = 3;

// JSON columns: ops/s is leader changes per second, p50 the mean signaling
// latency (abdication -> successor elected), p99 its tail; the stage
// breakdown has one trace per candidacy (issue -> elected).
Sample ElectionRun(CoordFixture& fixture, SystemKind system) {
  size_t clients = fixture.num_clients();
  auto elections = SetupRecipe<LeaderElection>(fixture, IsExtensible(system));

  struct Ctx {
    CoordFixture* fixture;
    std::vector<std::unique_ptr<LeaderElection>>* elections;
    SimTime measure_start = 0;
    SimTime measure_end = 0;
    SimTime last_abdicated = -1;
    int64_t changes = 0;
    Recorder signal_latency;
    StageSums stages;
  };
  auto ctx = std::make_shared<Ctx>();
  ctx->fixture = &fixture;
  ctx->elections = &elections;
  ctx->measure_start = fixture.loop().now() + kWarmup;
  ctx->measure_end = ctx->measure_start + kMeasure;

  // Every candidate loops: becomeLeader -> (on election) abdicate -> repeat.
  std::function<void(size_t)> campaign = [ctx, &campaign](size_t i) {
    Tracer& tracer = ctx->fixture->obs().tracer;
    TraceContext prev = tracer.current();
    TraceContext root;
    if (tracer.enabled()) {
      root = tracer.BeginTrace("election.become_leader",
                               static_cast<uint32_t>(ctx->fixture->client_node(i)),
                               ctx->fixture->loop().now());
    }
    (*ctx->elections)[i]->BecomeLeader([ctx, &campaign, i, root](Status s) {
      SimTime now = ctx->fixture->loop().now();
      StageBreakdown breakdown;
      if (root.active()) {
        breakdown = ctx->fixture->obs().tracer.FinishTrace(root, now);
      }
      if (!s.ok()) {
        return;  // shutting down
      }
      if (now >= ctx->measure_start && now <= ctx->measure_end) {
        ++ctx->changes;
        if (ctx->last_abdicated >= 0) {
          ctx->signal_latency.Record(now - ctx->last_abdicated);
        }
        if (root.active()) {
          ctx->stages.Add(breakdown);
        }
      }
      if (now >= ctx->measure_end) {
        return;
      }
      ctx->last_abdicated = now;
      (*ctx->elections)[i]->Abdicate([ctx, &campaign, i](Status) {
        if (ctx->fixture->loop().now() < ctx->measure_end) {
          campaign(i);
        }
      });
    });
    if (root.active()) {
      tracer.SetCurrent(prev);
    }
  };
  for (size_t i = 0; i < clients; ++i) {
    campaign(i);
  }
  fixture.loop().RunUntil(ctx->measure_end);
  Sample sample;
  sample.ops_per_s = static_cast<double>(ctx->changes) / ToSeconds(kMeasure);
  sample.p50_ms = ctx->signal_latency.Mean() / 1e6;
  sample.p99_ms = static_cast<double>(ctx->signal_latency.Percentile(0.99)) / 1e6;
  sample.stages = ctx->stages;
  sample.cells = {sample.ops_per_s, sample.p50_ms};
  fixture.loop().RunUntil(ctx->measure_end + Seconds(2));
  return sample;
}

void Main() {
  Sweep sweep{.name = "fig12_election",
              .title = "=== Fig. 12: leader election stress (avg of " +
                       std::to_string(kSeeds) + " runs) ===",
              .seeds = kSeeds,
              .seed_base = 4000,
              .key_columns = {"system", "clients"},
              .columns = {{"changes_per_s", 1}, {"signal_lat_ms"}}};
  for (SystemKind system : AllSystems()) {
    for (size_t clients : ClientSweep(2)) {
      FixtureOptions options;
      options.system = system;
      options.num_clients = clients;
      options.observability = true;
      sweep.points.push_back(
          {SystemName(system), clients, {SystemName(system), std::to_string(clients)},
           options, 0, [system](CoordFixture& f) { return ElectionRun(f, system); }});
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
