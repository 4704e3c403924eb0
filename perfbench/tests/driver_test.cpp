#include "driver.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "edc/harness/driver.h"
#include "edc/recipes/recipes.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {
namespace {

using edc::Millis;
using edc::SimTime;

// The driver only needs the fixture's loop, tracer and client count; the
// ops below are test doubles that never touch the cluster.
std::unique_ptr<edc::CoordFixture> SmallFixture(size_t clients) {
  edc::FixtureOptions options;
  options.num_clients = clients;
  auto fixture = std::make_unique<edc::CoordFixture>(options);
  fixture->Start();
  return fixture;
}

TEST(LoadDriverTest, OpenLoopTimesEachOpFromItsDueTime) {
  auto fixture = SmallFixture(2);
  edc::EventLoop& loop = fixture->loop();
  DriverOptions options;
  options.window_start = loop.now() + Millis(10);
  options.window_end = options.window_start + Millis(100);
  options.open_rate_per_s = 1000;
  // The first attempt of every op fails at once; the retry, issued after the
  // backoff, completes 1 ms later.
  LoadDriver driver(fixture.get(),
                    [&](const OpCall& call, OpDone done) {
                      if (call.attempt == 1) {
                        done(false);
                        return;
                      }
                      loop.Schedule(Millis(1), [done]() { done(true); });
                    },
                    options);
  driver.Start(options.window_end + Millis(100));
  loop.RunUntil(options.window_end + Millis(100));
  driver.Finish();

  const OpAccounting& acc = driver.window();
  EXPECT_EQ(acc.attempted(), 100);
  EXPECT_EQ(acc.failed(), 0);
  EXPECT_EQ(acc.failed_attempts(), 100);
  EXPECT_DOUBLE_EQ(acc.AttemptsPerOp(), 2.0);
  EXPECT_EQ(driver.max_lateness(), 0);
  // Timed from the due time, so the retry backoff is part of the latency.
  EXPECT_EQ(acc.latency().Min(), kRetryBackoff + Millis(1));
  EXPECT_EQ(acc.latency().Max(), kRetryBackoff + Millis(1));
}

TEST(LoadDriverTest, LostCallbackIsRetriedAndTheClientMovesOn) {
  auto fixture = SmallFixture(2);
  edc::EventLoop& loop = fixture->loop();
  DriverOptions options;
  options.window_start = loop.now();
  options.window_end = options.window_start + Millis(2000);
  int64_t client0_ops = 0;
  // Client 0's first attempt never calls back; everything else takes 1 ms.
  LoadDriver driver(fixture.get(),
                    [&](const OpCall& call, OpDone done) {
                      if (call.client == 0) {
                        ++client0_ops;
                        if (call.seq == 0 && call.attempt == 1) {
                          return;
                        }
                      }
                      loop.Schedule(Millis(1), [done]() { done(true); });
                    },
                    options);
  driver.Start(options.window_end + Millis(500));
  loop.RunUntil(options.window_end + Millis(500));
  driver.Finish();

  const OpAccounting& acc = driver.window();
  EXPECT_EQ(acc.failed(), 0);
  EXPECT_EQ(acc.lost_attempts(), 1);
  // The lost op waited for the attempt timeout (rounded up to a tick).
  EXPECT_GE(acc.latency().Max(), kAttemptTimeout);
  EXPECT_LT(acc.latency().Max(), kAttemptTimeout + kTick + Millis(2));
  // Client 0 kept issuing after the lost attempt.
  EXPECT_GT(client0_ops, 500);
}

TEST(LoadDriverTest, OpsThatNeverSucceedFailAndMissTheSlo) {
  auto fixture = SmallFixture(1);
  edc::EventLoop& loop = fixture->loop();
  DriverOptions options;
  options.window_start = loop.now();
  options.window_end = options.window_start + Millis(50);
  LoadDriver driver(fixture.get(), [](const OpCall&, OpDone done) { done(false); }, options);
  // The one op of the window spends 10+20+40+80 ms and then 160 ms per
  // attempt in backoff before it gives up: about 4.2 s.
  const SimTime drained = options.window_end + edc::Seconds(5);
  driver.Start(drained);
  loop.RunUntil(drained);
  driver.Finish();

  const OpAccounting& acc = driver.window();
  EXPECT_EQ(acc.attempted(), 1);
  EXPECT_EQ(acc.failed(), 1);
  EXPECT_EQ(acc.failed_attempts(), kMaxAttempts);
  EXPECT_DOUBLE_EQ(acc.SloOkRatio(), 0.0);
  EXPECT_EQ(acc.latency().count(), 0u);
}

TEST(WorkloadTest, SkippedIncrementFailsTheCounterCheck) {
  RunConfig config;
  config.workload = "ezk_counter";
  config.seed = 5;
  config.warmup = Millis(100);
  config.window = Millis(250);
  EXPECT_EQ(RunWorkload(config).violation, "");
  config.skip_one_increment = true;
  EXPECT_NE(RunWorkload(config).violation.find("below"), std::string::npos);
}

// The benchmark drives the system exactly as the figure benches do: the
// fig06 configuration for EZK (50 clients, seed 1000, observability on, 1 s
// warmup, 3 s window) through the harness's ClosedLoop gives the same
// throughput. bench_results/BENCH_fig06_counter.json records 64291.667 ops/s
// for this row; the code as it stands gives 64290.333 on both paths.
TEST(WorkloadTest, MatchesTheFigureBenchDriverOnFig06Ezk) {
  edc::FixtureOptions options;
  options.system = edc::SystemKind::kExtensibleZooKeeper;
  options.num_clients = 50;
  options.seed = 1000;
  options.observability = true;
  edc::CoordFixture fixture(options);
  fixture.Start();
  std::vector<std::unique_ptr<edc::SharedCounter>> counters;
  for (size_t i = 0; i < options.num_clients; ++i) {
    counters.push_back(std::make_unique<edc::SharedCounter>(fixture.coord(i), true));
  }
  bool ready = false;
  counters[0]->Setup([&](edc::Status s) { ready = s.ok(); });
  while (!ready) {
    fixture.Settle(Millis(100));
  }
  size_t attached = 1;
  for (size_t i = 1; i < options.num_clients; ++i) {
    counters[i]->Attach([&](edc::Status) { ++attached; });
  }
  while (attached < options.num_clients) {
    fixture.Settle(Millis(100));
  }
  edc::ClosedLoop loop(&fixture, [&](size_t i, std::function<void()> done) {
    counters[i]->Increment([done = std::move(done)](edc::Result<int64_t>) { done(); });
  });
  edc::RunStats stats = loop.Run(edc::Seconds(1), edc::Seconds(3));

  RunConfig config;
  config.workload = "ezk_counter";
  config.seed = 1000;
  config.warmup = edc::Seconds(1);
  config.window = edc::Seconds(3);
  RunResult r = RunWorkload(config);
  ASSERT_EQ(r.violation, "");
  EXPECT_NEAR(stats.ThroughputOpsPerSec(), 64290.333, 0.001);
  EXPECT_EQ(r.sim.ops_per_s, stats.ThroughputOpsPerSec());
}

TEST(WorkloadTest, TracingLeavesSimulatedResultsUnchanged) {
  RunConfig config;
  config.workload = "ezk_leader_crash";
  config.seed = 9;
  RunResult plain = RunWorkload(config);
  config.traced = true;
  RunResult traced = RunWorkload(config);
  ASSERT_EQ(plain.violation, "");
  ASSERT_EQ(traced.violation, "");
  EXPECT_TRUE(plain.sim == traced.sim);
  EXPECT_EQ(plain.window_events, traced.window_events);
  EXPECT_EQ(traced.layers.at("zab.leader_changes"), 1.0);
  EXPECT_EQ(traced.layers.at("client.gen_lateness_ms"), 0.0);
}

// Each handler loads, is certified and runs on the VM under the verifier
// settings of both bindings, including EDS's deterministic-only white list.
TEST(LayerReplayTest, ExtensionReplayRunsUnderEachBindingsVerifier) {
  for (edc::SystemKind system :
       {edc::SystemKind::kExtensibleZooKeeper, edc::SystemKind::kExtensibleDepSpace}) {
    edc::FixtureOptions options;
    options.system = system;
    for (Handler handler : {Handler::kCounter, Handler::kQueueRemove}) {
      ExtensionReplay replay = ReplayExtension(handler, 4, 64, options);
      EXPECT_TRUE(replay.vm) << edc::SystemName(system);
      EXPECT_GT(replay.host_ns, 0.0) << edc::SystemName(system);
    }
  }
}

}  // namespace
}  // namespace perfbench
