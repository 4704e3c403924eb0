// Sanity tests for the benchmark harness itself (fixture, closed loop, bench runner).

#include <gtest/gtest.h>

#include "bench/runner.h"
#include "edc/harness/driver.h"
#include "edc/harness/fixture.h"

namespace edc {
namespace {

TEST(HarnessTest, FixtureBootsAllFourSystems) {
  for (SystemKind system : AllSystems()) {
    FixtureOptions options;
    options.system = system;
    options.num_clients = 3;
    CoordFixture fixture(options);
    fixture.Start();
    EXPECT_EQ(fixture.num_clients(), 3u) << SystemName(system);
    // Every client can complete one operation.
    int done = 0;
    for (size_t i = 0; i < 3; ++i) {
      fixture.coord(i)->Create("/boot-" + std::to_string(i), "x",
                               [&](Result<std::string> r) {
                                 EXPECT_TRUE(r.ok()) << r.status().ToString();
                                 ++done;
                               });
    }
    fixture.Settle(Seconds(2));
    EXPECT_EQ(done, 3) << SystemName(system);
  }
}

TEST(HarnessTest, ClosedLoopMeasuresOnlyTheWindow) {
  FixtureOptions options;
  options.system = SystemKind::kZooKeeper;
  options.num_clients = 2;
  CoordFixture fixture(options);
  fixture.Start();
  bool ready = false;
  fixture.coord(0)->Create("/x", "v", [&](Result<std::string>) { ready = true; });
  fixture.Settle(Seconds(1));
  ASSERT_TRUE(ready);

  ClosedLoop driver(&fixture, [&](size_t i, std::function<void()> done) {
    fixture.coord(i)->Read("/x", [done = std::move(done)](Result<std::string>) { done(); });
  });
  RunStats stats = driver.Run(Millis(500), Seconds(2));
  EXPECT_GT(stats.ops, 100);  // reads are sub-millisecond; thousands fit
  EXPECT_GT(stats.client_bytes, 0);
  EXPECT_GT(stats.ThroughputOpsPerSec(), 100.0);
  EXPECT_GT(stats.MeanLatencyMs(), 0.0);
  EXPECT_LT(stats.MeanLatencyMs(), 50.0);
  // Latency samples only from inside the window.
  EXPECT_EQ(static_cast<int64_t>(stats.latency.count()), stats.ops);
}

// The bench runner's seed loop, rows and means must reproduce a hand-written
// per-seed ClosedLoop loop exactly: every published figure depends on it.
TEST(HarnessTest, RunnerMatchesHandWrittenSeedLoop) {
  constexpr Duration kWarmup = Millis(200);
  constexpr Duration kMeasure = Millis(500);
  FixtureOptions options;
  options.system = SystemKind::kZooKeeper;
  options.num_clients = 2;
  Sweep sweep{.name = "runner_test",
              .title = "runner test",
              .seeds = 2,
              .seed_base = 1000,
              .key_columns = {"system"},
              .columns = {{"kops_per_s", 3, 1000}, {"avg_lat_ms", 4}}};
  sweep.points.push_back({"ZooKeeper", 2, {"ZooKeeper"}, options, 0, [&](CoordFixture& f) {
                            RecipeLoopRun run = RunRecipeLoop(
                                f, SetupRecipe<SharedCounter>(f, false), kWarmup, kMeasure,
                                CounterIncrement);
                            Sample sample = StatsSample(run.stats);
                            sample.cells = {sample.ops_per_s, run.stats.MeanLatencyMs()};
                            return sample;
                          }});
  SweepResult result = RunSweep(sweep);

  // One JSON row per (point, seed).
  ASSERT_EQ(result.rows.size(), 2u);
  std::string json = FormatJson(result);
  size_t json_rows = 0;
  for (size_t at = json.find("\"seed\""); at != std::string::npos;
       at = json.find("\"seed\"", at + 1)) {
    ++json_rows;
  }
  EXPECT_EQ(json_rows, 2u);

  // Each row equals a hand-written ClosedLoop run on the same seed.
  for (int seed = 0; seed < 2; ++seed) {
    FixtureOptions hand_options = options;
    hand_options.seed = 1000 + static_cast<uint64_t>(seed);
    CoordFixture fixture(hand_options);
    fixture.Start();
    auto counters = SetupRecipe<SharedCounter>(fixture, false);
    ClosedLoop driver(&fixture, [&](size_t i, std::function<void()> done) {
      counters[i]->Increment([done = std::move(done)](Result<int64_t>) { done(); });
    });
    RunStats stats = driver.Run(kWarmup, kMeasure);
    ASSERT_GT(stats.ops, 0);
    const SweepRow& row = result.rows[static_cast<size_t>(seed)];
    EXPECT_EQ(row.point, 0u);
    EXPECT_EQ(row.seed, hand_options.seed);
    EXPECT_EQ(row.sample.ops_per_s, stats.ThroughputOpsPerSec());
    EXPECT_EQ(row.sample.p50_ms, static_cast<double>(stats.latency.Percentile(0.5)) / 1e6);
    EXPECT_EQ(row.sample.p99_ms, static_cast<double>(stats.latency.Percentile(0.99)) / 1e6);
    EXPECT_EQ(row.sample.kb_per_op, stats.KbPerOp());
    EXPECT_EQ(row.sample.cells[1], stats.MeanLatencyMs());
  }

  // The table cell is the mean of the per-seed values, in display units.
  const Sample& a = result.rows[0].sample;
  const Sample& b = result.rows[1].sample;
  ASSERT_EQ(result.means.size(), 1u);
  EXPECT_EQ(result.means[0][0], (a.cells[0] + b.cells[0]) / 2);
  EXPECT_EQ(result.means[0][1], (a.cells[1] + b.cells[1]) / 2);
  std::string table = FormatTable(result);
  EXPECT_NE(table.find("ZooKeeper  " + Fmt(result.means[0][0] / 1000, 3) + " "),
            std::string::npos)
      << table;
  EXPECT_NE(table.find(" " + Fmt(result.means[0][1], 4) + " "), std::string::npos) << table;
}

TEST(HarnessTest, ClientBytesMonotonic) {
  FixtureOptions options;
  options.system = SystemKind::kDepSpace;
  options.num_clients = 1;
  CoordFixture fixture(options);
  fixture.Start();
  int64_t before = fixture.ClientBytesSent();
  bool done = false;
  fixture.coord(0)->Create("/b", "data", [&](Result<std::string>) { done = true; });
  fixture.Settle(Seconds(1));
  ASSERT_TRUE(done);
  // DepSpace clients multicast to all 4 replicas: 4 request frames at least.
  int64_t delta = fixture.ClientBytesSent() - before;
  EXPECT_GE(delta, static_cast<int64_t>(4 * kFrameOverheadBytes));
}

TEST(HarnessTest, WanLinkRaisesLatency) {
  FixtureOptions lan;
  lan.system = SystemKind::kZooKeeper;
  lan.num_clients = 1;
  FixtureOptions wan = lan;
  wan.link.latency = Millis(20);
  wan.link.jitter = 0;

  auto measure = [](FixtureOptions options) {
    CoordFixture fixture(options);
    fixture.Start();
    bool ready = false;
    fixture.coord(0)->Create("/w", "v", [&](Result<std::string>) { ready = true; });
    fixture.Settle(Seconds(2));
    EXPECT_TRUE(ready);
    SimTime start = fixture.loop().now();
    SimTime end = 0;
    bool read_done = false;
    fixture.coord(0)->Read("/w", [&](Result<std::string>) {
      end = fixture.loop().now();
      read_done = true;
    });
    fixture.Settle(Seconds(2));
    EXPECT_TRUE(read_done);
    return end - start;
  };
  Duration lan_latency = measure(lan);
  Duration wan_latency = measure(wan);
  EXPECT_GT(wan_latency, lan_latency + Millis(30));  // ~2x 20ms one-way
}

}  // namespace
}  // namespace edc
