// ZooKeeper-family schedule sweeps: 200 distinct seeded fault schedules run
// through the recorder + conformance checker (8 shards of 25 so ctest -j
// parallelizes them), plus the planted-bug negative tests proving a watch
// double-fire is caught and shrunk to a minimal plan.

#include <gtest/gtest.h>

#include <string>

#include "edc/check/explorer.h"

namespace edc {
namespace {

void RunZkSeeds(uint64_t lo, uint64_t hi) {
  for (uint64_t seed = lo; seed < hi; ++seed) {
    ExplorerOptions options;
    // Alternate plain/extensible so both server configurations are swept.
    options.system =
        seed % 2 == 0 ? SystemKind::kZooKeeper : SystemKind::kExtensibleZooKeeper;
    options.seed = seed;
    ScheduleResult result = ExploreOne(options);
    std::string violations;
    for (const std::string& v : result.violations) {
      violations += "  " + v + "\n";
    }
    EXPECT_TRUE(result.passed) << "seed " << seed << " violations:\n"
                               << violations << "minimal plan:\n"
                               << result.plan.ToString();
    // The schedule must actually exercise the system: every client issues
    // ops, gets responses, and writes reach the commit stream.
    EXPECT_GT(result.num_calls, 20u) << "seed " << seed;
    EXPECT_GT(result.num_responses, 10u) << "seed " << seed;
    EXPECT_GT(result.num_commits, 5u) << "seed " << seed;
  }
}

TEST(ZkScheduleSweep, Seeds001To025) { RunZkSeeds(1, 26); }
TEST(ZkScheduleSweep, Seeds026To050) { RunZkSeeds(26, 51); }
TEST(ZkScheduleSweep, Seeds051To075) { RunZkSeeds(51, 76); }
TEST(ZkScheduleSweep, Seeds076To100) { RunZkSeeds(76, 101); }
TEST(ZkScheduleSweep, Seeds101To125) { RunZkSeeds(101, 126); }
TEST(ZkScheduleSweep, Seeds126To150) { RunZkSeeds(126, 151); }
TEST(ZkScheduleSweep, Seeds151To175) { RunZkSeeds(151, 176); }
TEST(ZkScheduleSweep, Seeds176To200) { RunZkSeeds(176, 201); }

// The watch-pair workload against honest servers passes under faults.
TEST(ZkScheduleNegative, WatchPairHonestServersPass) {
  ExplorerOptions options;
  options.system = SystemKind::kZooKeeper;
  options.seed = 7;
  options.workload = ExplorerOptions::Workload::kWatchPair;
  ScheduleResult result = RunSchedule(options, GeneratePlan(options.system, options.seed));
  EXPECT_TRUE(result.passed) << CheckReport{result.violations}.ToString();
}

// With the planted double-fire bug the same run is flagged, and shrinking
// removes every fault episode: the bug needs no faults to reproduce, so the
// minimal counterexample is the empty plan.
TEST(ZkScheduleNegative, DoubleFireWatchCaughtAndShrunk) {
  ExplorerOptions options;
  options.system = SystemKind::kZooKeeper;
  options.seed = 7;
  options.workload = ExplorerOptions::Workload::kWatchPair;
  options.zk_server.test_double_fire_watches = true;

  PlanSpec plan = GeneratePlan(options.system, options.seed);
  ScheduleResult full = RunSchedule(options, plan);
  ASSERT_FALSE(full.passed);
  bool saw_one_shot = false;
  for (const std::string& v : full.violations) {
    saw_one_shot = saw_one_shot || v.find("one-shot violated") != std::string::npos;
  }
  EXPECT_TRUE(saw_one_shot) << CheckReport{full.violations}.ToString();

  PlanSpec shrunk = ShrinkPlan(options, plan);
  EXPECT_TRUE(shrunk.faults.episodes.empty() && shrunk.membership.empty())
      << "not minimal:\n" << shrunk.ToString();
  ScheduleResult minimal = RunSchedule(options, shrunk);
  EXPECT_FALSE(minimal.passed);
}

}  // namespace
}  // namespace edc
