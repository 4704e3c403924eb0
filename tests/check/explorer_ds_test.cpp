// DepSpace-family schedule sweeps: 200 distinct seeded fault schedules
// (crash-restart of single BFT replicas, 2-2 partitions, degraded and
// duplicating server-server links) run through the recorder + conformance
// checker, sharded for ctest -j. RunSchedule additionally checks the
// EdsDigestsMatch and EdsLogBounded invariants after every drain, so each
// schedule also proves checkpointing, log GC and state transfer.

#include <gtest/gtest.h>

#include <string>

#include "edc/check/explorer.h"

namespace edc {
namespace {

// Returns how many crash-restart episodes the swept plans contained, so the
// sweep can assert the grammar actually exercises state transfer.
size_t RunDsSeeds(uint64_t lo, uint64_t hi) {
  size_t crash_restarts = 0;
  for (uint64_t seed = lo; seed < hi; ++seed) {
    ExplorerOptions options;
    options.system =
        seed % 2 == 0 ? SystemKind::kDepSpace : SystemKind::kExtensibleDepSpace;
    options.seed = seed;
    ScheduleResult result = ExploreOne(options);
    std::string violations;
    for (const std::string& v : result.violations) {
      violations += "  " + v + "\n";
    }
    EXPECT_TRUE(result.passed) << "seed " << seed << " violations:\n"
                               << violations << "minimal plan:\n"
                               << result.plan.ToString();
    for (const Episode& ep : result.plan.faults.episodes) {
      if (ep.kind == EpisodeKind::kCrashRestart) {
        ++crash_restarts;
      }
    }
    // The schedule must actually exercise the system: ops are issued,
    // responses accepted, and requests reach the ordered execution stream.
    EXPECT_GT(result.num_calls, 20u) << "seed " << seed;
    EXPECT_GT(result.num_responses, 10u) << "seed " << seed;
    EXPECT_GT(result.num_commits, 5u) << "seed " << seed;
  }
  return crash_restarts;
}

TEST(DsScheduleSweep, Seeds001To025) { EXPECT_GT(RunDsSeeds(1, 26), 0u); }
TEST(DsScheduleSweep, Seeds026To050) { EXPECT_GT(RunDsSeeds(26, 51), 0u); }
TEST(DsScheduleSweep, Seeds051To075) { EXPECT_GT(RunDsSeeds(51, 76), 0u); }
TEST(DsScheduleSweep, Seeds076To100) { EXPECT_GT(RunDsSeeds(76, 101), 0u); }
TEST(DsScheduleSweep, Seeds101To125) { EXPECT_GT(RunDsSeeds(101, 126), 0u); }
TEST(DsScheduleSweep, Seeds126To150) { EXPECT_GT(RunDsSeeds(126, 151), 0u); }
TEST(DsScheduleSweep, Seeds151To175) { EXPECT_GT(RunDsSeeds(151, 176), 0u); }
TEST(DsScheduleSweep, Seeds176To200) { EXPECT_GT(RunDsSeeds(176, 201), 0u); }

// Every seed whose drawn plan contains at least one crash-restart episode is
// a full recovery exercise: a replica goes down mid-workload, restarts, and
// must rejoin via state transfer before the invariant check at drain. Verify
// the grammar draws them at a healthy rate (~1/4 of episodes).
TEST(DsScheduleSweep, GrammarDrawsCrashRestartEpisodes) {
  size_t episodes = 0;
  size_t crash_restarts = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    PlanSpec spec = GeneratePlan(
        seed % 2 == 0 ? SystemKind::kDepSpace : SystemKind::kExtensibleDepSpace, seed);
    episodes += spec.faults.episodes.size();
    for (const Episode& ep : spec.faults.episodes) {
      if (ep.kind == EpisodeKind::kCrashRestart) {
        ++crash_restarts;
      }
    }
  }
  EXPECT_GT(episodes, 200u);
  EXPECT_GT(crash_restarts, episodes / 8);
}

}  // namespace
}  // namespace edc
