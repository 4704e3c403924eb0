// Membership-episode schedule sweeps (docs/reconfig.md): 200 distinct seeded
// schedules drawn from the reconfig grammar — the base fault episodes plus
// join / remove-follower / remove-leader / observer-promote episodes executed
// live against the fixture — each checked post-drain for model conformance,
// prefix-consistent logs and membership agreement. Eight shards of 25 so
// ctest -j parallelizes the sweep.

#include <gtest/gtest.h>

#include <string>

#include "edc/check/explorer.h"

namespace edc {
namespace {

void RunReconfigSeeds(uint64_t lo, uint64_t hi) {
  for (uint64_t seed = lo; seed < hi; ++seed) {
    ExplorerOptions options;
    // Alternate plain/extensible, and alternate compaction so both the
    // full-log-replay and the snapshot-ship catch-up paths are swept.
    options.system =
        seed % 2 == 0 ? SystemKind::kZooKeeper : SystemKind::kExtensibleZooKeeper;
    options.seed = seed;
    options.ops_per_client = 16;
    if (seed % 3 == 0) {
      options.zk_server.zab.snapshot_every = 10;
    }
    PlanSpec plan = GenerateReconfigPlan(options.system, options.seed);
    ScheduleResult result = RunSchedule(options, plan);
    std::string violations;
    for (const std::string& v : result.violations) {
      violations += "  " + v + "\n";
    }
    EXPECT_TRUE(result.passed) << "seed " << seed << " violations:\n"
                               << violations << "plan:\n"
                               << result.plan.ToString();
    EXPECT_GT(result.num_calls, 20u) << "seed " << seed;
    EXPECT_GT(result.num_commits, 5u) << "seed " << seed;
  }
}

TEST(ReconfigScheduleSweep, Seeds001To025) { RunReconfigSeeds(1, 26); }
TEST(ReconfigScheduleSweep, Seeds026To050) { RunReconfigSeeds(26, 51); }
TEST(ReconfigScheduleSweep, Seeds051To075) { RunReconfigSeeds(51, 76); }
TEST(ReconfigScheduleSweep, Seeds076To100) { RunReconfigSeeds(76, 101); }
TEST(ReconfigScheduleSweep, Seeds101To125) { RunReconfigSeeds(101, 126); }
TEST(ReconfigScheduleSweep, Seeds126To150) { RunReconfigSeeds(126, 151); }
TEST(ReconfigScheduleSweep, Seeds151To175) { RunReconfigSeeds(151, 176); }
TEST(ReconfigScheduleSweep, Seeds176To200) { RunReconfigSeeds(176, 201); }

// The grammar actually draws membership episodes: across the sweep's seeds
// every membership kind appears at least once.
TEST(ReconfigScheduleSweep, GrammarCoversEveryMembershipKind) {
  bool join = false, remove_follower = false, remove_leader = false, promote = false;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    PlanSpec plan = GenerateReconfigPlan(SystemKind::kZooKeeper, seed);
    for (const MembershipEpisode& ep : plan.membership) {
      join = join || ep.kind == MembershipKind::kJoin;
      remove_follower = remove_follower || ep.kind == MembershipKind::kRemoveFollower;
      remove_leader = remove_leader || ep.kind == MembershipKind::kRemoveLeader;
      promote = promote || ep.kind == MembershipKind::kObserverPromote;
    }
  }
  EXPECT_TRUE(join);
  EXPECT_TRUE(remove_follower);
  EXPECT_TRUE(remove_leader);
  EXPECT_TRUE(promote);
}

// Same seed, same plan, same outcome: the membership-episode path preserves
// the explorer's replayability guarantee.
TEST(ReconfigScheduleSweep, SameSeedSameSchedule) {
  ExplorerOptions options;
  options.system = SystemKind::kZooKeeper;
  options.seed = 17;
  options.zk_server.zab.snapshot_every = 10;
  PlanSpec plan_a = GenerateReconfigPlan(options.system, options.seed);
  PlanSpec plan_b = GenerateReconfigPlan(options.system, options.seed);
  EXPECT_EQ(plan_a.ToString(), plan_b.ToString());
  ScheduleResult a = RunSchedule(options, plan_a);
  ScheduleResult b = RunSchedule(options, plan_b);
  EXPECT_EQ(a.passed, b.passed);
  EXPECT_EQ(a.num_calls, b.num_calls);
  EXPECT_EQ(a.num_responses, b.num_responses);
  EXPECT_EQ(a.num_commits, b.num_commits);
}

}  // namespace
}  // namespace edc
