// Chaos scenarios for the Zab-replicated ZooKeeper service: primary crashes
// mid-transaction, deterministic re-election, and the safety invariants of
// docs/fault_model.md checked across the whole run.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "edc/harness/invariants.h"
#include "edc/sim/faults.h"
#include "tests/harness/fixture_helpers.h"

namespace edc {
namespace {

ZkOp CreateOp(const std::string& path) {
  ZkOp op;
  op.type = ZkOpType::kCreate;
  op.path = path;
  op.data = "m";
  return op;
}

// Crash the primary at several instants around an in-flight multi: whatever
// the cut point, the surviving ensemble must show all of the multi or none of
// it, and the survivors' applied logs must stay prefix-consistent.
TEST(ZabChaosTest, PrimaryCrashMidMultiNeverHalfApplies) {
  const std::vector<Duration> crash_offsets{Micros(150), Micros(400), Millis(1), Millis(5)};
  for (Duration offset : crash_offsets) {
    CoordFixture cluster(GroupOptions(SystemKind::kZooKeeper, 17));
    cluster.Start();
    // The whole ensemble, a follower first.
    ZkClient* client =
        ConnectZkClient(cluster, ServerList{{1, 2, 3}, ZkFollower(cluster)->id() - 1});
    bool parent = false;
    client->Create("/m", "", false, false,
                   [&](Result<std::string> r) { parent = r.ok(); });
    cluster.Settle(Seconds(1));
    ASSERT_TRUE(parent);

    NodeId leader = ZkLeaderId(cluster);
    ASSERT_NE(leader, 0);
    client->Multi({CreateOp("/m/a"), CreateOp("/m/b"), CreateOp("/m/c")},
                  [](Status) {});
    cluster.loop().Schedule(offset,
                          [&cluster, leader]() { cluster.faults().Crash(leader); });
    cluster.Settle(Seconds(8));  // re-election + client failover

    for (auto& s : cluster.zk_servers) {
      if (!s->running()) {
        continue;
      }
      bool a = s->tree().Exists("/m/a");
      bool b = s->tree().Exists("/m/b");
      bool c = s->tree().Exists("/m/c");
      EXPECT_EQ(a, b) << "half-applied multi on node " << s->id()
                      << " (crash offset " << offset << ")";
      EXPECT_EQ(b, c) << "half-applied multi on node " << s->id()
                      << " (crash offset " << offset << ")";
    }
    std::string why;
    EXPECT_TRUE(PrefixConsistentLogs(cluster.zk_servers, &why)) << why;
    NodeId new_leader = ZkLeaderId(cluster);
    EXPECT_NE(new_leader, 0);
    EXPECT_NE(new_leader, leader);
  }
}

// The acceptance scenario: crash the elected primary under client load,
// restart it, then briefly partition it off and heal. Two runs with one seed
// must produce byte-identical traces; the run must elect a new primary in a
// higher epoch and end with every invariant intact.
TEST(ZabChaosTest, DeterministicPrimaryCrashReelection) {
  struct Outcome {
    uint64_t digest = 0;
    NodeId old_leader = 0;
    NodeId new_leader = 0;
    uint32_t old_epoch = 0;
    uint32_t new_epoch = 0;
    bool single_primary = false;
    bool prefix_consistent = false;
    std::vector<std::string> trace;
  };
  auto run = [](uint64_t seed) {
    Outcome out;
    CoordFixture cluster(GroupOptions(SystemKind::kZooKeeper, seed));
    cluster.faults().EnablePacketTrace();
    cluster.Start();
    // The whole ensemble, a follower first.
    ZkClient* client =
        ConnectZkClient(cluster, ServerList{{1, 2, 3}, ZkFollower(cluster)->id() - 1});

    out.old_leader = ZkLeaderId(cluster);
    EXPECT_NE(out.old_leader, 0);
    out.old_epoch = cluster.zk_servers[out.old_leader - 1]->zab().epoch();

    InvariantMonitor monitor(&cluster.loop(), &cluster.zk_servers);
    monitor.Start();
    FaultPlan plan;
    plan.episodes.push_back({.kind = EpisodeKind::kCrashRestart,
                             .start = Millis(300),
                             .duration = Millis(3700),
                             .node = out.old_leader});
    plan.episodes.push_back({.kind = EpisodeKind::kPartition,
                             .start = Seconds(6),
                             .duration = Seconds(1),
                             .group_a = {out.old_leader},
                             .group_b = {out.old_leader % 3 + 1,
                                         (out.old_leader + 1) % 3 + 1}});
    cluster.faults().Run(plan);
    for (int i = 0; i < 12; ++i) {
      cluster.loop().Schedule(Millis(250) * i, [client, i]() {
        client->Create("/chaos/" + std::to_string(i), "x", false, false,
                       [](Result<std::string>) {});
      });
    }
    cluster.Settle(Seconds(10));
    monitor.Stop();

    out.new_leader = ZkLeaderId(cluster);
    if (out.new_leader != 0) {
      out.new_epoch = cluster.zk_servers[out.new_leader - 1]->zab().epoch();
    }
    out.single_primary = monitor.ok();
    std::string why;
    out.prefix_consistent = PrefixConsistentLogs(cluster.zk_servers, &why);
    EXPECT_TRUE(out.prefix_consistent) << why;
    out.digest = cluster.faults().TraceDigest();
    out.trace = cluster.faults().trace();
    return out;
  };

  Outcome a = run(33);
  Outcome b = run(33);
  EXPECT_EQ(a.digest, b.digest) << "same-seed chaos runs diverged";
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_NE(a.new_leader, 0) << "no primary after crash";
  EXPECT_NE(a.new_leader, a.old_leader);
  EXPECT_EQ(a.new_leader, b.new_leader);
  EXPECT_GT(a.new_epoch, a.old_epoch) << "re-election must advance the epoch";
  EXPECT_TRUE(a.single_primary);
  EXPECT_TRUE(a.prefix_consistent);

  Outcome c = run(34);
  EXPECT_NE(c.digest, a.digest) << "different seeds should not replay the same run";
}

}  // namespace
}  // namespace edc
