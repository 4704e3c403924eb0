#include "edc/zab/node.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tests/zab/zab_cluster.h"

namespace edc {
namespace {

class ZabClusterTest : public ::testing::Test, protected ZabCluster {
 protected:
  void Boot(size_t n) { ZabCluster::Boot(n, /*seed=*/7); }
};

TEST_F(ZabClusterTest, ElectsExactlyOneLeader) {
  Boot(3);
  int leaders = 0;
  for (auto& r : replicas()) {
    if (r->zab->is_leader()) {
      ++leaders;
    }
  }
  EXPECT_EQ(leaders, 1);
  // Everyone agrees on who leads.
  NodeId leader_id = Leader()->zab->leader();
  for (auto& r : replicas()) {
    EXPECT_EQ(r->zab->leader(), leader_id);
  }
}

TEST_F(ZabClusterTest, SingleNodeEnsembleLeadsItself) {
  Boot(1);
  ASSERT_NE(Leader(), nullptr);
  EXPECT_TRUE(Leader()->zab->Broadcast(Txn("solo")));
  Settle(Millis(500));
  EXPECT_EQ(Leader()->delivered, (std::vector<std::string>{"solo"}));
}

TEST_F(ZabClusterTest, BroadcastDeliversEverywhereInOrder) {
  Boot(3);
  ZabReplica* leader = Leader();
  ASSERT_NE(leader, nullptr);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(leader->zab->Broadcast(Txn("t" + std::to_string(i))));
  }
  Settle();
  for (auto& r : replicas()) {
    ASSERT_EQ(r->delivered.size(), 20u) << "replica missing deliveries";
    for (int i = 0; i < 20; ++i) {
      EXPECT_EQ(r->delivered[static_cast<size_t>(i)], "t" + std::to_string(i));
    }
    // zxids strictly increase.
    for (size_t i = 1; i < r->delivered_zxids.size(); ++i) {
      EXPECT_LT(r->delivered_zxids[i - 1], r->delivered_zxids[i]);
    }
  }
}

TEST_F(ZabClusterTest, NonLeaderCannotBroadcast) {
  Boot(3);
  ZabReplica* follower = AnyFollower();
  ASSERT_NE(follower, nullptr);
  EXPECT_FALSE(follower->zab->Broadcast(Txn("nope")));
}

TEST_F(ZabClusterTest, LeaderCrashTriggersFailoverPreservingCommits) {
  Boot(3);
  ZabReplica* old_leader = Leader();
  ASSERT_NE(old_leader, nullptr);
  for (int i = 0; i < 5; ++i) {
    old_leader->zab->Broadcast(Txn("pre" + std::to_string(i)));
  }
  Settle();
  Crash(old_leader);
  Settle(Seconds(3));
  ZabReplica* new_leader = Leader();
  ASSERT_NE(new_leader, nullptr);
  EXPECT_NE(new_leader, old_leader);
  // Committed entries survive.
  ASSERT_GE(new_leader->delivered.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(new_leader->delivered[static_cast<size_t>(i)], "pre" + std::to_string(i));
  }
  // New leader can commit with the remaining quorum.
  EXPECT_TRUE(new_leader->zab->Broadcast(Txn("post")));
  Settle();
  EXPECT_EQ(new_leader->delivered.back(), "post");
  EXPECT_GT(new_leader->zab->epoch(), 0u);
}

TEST_F(ZabClusterTest, FollowerCrashDoesNotBlockCommits) {
  Boot(3);
  ZabReplica* leader = Leader();
  ZabReplica* follower = AnyFollower();
  ASSERT_NE(follower, nullptr);
  Crash(follower);
  for (int i = 0; i < 10; ++i) {
    leader->zab->Broadcast(Txn("x" + std::to_string(i)));
  }
  Settle();
  EXPECT_EQ(leader->delivered.size(), 10u);
}

TEST_F(ZabClusterTest, RestartedFollowerCatchesUpViaDiff) {
  Boot(3);
  ZabReplica* leader = Leader();
  ZabReplica* follower = AnyFollower();
  Crash(follower);
  for (int i = 0; i < 15; ++i) {
    leader->zab->Broadcast(Txn("d" + std::to_string(i)));
  }
  Settle();
  Restart(follower);
  Settle(Seconds(3));
  ASSERT_EQ(follower->delivered.size(), 15u);
  EXPECT_EQ(follower->delivered.front(), "d0");
  EXPECT_EQ(follower->delivered.back(), "d14");
  EXPECT_EQ(follower->snapshot_installs, 0);
}

TEST_F(ZabClusterTest, CompactedLogForcesSnapshotTransfer) {
  Boot(3);
  ZabReplica* leader = Leader();
  ZabReplica* follower = AnyFollower();
  Crash(follower);
  for (int i = 0; i < 10; ++i) {
    leader->zab->Broadcast(Txn("s" + std::to_string(i)));
  }
  Settle();
  leader->zab->CompactLog();
  Restart(follower);
  Settle(Seconds(3));
  EXPECT_GE(follower->snapshot_installs, 1);
  // Snapshot carried the pre-compaction state.
  EXPECT_NE(follower->state.find("s9"), std::string::npos);
  // And the follower keeps up with post-restart broadcasts.
  leader->zab->Broadcast(Txn("after"));
  Settle();
  EXPECT_NE(follower->state.find("after"), std::string::npos);
}

TEST_F(ZabClusterTest, MinorityPartitionedLeaderStepsDown) {
  Boot(3);
  ZabReplica* leader = Leader();
  ASSERT_NE(leader, nullptr);
  NodeId leader_id = leader->zab->leader();
  // Cut the leader off from both followers.
  for (NodeId id = 1; id <= 3; ++id) {
    if (id != leader_id) {
      net().Disconnect(leader_id, id);
    }
  }
  Settle(Seconds(4));
  // Majority side elected a new leader.
  ZabReplica* new_leader = nullptr;
  for (auto& r : replicas()) {
    if (r->zab->is_leader() && r.get() != leader) {
      new_leader = r.get();
    }
  }
  ASSERT_NE(new_leader, nullptr);
  EXPECT_TRUE(new_leader->zab->Broadcast(Txn("majority")));
  // Old leader cannot commit anything on its own.
  leader->zab->Broadcast(Txn("minority"));
  Settle(Seconds(2));
  for (auto& r : replicas()) {
    for (const std::string& d : r->delivered) {
      EXPECT_NE(d, "minority");
    }
  }
  // Heal: old leader rejoins and converges.
  for (NodeId id = 1; id <= 3; ++id) {
    if (id != leader_id) {
      net().Reconnect(leader_id, id);
    }
  }
  Settle(Seconds(4));
  EXPECT_EQ(leader->zab->leader(), new_leader->zab->leader());
  bool saw_majority = false;
  for (const std::string& d : leader->delivered) {
    saw_majority = saw_majority || d == "majority";
  }
  EXPECT_TRUE(saw_majority);
}

TEST_F(ZabClusterTest, FiveNodeEnsembleToleratesTwoCrashes) {
  Boot(5);
  ZabReplica* leader = Leader();
  ASSERT_NE(leader, nullptr);
  int crashed = 0;
  for (NodeId id = 1; id <= 5 && crashed < 2; ++id) {
    ZabReplica* r = replicas()[id - 1].get();
    if (r != leader) {
      Crash(r);
      ++crashed;
    }
  }
  for (int i = 0; i < 5; ++i) {
    leader->zab->Broadcast(Txn("f" + std::to_string(i)));
  }
  Settle();
  EXPECT_EQ(leader->delivered.size(), 5u);
}

TEST_F(ZabClusterTest, DeterministicAcrossIdenticalRuns) {
  Boot(3);
  ZabReplica* leader = Leader();
  for (int i = 0; i < 8; ++i) {
    leader->zab->Broadcast(Txn("r" + std::to_string(i)));
  }
  Settle();
  std::vector<uint64_t> zxids_a = leader->delivered_zxids;
  SimTime end_a = loop().now();

  // Fresh, identically seeded second run.
  ZabCluster second;
  second.Boot(3, /*seed=*/7);
  ZabReplica* leader2 = second.Leader();
  ASSERT_NE(leader2, nullptr);
  for (int i = 0; i < 8; ++i) {
    leader2->zab->Broadcast(Txn("r" + std::to_string(i)));
  }
  second.Settle();
  EXPECT_EQ(leader2->delivered_zxids, zxids_a);
  EXPECT_EQ(second.loop().now(), end_a);
}

}  // namespace
}  // namespace edc
