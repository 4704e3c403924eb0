#include "edc/zab/node.h"

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "edc/common/rng.h"
#include "edc/logstore/logstore.h"
#include "edc/sim/cpu.h"
#include "edc/sim/network.h"

namespace edc {
namespace {

std::vector<uint8_t> Txn(const std::string& s) { return std::vector<uint8_t>(s.begin(), s.end()); }
std::string TxnStr(std::span<const uint8_t> b) { return std::string(b.begin(), b.end()); }

// A minimal replica shell: routes packets to the Zab node and records
// deliveries. Snapshots are the concatenation of delivered strings, so state
// transfer is observable.
class TestReplica : public NetworkNode, public ZabCallbacks {
 public:
  TestReplica(EventLoop* loop, Network* net, NodeId id, std::vector<NodeId> members)
      : cpu(loop, 1), log(loop, LogStoreConfig{}) {
    zab = std::make_unique<ZabNode>(loop, net, &cpu, &log, CostModel{}, id, std::move(members),
                                    ZabConfig{}, this);
    net->Register(id, this);
  }

  void HandlePacket(Packet&& pkt) override {
    if (IsZabPacket(pkt.type)) {
      zab->HandlePacket(std::move(pkt));
    }
  }

  void OnDeliver(uint64_t zxid, std::span<const uint8_t> txn) override {
    delivered.push_back(TxnStr(txn));
    delivered_zxids.push_back(zxid);
    state += TxnStr(txn) + ";";
  }

  void OnRoleChange(bool leader, NodeId leader_id, uint32_t epoch) override {
    is_leader = leader;
    known_leader = leader_id;
    last_epoch = epoch;
  }

  std::vector<uint8_t> TakeSnapshot() override { return Txn(state); }

  bool InstallSnapshot(uint64_t zxid, const std::vector<uint8_t>& snap) override {
    if (reject_installs) {
      return false;
    }
    state = TxnStr(snap);
    snapshot_installs++;
    (void)zxid;
    return true;
  }

  void ResetServiceState() {
    state.clear();
    delivered.clear();
    delivered_zxids.clear();
  }

  CpuQueue cpu;
  LogStore log;
  std::unique_ptr<ZabNode> zab;
  std::vector<std::string> delivered;
  std::vector<uint64_t> delivered_zxids;
  std::string state;
  bool is_leader = false;
  NodeId known_leader = 0;
  uint32_t last_epoch = 0;
  int snapshot_installs = 0;
  // Test hook: fail every InstallSnapshot, modeling a joiner that crashes (or
  // receives a torn image) mid-install; the node must re-request transfer.
  bool reject_installs = false;
};

class ZabClusterTest : public ::testing::Test {
 protected:
  void Boot(size_t n) {
    net_ = std::make_unique<Network>(&loop_, Rng(7), LinkParams{});
    std::vector<NodeId> members;
    for (size_t i = 1; i <= n; ++i) {
      members.push_back(static_cast<NodeId>(i));
    }
    for (NodeId id : members) {
      replicas_.push_back(std::make_unique<TestReplica>(&loop_, net_.get(), id, members));
    }
    for (auto& r : replicas_) {
      r->zab->Start();
    }
    loop_.RunUntil(loop_.now() + Seconds(2));
  }

  TestReplica* Leader() {
    for (auto& r : replicas_) {
      if (r->zab->is_leader()) {
        return r.get();
      }
    }
    return nullptr;
  }

  TestReplica* AnyFollower() {
    for (auto& r : replicas_) {
      if (r->zab->running() && !r->zab->is_leader()) {
        return r.get();
      }
    }
    return nullptr;
  }

  void Crash(TestReplica* r, NodeId id) {
    r->zab->Crash();
    net_->SetNodeUp(id, false);
  }

  void Restart(TestReplica* r, NodeId id) {
    net_->SetNodeUp(id, true);
    r->ResetServiceState();
    r->zab->Restart();
  }

  void Settle(Duration d = Seconds(2)) { loop_.RunUntil(loop_.now() + d); }

  EventLoop loop_;
  std::unique_ptr<Network> net_;
  std::vector<std::unique_ptr<TestReplica>> replicas_;
};

TEST_F(ZabClusterTest, ElectsExactlyOneLeader) {
  Boot(3);
  int leaders = 0;
  for (auto& r : replicas_) {
    if (r->zab->is_leader()) {
      ++leaders;
    }
  }
  EXPECT_EQ(leaders, 1);
  // Everyone agrees on who leads.
  NodeId leader_id = Leader()->zab->leader();
  for (auto& r : replicas_) {
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
  TestReplica* leader = Leader();
  ASSERT_NE(leader, nullptr);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(leader->zab->Broadcast(Txn("t" + std::to_string(i))));
  }
  Settle();
  for (auto& r : replicas_) {
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
  TestReplica* follower = AnyFollower();
  ASSERT_NE(follower, nullptr);
  EXPECT_FALSE(follower->zab->Broadcast(Txn("nope")));
}

TEST_F(ZabClusterTest, LeaderCrashTriggersFailoverPreservingCommits) {
  Boot(3);
  TestReplica* old_leader = Leader();
  ASSERT_NE(old_leader, nullptr);
  NodeId old_id = old_leader->zab->leader();
  for (int i = 0; i < 5; ++i) {
    old_leader->zab->Broadcast(Txn("pre" + std::to_string(i)));
  }
  Settle();
  Crash(old_leader, old_id);
  Settle(Seconds(3));
  TestReplica* new_leader = Leader();
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
  TestReplica* leader = Leader();
  TestReplica* follower = AnyFollower();
  ASSERT_NE(follower, nullptr);
  NodeId follower_id = 0;
  for (NodeId id = 1; id <= 3; ++id) {
    if (replicas_[id - 1].get() == follower) {
      follower_id = id;
    }
  }
  Crash(follower, follower_id);
  for (int i = 0; i < 10; ++i) {
    leader->zab->Broadcast(Txn("x" + std::to_string(i)));
  }
  Settle();
  EXPECT_EQ(leader->delivered.size(), 10u);
}

TEST_F(ZabClusterTest, RestartedFollowerCatchesUpViaDiff) {
  Boot(3);
  TestReplica* leader = Leader();
  TestReplica* follower = AnyFollower();
  NodeId follower_id = 0;
  for (NodeId id = 1; id <= 3; ++id) {
    if (replicas_[id - 1].get() == follower) {
      follower_id = id;
    }
  }
  Crash(follower, follower_id);
  for (int i = 0; i < 15; ++i) {
    leader->zab->Broadcast(Txn("d" + std::to_string(i)));
  }
  Settle();
  Restart(follower, follower_id);
  Settle(Seconds(3));
  ASSERT_EQ(follower->delivered.size(), 15u);
  EXPECT_EQ(follower->delivered.front(), "d0");
  EXPECT_EQ(follower->delivered.back(), "d14");
  EXPECT_EQ(follower->snapshot_installs, 0);
}

TEST_F(ZabClusterTest, CompactedLogForcesSnapshotTransfer) {
  Boot(3);
  TestReplica* leader = Leader();
  TestReplica* follower = AnyFollower();
  NodeId follower_id = 0;
  for (NodeId id = 1; id <= 3; ++id) {
    if (replicas_[id - 1].get() == follower) {
      follower_id = id;
    }
  }
  Crash(follower, follower_id);
  for (int i = 0; i < 10; ++i) {
    leader->zab->Broadcast(Txn("s" + std::to_string(i)));
  }
  Settle();
  leader->zab->CompactLog();
  Restart(follower, follower_id);
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
  TestReplica* leader = Leader();
  ASSERT_NE(leader, nullptr);
  NodeId leader_id = leader->zab->leader();
  // Cut the leader off from both followers.
  for (NodeId id = 1; id <= 3; ++id) {
    if (id != leader_id) {
      net_->Disconnect(leader_id, id);
    }
  }
  Settle(Seconds(4));
  // Majority side elected a new leader.
  TestReplica* new_leader = nullptr;
  for (auto& r : replicas_) {
    if (r->zab->is_leader() && r.get() != leader) {
      new_leader = r.get();
    }
  }
  ASSERT_NE(new_leader, nullptr);
  EXPECT_TRUE(new_leader->zab->Broadcast(Txn("majority")));
  // Old leader cannot commit anything on its own.
  leader->zab->Broadcast(Txn("minority"));
  Settle(Seconds(2));
  for (auto& r : replicas_) {
    for (const std::string& d : r->delivered) {
      EXPECT_NE(d, "minority");
    }
  }
  // Heal: old leader rejoins and converges.
  for (NodeId id = 1; id <= 3; ++id) {
    if (id != leader_id) {
      net_->Reconnect(leader_id, id);
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
  TestReplica* leader = Leader();
  ASSERT_NE(leader, nullptr);
  int crashed = 0;
  for (NodeId id = 1; id <= 5 && crashed < 2; ++id) {
    TestReplica* r = replicas_[id - 1].get();
    if (r != leader) {
      Crash(r, id);
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
  TestReplica* leader = Leader();
  for (int i = 0; i < 8; ++i) {
    leader->zab->Broadcast(Txn("r" + std::to_string(i)));
  }
  Settle();
  std::vector<uint64_t> zxids_a = leader->delivered_zxids;
  SimTime end_a = loop_.now();

  // Fresh, identically seeded second run.
  replicas_.clear();
  EventLoop loop2;
  Network net2(&loop2, Rng(7), LinkParams{});
  std::vector<NodeId> members{1, 2, 3};
  std::vector<std::unique_ptr<TestReplica>> reps2;
  for (NodeId id : members) {
    reps2.push_back(std::make_unique<TestReplica>(&loop2, &net2, id, members));
  }
  for (auto& r : reps2) {
    r->zab->Start();
  }
  loop2.RunUntil(loop2.now() + Seconds(2));
  TestReplica* leader2 = nullptr;
  for (auto& r : reps2) {
    if (r->zab->is_leader()) {
      leader2 = r.get();
    }
  }
  ASSERT_NE(leader2, nullptr);
  for (int i = 0; i < 8; ++i) {
    leader2->zab->Broadcast(Txn("r" + std::to_string(i)));
  }
  loop2.RunUntil(loop2.now() + Seconds(2));
  EXPECT_EQ(leader2->delivered_zxids, zxids_a);
  EXPECT_EQ(loop2.now(), end_a);
}

}  // namespace
}  // namespace edc
