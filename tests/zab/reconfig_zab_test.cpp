// Dynamic membership at the Zab layer (docs/reconfig.md): observer tier,
// single-change reconfiguration through the replicated log, snapshot-shipped
// catch-up for joiners behind the log floor, promotion gating, leader
// self-removal, and determinism of the whole flow.

#include "edc/zab/node.h"

#include <gtest/gtest.h>

#include <algorithm>
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

class Replica : public NetworkNode, public ZabCallbacks {
 public:
  Replica(EventLoop* loop, Network* net, NodeId id, std::vector<NodeId> members,
          const ZabConfig& cfg)
      : id(id), cpu(loop, 1), log(loop, LogStoreConfig{}) {
    zab = std::make_unique<ZabNode>(loop, net, &cpu, &log, CostModel{}, id, std::move(members),
                                    cfg, this);
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

  void OnRoleChange(bool leader, NodeId, uint32_t) override { is_leader = leader; }

  void OnMembershipChange(uint64_t zxid, const ZabMembership& m) override {
    membership_changes.push_back({zxid, m});
  }

  std::vector<uint8_t> TakeSnapshot() override { return Txn(state); }

  bool InstallSnapshot(uint64_t zxid, const std::vector<uint8_t>& snap) override {
    if (reject_installs) {
      return false;
    }
    state = TxnStr(snap);
    last_install_zxid = zxid;
    snapshot_installs++;
    return true;
  }

  void ResetServiceState() {
    state.clear();
    delivered.clear();
    delivered_zxids.clear();
  }

  NodeId id;
  CpuQueue cpu;
  LogStore log;
  std::unique_ptr<ZabNode> zab;
  std::vector<std::string> delivered;
  std::vector<uint64_t> delivered_zxids;
  std::vector<std::pair<uint64_t, ZabMembership>> membership_changes;
  std::string state;
  bool is_leader = false;
  int snapshot_installs = 0;
  uint64_t last_install_zxid = 0;
  // Fail every install, modeling a torn image / crash mid-install; the node
  // must re-request state transfer and succeed once the flag clears.
  bool reject_installs = false;
};

class ReconfigZabTest : public ::testing::Test {
 protected:
  void Boot(size_t n, uint64_t seed = 11) {
    net_ = std::make_unique<Network>(&loop_, Rng(seed), LinkParams{});
    std::vector<NodeId> members;
    for (size_t i = 1; i <= n; ++i) {
      members.push_back(static_cast<NodeId>(i));
    }
    for (NodeId id : members) {
      replicas_.push_back(std::make_unique<Replica>(&loop_, net_.get(), id, members, base_));
    }
    for (auto& r : replicas_) {
      r->zab->Start();
    }
    Settle(Seconds(2));
  }

  // Boots a fresh node whose contact list is the current voter set. With
  // `observer` it joins as a learner; pair with ProposeAddObserver.
  Replica* AddNode(NodeId id, bool observer) {
    ZabConfig cfg = base_;
    cfg.observer = observer;
    replicas_.push_back(std::make_unique<Replica>(&loop_, net_.get(), id,
                                                  Leader()->zab->membership().voters, cfg));
    Replica* raw = replicas_.back().get();
    raw->zab->Start();
    return raw;
  }

  Replica* Leader() {
    for (auto& r : replicas_) {
      if (r->zab->is_leader()) {
        return r.get();
      }
    }
    return nullptr;
  }

  Replica* ById(NodeId id) {
    for (auto& r : replicas_) {
      if (r->id == id) {
        return r.get();
      }
    }
    return nullptr;
  }

  Status ProposeAddObserver(NodeId id) {
    ZabMembership next = Leader()->zab->membership();
    next.observers.push_back(id);
    return Leader()->zab->ProposeReconfig(std::move(next));
  }

  Status ProposePromote(NodeId id) {
    ZabMembership next = Leader()->zab->membership();
    next.observers.erase(std::remove(next.observers.begin(), next.observers.end(), id),
                         next.observers.end());
    next.voters.push_back(id);
    return Leader()->zab->ProposeReconfig(std::move(next));
  }

  Status ProposeRemove(NodeId id) {
    ZabMembership next = Leader()->zab->membership();
    next.voters.erase(std::remove(next.voters.begin(), next.voters.end(), id),
                      next.voters.end());
    next.observers.erase(std::remove(next.observers.begin(), next.observers.end(), id),
                         next.observers.end());
    return Leader()->zab->ProposeReconfig(std::move(next));
  }

  void Crash(Replica* r) {
    r->zab->Crash();
    net_->SetNodeUp(r->id, false);
  }

  void Restart(Replica* r) {
    net_->SetNodeUp(r->id, true);
    r->ResetServiceState();
    r->zab->Restart();
  }

  void Settle(Duration d = Seconds(2)) { loop_.RunUntil(loop_.now() + d); }

  EventLoop loop_;
  ZabConfig base_;
  std::unique_ptr<Network> net_;
  std::vector<std::unique_ptr<Replica>> replicas_;
};

TEST_F(ReconfigZabTest, AddObserverReceivesCommitStreamWithoutVoting) {
  Boot(3);
  Replica* leader = Leader();
  ASSERT_NE(leader, nullptr);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(leader->zab->Broadcast(Txn("pre" + std::to_string(i))));
  }
  Settle();

  ASSERT_TRUE(ProposeAddObserver(4).ok());
  Replica* obs = AddNode(4, /*observer=*/true);
  Settle();

  // The reconfig activated everywhere; 4 is an observer, not a voter.
  for (auto& r : replicas_) {
    if (r->zab->running()) {
      EXPECT_TRUE(r->zab->membership().IsObserver(4)) << "node " << r->id;
      EXPECT_FALSE(r->zab->membership().IsVoter(4)) << "node " << r->id;
    }
  }
  EXPECT_FALSE(obs->zab->is_voter());

  // New commits reach the observer in order.
  leader = Leader();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(leader->zab->Broadcast(Txn("post" + std::to_string(i))));
  }
  Settle();
  EXPECT_EQ(obs->state, leader->state);
  ASSERT_GE(obs->delivered.size(), 5u);
  EXPECT_EQ(obs->delivered.back(), "post4");
}

TEST_F(ReconfigZabTest, ObserverNeverCountsTowardQuorum) {
  Boot(3);
  ASSERT_TRUE(ProposeAddObserver(4).ok());
  AddNode(4, true);
  Settle();

  // Take down two voters: one voter + one observer is not a quorum of the
  // three-voter configuration, so nothing may commit.
  Replica* leader = Leader();
  ASSERT_NE(leader, nullptr);
  std::vector<Replica*> downed;
  for (auto& r : replicas_) {
    if (r->id != leader->id && r->zab->membership().IsVoter(r->id) && downed.size() < 2) {
      downed.push_back(r.get());
    }
  }
  ASSERT_EQ(downed.size(), 2u);
  size_t before = leader->delivered.size();
  for (Replica* r : downed) {
    Crash(r);
  }
  leader->zab->Broadcast(Txn("stuck"));
  Settle(Seconds(1));
  EXPECT_EQ(leader->delivered.size(), before) << "committed without a voter quorum";

  // Quorum restored => the pipeline resumes and the cluster is healthy.
  for (Replica* r : downed) {
    Restart(r);
  }
  Settle(Seconds(3));
  Replica* healed = Leader();
  ASSERT_NE(healed, nullptr);
  ASSERT_TRUE(healed->zab->Broadcast(Txn("after")));
  Settle();
  ASSERT_FALSE(healed->delivered.empty());
  EXPECT_EQ(healed->delivered.back(), "after");
}

TEST_F(ReconfigZabTest, PromotedObserverVotesInQuorum) {
  Boot(3);
  ASSERT_TRUE(ProposeAddObserver(4).ok());
  Replica* obs = AddNode(4, true);
  Settle();

  ASSERT_TRUE(ProposePromote(4).ok());
  Settle();
  for (auto& r : replicas_) {
    EXPECT_TRUE(r->zab->membership().IsVoter(4)) << "node " << r->id;
  }
  EXPECT_TRUE(obs->zab->is_voter());

  // Four voters, quorum 3: with one old voter down, commits need the promoted
  // node's ack — if it weren't a real voter this would stall.
  Replica* leader = Leader();
  Replica* victim = nullptr;
  for (auto& r : replicas_) {
    if (r->id != leader->id && r->id != 4 && r->zab->membership().IsVoter(r->id)) {
      victim = r.get();
      break;
    }
  }
  ASSERT_NE(victim, nullptr);
  Crash(victim);
  ASSERT_TRUE(leader->zab->Broadcast(Txn("needs4")));
  Settle();
  EXPECT_EQ(leader->delivered.back(), "needs4");
  EXPECT_EQ(obs->delivered.back(), "needs4");
}

TEST_F(ReconfigZabTest, PromotionGatedOnCatchUpLag) {
  base_.promote_lag = 4;
  Boot(3);
  Replica* leader = Leader();
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(leader->zab->Broadcast(Txn("w" + std::to_string(i))));
  }
  Settle();

  // Candidate never acked anything this term (it is not even booted):
  // promoting it must be rejected, not stall future quorums.
  ASSERT_TRUE(ProposeAddObserver(4).ok());
  Settle();
  ZabMembership next = leader->zab->membership();
  next.observers.clear();
  next.voters.push_back(4);
  Status gated = leader->zab->ProposeReconfig(next);
  EXPECT_EQ(gated.code(), ErrorCode::kNotReady) << gated.message();

  // Once the observer is up and caught up, the same promotion is accepted.
  AddNode(4, true);
  Settle();
  EXPECT_TRUE(ProposePromote(4).ok());
  Settle();
  EXPECT_TRUE(Leader()->zab->membership().IsVoter(4));
}

TEST_F(ReconfigZabTest, SingleChangeRuleEnforced) {
  Boot(3);
  Replica* leader = Leader();
  // Two changes at once (add 4 and 5) is rejected.
  ZabMembership next = leader->zab->membership();
  next.observers.push_back(4);
  next.observers.push_back(5);
  EXPECT_EQ(leader->zab->ProposeReconfig(next).code(), ErrorCode::kInvalidArgument);
  // Removing the last voter can never be expressed as a valid single change
  // from {1,2,3}, but an empty voter set is rejected outright.
  ZabMembership empty;
  EXPECT_EQ(leader->zab->ProposeReconfig(empty).code(), ErrorCode::kInvalidArgument);
  // A second reconfig while one is in flight is rejected with kNotReady.
  ZabMembership add4 = leader->zab->membership();
  add4.observers.push_back(4);
  ASSERT_TRUE(leader->zab->ProposeReconfig(add4).ok());
  ZabMembership add5 = leader->zab->membership();
  add5.observers.push_back(5);
  EXPECT_EQ(leader->zab->ProposeReconfig(add5).code(), ErrorCode::kNotReady);
}

TEST_F(ReconfigZabTest, JoinerBehindLogFloorCatchesUpViaSnapshot) {
  Boot(3);
  Replica* leader = Leader();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(leader->zab->Broadcast(Txn("t" + std::to_string(i))));
  }
  Settle();
  leader->zab->CompactLog();  // joiner's zxid 0 now predates the log floor

  ASSERT_TRUE(ProposeAddObserver(4).ok());
  Replica* joiner = AddNode(4, true);
  Settle();

  EXPECT_GE(joiner->snapshot_installs, 1) << "expected the SNAP path";
  EXPECT_EQ(joiner->state, leader->state);

  // Log suffix after the snapshot still replays incrementally.
  ASSERT_TRUE(Leader()->zab->Broadcast(Txn("tail")));
  Settle();
  EXPECT_EQ(joiner->state, Leader()->state);
}

TEST_F(ReconfigZabTest, RejectedInstallRetriesUntilItSucceeds) {
  Boot(3);
  Replica* leader = Leader();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(leader->zab->Broadcast(Txn("t" + std::to_string(i))));
  }
  Settle();
  leader->zab->CompactLog();

  ASSERT_TRUE(ProposeAddObserver(4).ok());
  Replica* joiner = AddNode(4, true);
  joiner->reject_installs = true;  // torn image / crash mid-install
  Settle(Seconds(1));
  EXPECT_EQ(joiner->snapshot_installs, 0);
  EXPECT_NE(joiner->state, leader->state);

  joiner->reject_installs = false;  // next re-fetch succeeds
  Settle(Seconds(3));
  EXPECT_GE(joiner->snapshot_installs, 1);
  EXPECT_EQ(joiner->state, Leader()->state);
}

TEST_F(ReconfigZabTest, SnapshotInstalledJoinerSurvivesItsOwnCrash) {
  Boot(3);
  Replica* leader = Leader();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(leader->zab->Broadcast(Txn("t" + std::to_string(i))));
  }
  Settle();
  leader->zab->CompactLog();

  ASSERT_TRUE(ProposeAddObserver(4).ok());
  Replica* joiner = AddNode(4, true);
  Settle();
  ASSERT_EQ(joiner->state, leader->state);
  ASSERT_TRUE(joiner->log.has_snapshot()) << "installed image must be durable";

  // The joiner reboots: the durable snapshot blob (not the leader) is the
  // recovery source for the compacted prefix.
  Crash(joiner);
  Restart(joiner);
  Settle();
  EXPECT_EQ(joiner->state, Leader()->state);
  EXPECT_TRUE(joiner->zab->membership().IsObserver(4))
      << "membership must be recovered from the snapshot + log tail";
}

TEST_F(ReconfigZabTest, RemoveFollowerShrinksQuorum) {
  Boot(3);
  Replica* leader = Leader();
  Replica* gone = nullptr;
  for (auto& r : replicas_) {
    if (r->id != leader->id) {
      gone = r.get();
      break;
    }
  }
  ASSERT_TRUE(ProposeRemove(gone->id).ok());
  Settle();

  EXPECT_FALSE(gone->zab->running()) << "removed replica must retire";
  for (auto& r : replicas_) {
    if (r->zab->running()) {
      EXPECT_FALSE(r->zab->membership().Contains(gone->id));
      EXPECT_EQ(r->zab->membership().voters.size(), 2u);
    }
  }
  // Quorum is now 2 of 2 — commits proceed without the removed node.
  ASSERT_TRUE(Leader()->zab->Broadcast(Txn("smaller")));
  Settle();
  EXPECT_EQ(Leader()->delivered.back(), "smaller");
}

TEST_F(ReconfigZabTest, RemoveLeaderStepsDownAndClusterReelects) {
  Boot(3);
  Replica* old_leader = Leader();
  ASSERT_NE(old_leader, nullptr);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(old_leader->zab->Broadcast(Txn("pre" + std::to_string(i))));
  }
  Settle();
  std::vector<std::string> committed = old_leader->delivered;

  ASSERT_TRUE(ProposeRemove(old_leader->id).ok());
  Settle(Seconds(4));  // activation + step-down + re-election

  EXPECT_FALSE(old_leader->zab->running()) << "removed leader must retire";
  Replica* new_leader = Leader();
  ASSERT_NE(new_leader, nullptr);
  EXPECT_NE(new_leader->id, old_leader->id);
  EXPECT_FALSE(new_leader->zab->membership().Contains(old_leader->id));

  // No committed write may be lost across the hand-off.
  ASSERT_GE(new_leader->delivered.size(), committed.size());
  for (size_t i = 0; i < committed.size(); ++i) {
    EXPECT_EQ(new_leader->delivered[i], committed[i]);
  }
  ASSERT_TRUE(new_leader->zab->Broadcast(Txn("after-removal")));
  Settle();
  EXPECT_EQ(new_leader->delivered.back(), "after-removal");
}

TEST_F(ReconfigZabTest, AutoCompactionKeepsJoinPathWorking) {
  base_.snapshot_every = 8;
  Boot(3);
  Replica* leader = Leader();
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(leader->zab->Broadcast(Txn("t" + std::to_string(i))));
  }
  Settle();
  // Every replica compacted on its own; a fresh joiner needs the SNAP path.
  ASSERT_TRUE(ProposeAddObserver(4).ok());
  Replica* joiner = AddNode(4, true);
  Settle();
  EXPECT_GE(joiner->snapshot_installs, 1);
  EXPECT_EQ(joiner->state, Leader()->state);
}

// The full join + promote + remove-leader flow is deterministic: two runs
// with identical seeds produce identical states, zxids and memberships.
TEST(ReconfigZabDeterminism, SameSeedSameOutcome) {
  auto run = [](uint64_t seed) {
    EventLoop loop;
    auto net = std::make_unique<Network>(&loop, Rng(seed), LinkParams{});
    ZabConfig base;
    std::vector<NodeId> members = {1, 2, 3};
    std::vector<std::unique_ptr<Replica>> replicas;
    for (NodeId id : members) {
      replicas.push_back(std::make_unique<Replica>(&loop, net.get(), id, members, base));
    }
    for (auto& r : replicas) {
      r->zab->Start();
    }
    auto settle = [&](Duration d) { loop.RunUntil(loop.now() + d); };
    auto leader = [&]() -> Replica* {
      for (auto& r : replicas) {
        if (r->zab->is_leader()) {
          return r.get();
        }
      }
      return nullptr;
    };
    settle(Seconds(2));
    for (int i = 0; i < 10; ++i) {
      leader()->zab->Broadcast(Txn("w" + std::to_string(i)));
    }
    settle(Seconds(1));
    ZabMembership add = leader()->zab->membership();
    add.observers.push_back(4);
    leader()->zab->ProposeReconfig(add);
    ZabConfig joiner_cfg = base;
    joiner_cfg.observer = true;
    replicas.push_back(std::make_unique<Replica>(&loop, net.get(), 4,
                                                 leader()->zab->membership().voters, joiner_cfg));
    replicas.back()->zab->Start();
    settle(Seconds(2));
    ZabMembership promote = leader()->zab->membership();
    promote.observers.clear();
    promote.voters.push_back(4);
    leader()->zab->ProposeReconfig(promote);
    settle(Seconds(2));
    NodeId removed = leader()->id;
    ZabMembership drop = leader()->zab->membership();
    drop.voters.erase(std::remove(drop.voters.begin(), drop.voters.end(), removed),
                      drop.voters.end());
    leader()->zab->ProposeReconfig(drop);
    settle(Seconds(4));
    leader()->zab->Broadcast(Txn("final"));
    settle(Seconds(2));
    std::string digest;
    for (auto& r : replicas) {
      digest += std::to_string(r->id) + "=" + r->state + "|running=" +
                (r->zab->running() ? "1" : "0") + "|";
      for (uint64_t z : r->delivered_zxids) {
        digest += std::to_string(z) + ",";
      }
      digest += "#";
    }
    return digest;
  };
  std::string a = run(42);
  std::string b = run(42);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("final"), std::string::npos) << "flow did not complete:\n" << a;
}

}  // namespace
}  // namespace edc
