// Dynamic membership at the Zab layer (docs/reconfig.md): observer tier,
// single-change reconfiguration through the replicated log, snapshot-shipped
// catch-up for joiners behind the log floor, promotion gating, leader
// self-removal, and determinism of the whole flow.

#include "edc/zab/node.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "tests/zab/zab_cluster.h"

namespace edc {
namespace {

class ReconfigZabTest : public ::testing::Test, protected ZabCluster {
 protected:
  void Boot(size_t n) { ZabCluster::Boot(n, /*seed=*/11, base_); }

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

  ZabConfig base_;
};

TEST_F(ReconfigZabTest, AddObserverReceivesCommitStreamWithoutVoting) {
  Boot(3);
  ZabReplica* leader = Leader();
  ASSERT_NE(leader, nullptr);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(leader->zab->Broadcast(Txn("pre" + std::to_string(i))));
  }
  Settle();

  ASSERT_TRUE(ProposeAddObserver(4).ok());
  ZabReplica* obs = AddNode(4, /*observer=*/true);
  Settle();

  // The reconfig activated everywhere; 4 is an observer, not a voter.
  for (auto& r : replicas()) {
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
  ZabReplica* leader = Leader();
  ASSERT_NE(leader, nullptr);
  std::vector<ZabReplica*> downed;
  for (auto& r : replicas()) {
    if (r->id != leader->id && r->zab->membership().IsVoter(r->id) && downed.size() < 2) {
      downed.push_back(r.get());
    }
  }
  ASSERT_EQ(downed.size(), 2u);
  size_t before = leader->delivered.size();
  for (ZabReplica* r : downed) {
    Crash(r);
  }
  leader->zab->Broadcast(Txn("stuck"));
  Settle(Seconds(1));
  EXPECT_EQ(leader->delivered.size(), before) << "committed without a voter quorum";

  // Quorum restored => the pipeline resumes and the cluster is healthy.
  for (ZabReplica* r : downed) {
    Restart(r);
  }
  Settle(Seconds(3));
  ZabReplica* healed = Leader();
  ASSERT_NE(healed, nullptr);
  ASSERT_TRUE(healed->zab->Broadcast(Txn("after")));
  Settle();
  ASSERT_FALSE(healed->delivered.empty());
  EXPECT_EQ(healed->delivered.back(), "after");
}

TEST_F(ReconfigZabTest, PromotedObserverVotesInQuorum) {
  Boot(3);
  ASSERT_TRUE(ProposeAddObserver(4).ok());
  ZabReplica* obs = AddNode(4, true);
  Settle();

  ASSERT_TRUE(ProposePromote(4).ok());
  Settle();
  for (auto& r : replicas()) {
    EXPECT_TRUE(r->zab->membership().IsVoter(4)) << "node " << r->id;
  }
  EXPECT_TRUE(obs->zab->is_voter());

  // Four voters, quorum 3: with one old voter down, commits need the promoted
  // node's ack — if it weren't a real voter this would stall.
  ZabReplica* leader = Leader();
  ZabReplica* victim = nullptr;
  for (auto& r : replicas()) {
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
  ZabReplica* leader = Leader();
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
  ZabReplica* leader = Leader();
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
  ZabReplica* leader = Leader();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(leader->zab->Broadcast(Txn("t" + std::to_string(i))));
  }
  Settle();
  leader->zab->CompactLog();  // joiner's zxid 0 now predates the log floor

  ASSERT_TRUE(ProposeAddObserver(4).ok());
  ZabReplica* joiner = AddNode(4, true);
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
  ZabReplica* leader = Leader();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(leader->zab->Broadcast(Txn("t" + std::to_string(i))));
  }
  Settle();
  leader->zab->CompactLog();

  ASSERT_TRUE(ProposeAddObserver(4).ok());
  ZabReplica* joiner = AddNode(4, true);
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
  ZabReplica* leader = Leader();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(leader->zab->Broadcast(Txn("t" + std::to_string(i))));
  }
  Settle();
  leader->zab->CompactLog();

  ASSERT_TRUE(ProposeAddObserver(4).ok());
  ZabReplica* joiner = AddNode(4, true);
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
  ZabReplica* leader = Leader();
  ZabReplica* gone = nullptr;
  for (auto& r : replicas()) {
    if (r->id != leader->id) {
      gone = r.get();
      break;
    }
  }
  ASSERT_TRUE(ProposeRemove(gone->id).ok());
  Settle();

  EXPECT_FALSE(gone->zab->running()) << "removed replica must retire";
  for (auto& r : replicas()) {
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
  ZabReplica* old_leader = Leader();
  ASSERT_NE(old_leader, nullptr);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(old_leader->zab->Broadcast(Txn("pre" + std::to_string(i))));
  }
  Settle();
  std::vector<std::string> committed = old_leader->delivered;

  ASSERT_TRUE(ProposeRemove(old_leader->id).ok());
  Settle(Seconds(4));  // activation + step-down + re-election

  EXPECT_FALSE(old_leader->zab->running()) << "removed leader must retire";
  ZabReplica* new_leader = Leader();
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
  ZabReplica* leader = Leader();
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(leader->zab->Broadcast(Txn("t" + std::to_string(i))));
  }
  Settle();
  // Every replica compacted on its own; a fresh joiner needs the SNAP path.
  ASSERT_TRUE(ProposeAddObserver(4).ok());
  ZabReplica* joiner = AddNode(4, true);
  Settle();
  EXPECT_GE(joiner->snapshot_installs, 1);
  EXPECT_EQ(joiner->state, Leader()->state);
}

// The full join + promote + remove-leader flow is deterministic: two runs
// with identical seeds produce identical states, zxids and memberships.
TEST(ReconfigZabDeterminism, SameSeedSameOutcome) {
  auto run = [](uint64_t seed) {
    ZabCluster cluster;
    cluster.Boot(3, seed);
    for (int i = 0; i < 10; ++i) {
      cluster.Leader()->zab->Broadcast(Txn("w" + std::to_string(i)));
    }
    cluster.Settle(Seconds(1));
    ZabMembership add = cluster.Leader()->zab->membership();
    add.observers.push_back(4);
    cluster.Leader()->zab->ProposeReconfig(add);
    cluster.AddNode(4, /*observer=*/true);
    cluster.Settle(Seconds(2));
    ZabMembership promote = cluster.Leader()->zab->membership();
    promote.observers.clear();
    promote.voters.push_back(4);
    cluster.Leader()->zab->ProposeReconfig(promote);
    cluster.Settle(Seconds(2));
    NodeId removed = cluster.Leader()->id;
    ZabMembership drop = cluster.Leader()->zab->membership();
    drop.voters.erase(std::remove(drop.voters.begin(), drop.voters.end(), removed),
                      drop.voters.end());
    cluster.Leader()->zab->ProposeReconfig(drop);
    cluster.Settle(Seconds(4));
    cluster.Leader()->zab->Broadcast(Txn("final"));
    cluster.Settle(Seconds(2));
    std::string digest;
    for (auto& r : cluster.replicas()) {
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
