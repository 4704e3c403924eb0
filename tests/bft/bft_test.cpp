#include "edc/bft/replica.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "tests/bft/bft_cluster.h"

namespace edc {
namespace {

TEST_F(BftClusterTest, OrdersAndExecutesOnAllReplicas) {
  Boot();
  std::vector<std::string> results;
  for (int i = 0; i < 10; ++i) {
    client_->Send("add:1", [&](std::string r) { results.push_back(r); });
  }
  Settle();
  ASSERT_EQ(results.size(), 10u);
  EXPECT_EQ(results.back(), "10");
  for (auto& r : replicas_) {
    EXPECT_EQ(r->counter, 10);
    EXPECT_EQ(r->order.size(), 10u);
    EXPECT_EQ(r->order, replicas_[0]->order);  // identical total order
  }
}

TEST_F(BftClusterTest, RepliesRequireMatchingQuorum) {
  Boot();
  bool done = false;
  client_->Send("add:5", [&](std::string r) {
    done = true;
    EXPECT_EQ(r, "5");
  });
  Settle();
  EXPECT_TRUE(done);
  EXPECT_EQ(client_->outstanding(), 0u);
}

TEST_F(BftClusterTest, DuplicateRequestExecutesOnce) {
  Boot();
  std::string result;
  client_->Send("add:1", [&](std::string r) { result = r; });
  Settle(Seconds(3));  // long enough for a client retransmission cycle
  EXPECT_EQ(result, "1");
  for (auto& r : replicas_) {
    EXPECT_EQ(r->counter, 1);
  }
}

TEST_F(BftClusterTest, ToleratesOneBackupCrash) {
  Boot();
  replicas_[3]->replica->Crash();
  net_->SetNodeUp(4, false);
  int completed = 0;
  for (int i = 0; i < 5; ++i) {
    client_->Send("add:2", [&](std::string) { ++completed; });
  }
  Settle();
  EXPECT_EQ(completed, 5);
  EXPECT_EQ(replicas_[0]->counter, 10);
}

TEST_F(BftClusterTest, PrimaryCrashTriggersViewChange) {
  Boot();
  // Replica 1 is the view-0 primary.
  replicas_[0]->replica->Crash();
  net_->SetNodeUp(1, false);
  std::vector<std::string> results;
  for (int i = 0; i < 3; ++i) {
    client_->Send("add:1", [&](std::string r) { results.push_back(r); });
  }
  Settle(Seconds(6));
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results.back(), "3");
  for (size_t i = 1; i < replicas_.size(); ++i) {
    EXPECT_GT(replicas_[i]->replica->view(), 0u);
    EXPECT_EQ(replicas_[i]->counter, 3);
  }
}

TEST_F(BftClusterTest, EquivocatingPrimaryIsReplaced) {
  Boot();
  replicas_[0]->replica->SetEquivocate(true);
  std::string result;
  client_->Send("add:7", [&](std::string r) { result = r; });
  Settle(Seconds(8));
  EXPECT_EQ(result, "7");
  // The ensemble moved past the Byzantine view-0 primary.
  EXPECT_GT(replicas_[1]->replica->view(), 0u);
  // Correct replicas agree.
  EXPECT_EQ(replicas_[1]->counter, 7);
  EXPECT_EQ(replicas_[2]->counter, 7);
  EXPECT_EQ(replicas_[3]->counter, 7);
}

TEST_F(BftClusterTest, CommittedStateSurvivesViewChange) {
  Boot();
  std::vector<std::string> results;
  client_->Send("add:1", [&](std::string r) { results.push_back(r); });
  Settle();
  ASSERT_EQ(results.size(), 1u);
  replicas_[0]->replica->Crash();
  net_->SetNodeUp(1, false);
  client_->Send("add:1", [&](std::string r) { results.push_back(r); });
  Settle(Seconds(6));
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[1], "2");  // earlier commit retained
}

TEST_F(BftClusterTest, SevenReplicasF2ToleratesTwoCrashes) {
  // f=2 requires 3f+1=7 replicas; rebuild with custom f.
  net_ = std::make_unique<Network>(&loop_, Rng(9), LinkParams{});
  std::vector<NodeId> members{1, 2, 3, 4, 5, 6, 7};
  std::vector<std::unique_ptr<CounterReplica>> reps;
  std::vector<std::unique_ptr<CpuQueue>> cpus;
  struct Shell : NetworkNode, BftCallbacks {
    explicit Shell(EventLoop* l) : cpu(l, 1) {}
    void HandlePacket(Packet&& pkt) override { replica->HandlePacket(std::move(pkt)); }
    BftExecOutcome Execute(uint64_t, SimTime, const BftRequest& req) override {
      ++executed;
      replica->SendReply(req.client, req.req_id, req.payload);
      return BftExecOutcome{};
    }
    CpuQueue cpu;
    std::unique_ptr<BftReplica> replica;
    int executed = 0;
  };
  std::vector<std::unique_ptr<Shell>> shells;
  for (NodeId id : members) {
    auto shell = std::make_unique<Shell>(&loop_);
    shell->replica = std::make_unique<BftReplica>(&loop_, net_.get(), &shell->cpu, CostModel{},
                                                  id, members, shell.get());
    net_->Register(id, shell.get());
    shell->replica->Start();
    shells.push_back(std::move(shell));
  }
  VotingClient client(&loop_, net_.get(), 100, members, 2);
  shells[5]->replica->Crash();
  net_->SetNodeUp(6, false);
  shells[6]->replica->Crash();
  net_->SetNodeUp(7, false);
  bool done = false;
  client.Send("ping", [&](std::string r) {
    done = true;
    EXPECT_EQ(r, "ping");
  });
  Settle();
  EXPECT_TRUE(done);
  EXPECT_EQ(shells[0]->executed, 1);
}

// A NEW-VIEW is only valid from the primary of the view it installs. A
// backup (replica 3) forging NEW-VIEW(1) with a made-up batch must neither
// move anyone to view 1 nor get its batch executed.
TEST_F(BftClusterTest, ForgedNewViewFromBackupIsIgnored) {
  Boot();
  NewViewMsg forged;
  forged.new_view = 1;  // primary of view 1 is replica 2, not 3
  PreparedEntry entry;
  entry.view = 1;
  entry.seq = 1;
  entry.ts = 5;
  entry.batch.push_back(BftRequest{kClient, 99, Bytes("add:100")});
  forged.reproposed.push_back(entry);
  for (NodeId dst : {1u, 2u, 4u}) {
    Forge(3, dst, BftMsgType::kNewView, EncodeMsg(forged));
  }
  Settle(Millis(100));
  for (auto& r : replicas_) {
    EXPECT_EQ(r->replica->view(), 0u);
    EXPECT_EQ(r->counter, 0);
  }
  std::string result;
  client_->Send("add:1", [&](std::string r) { result = r; });
  Settle();
  EXPECT_EQ(result, "1");
  for (auto& r : replicas_) {
    EXPECT_EQ(r->replica->view(), 0u);
    EXPECT_EQ(r->order, (std::vector<std::string>{"add:1"}));
  }
}

// Two VIEW-CHANGE messages for view 2 report different prepared batches at
// sequence number 1: replica 1's from view 0, replica 2's from view 1. The
// new primary (replica 3) must re-propose the view-1 batch, whichever
// message it merges first.
TEST_F(BftClusterTest, ViewChangeKeepsBatchPreparedInHighestView) {
  Boot();
  auto view_change = [](uint64_t prepared_view, SimTime ts, const std::string& body,
                        uint64_t req_id) {
    ViewChangeMsg vc;
    vc.new_view = 2;
    PreparedEntry e;
    e.view = prepared_view;
    e.seq = 1;
    e.ts = ts;
    e.batch.push_back(BftRequest{kClient, req_id, Bytes(body)});
    vc.prepared.push_back(e);
    return EncodeMsg(vc);
  };
  Forge(1, 3, BftMsgType::kViewChange, view_change(0, Millis(1), "add:1", 1));
  Forge(2, 3, BftMsgType::kViewChange, view_change(1, Millis(2), "add:2", 2));
  Settle();
  for (auto& r : replicas_) {
    EXPECT_EQ(r->replica->view(), 2u);
    EXPECT_EQ(r->replica->last_executed(), 1u);
    EXPECT_EQ(r->order, (std::vector<std::string>{"add:2"}));
    EXPECT_EQ(r->counter, 2);
  }
}

}  // namespace
}  // namespace edc
