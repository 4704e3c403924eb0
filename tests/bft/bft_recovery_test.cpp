// PBFT checkpointing, log GC and state transfer under crash/restart and
// partition faults (docs/bft_recovery.md).
//
// The EDS-cluster tests drive the full DepSpace stack through CoordFixture
// so recovery is proven end-to-end: a replica that slept through a stable
// checkpoint must rejoin via STATE-REQUEST/STATE-RESPONSE and converge to a
// byte-identical TupleSpace::Digest() with its log truncated below the low
// watermark. The raw-BFT test checks the transferred dedup summary: a
// retransmitted pre-restart request must not re-execute on the recovered
// replica.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "edc/bft/replica.h"
#include "edc/harness/fixture.h"
#include "edc/harness/invariants.h"
#include "tests/bft/bft_cluster.h"

namespace edc {
namespace {

// ------------------------------------------------------- EDS cluster tests

CoordFixture MakeEdsCluster() {
  FixtureOptions fo;
  fo.system = SystemKind::kExtensibleDepSpace;
  fo.num_clients = 2;
  fo.seed = 42;
  fo.ds_client.reconnect = ReconnectOptions{Millis(300), Seconds(2), 0};
  return CoordFixture(fo);
}

// Issues `n` distinct out() ops from client 0 in sequential rounds (each op
// once the previous one replied) and settles until all replied. A concurrent
// burst would be ordered in one or two PBFT batches; one op per round gives
// each op its own sequence number, so the run crosses n / 8 checkpoint
// boundaries at the default interval.
void RunOuts(CoordFixture& fx, int n, const std::string& tag) {
  int done = 0;
  std::function<void(int)> issue = [&](int i) {
    DsTuple tuple{DsField{std::string("/r")}, DsField{tag + std::to_string(i)},
                  DsField{static_cast<int64_t>(i)}};
    fx.ds_client(0)->Out(std::move(tuple), [&, i](Result<DsReply>) {
      ++done;
      if (i + 1 < n) {
        issue(i + 1);
      }
    });
  };
  issue(0);
  SimTime deadline = fx.loop().now() + Seconds(20);
  while (done < n && fx.loop().now() < deadline) {
    fx.Settle(Millis(100));
  }
  ASSERT_EQ(done, n);
}

void ExpectCaughtUp(CoordFixture& fx, size_t node_index) {
  const BftReplica& bft = fx.ds_servers[node_index]->bft();
  EXPECT_GE(bft.state_transfers(), 1);
  EXPECT_GT(bft.low_watermark(), 0u);
  // Log truncated below the low watermark: either empty or holding only
  // entries above it.
  if (bft.log_entries() > 0) {
    EXPECT_GT(bft.min_entry_seq(), bft.low_watermark());
  }
  uint64_t reference = fx.ds_servers[0]->space().Digest();
  EXPECT_EQ(fx.ds_servers[node_index]->space().Digest(), reference);
  std::string why;
  EXPECT_TRUE(fx.CheckEdsInvariants(&why)) << why;
}

TEST(BftRecovery, SleeperCatchesUpViaStateTransfer) {
  CoordFixture fx = MakeEdsCluster();
  fx.Start();
  // Node 2 sleeps through 20 executed ops (>= 2 checkpoint boundaries at the
  // default interval of 8): on restart its log is empty and the cluster's
  // pre-prepares for those seqs are gone, so only state transfer can help.
  fx.faults().Crash(2);
  RunOuts(fx, 20, "a");
  EXPECT_GT(fx.ds_servers[0]->bft().low_watermark(), 0u);
  fx.faults().Restart(2);
  fx.Settle(Seconds(5));
  ExpectCaughtUp(fx, 1);
}

TEST(BftRecovery, PrimaryCrashMidWorkloadCheckpointSurvivesViewChange) {
  CoordFixture fx = MakeEdsCluster();
  fx.Start();
  // Node 1 is the view-0 primary: its crash forces a view change, and the
  // new primary's ensemble must still take stable checkpoints.
  fx.faults().Crash(1);
  RunOuts(fx, 20, "b");
  for (size_t i = 1; i < fx.ds_servers.size(); ++i) {
    EXPECT_GT(fx.ds_servers[i]->bft().view(), 0u);
    EXPECT_GT(fx.ds_servers[i]->bft().low_watermark(), 0u);
  }
  fx.faults().Restart(1);
  fx.Settle(Seconds(5));
  ExpectCaughtUp(fx, 0);
  // The rejoined ex-primary adopted the post-view-change view from the f+1
  // views carried on checkpoint traffic instead of fighting for view 0.
  EXPECT_GT(fx.ds_servers[0]->bft().view(), 0u);
}

TEST(BftRecovery, PartitionedReplicaTruncatesStaleLogBelowWatermark) {
  CoordFixture fx = MakeEdsCluster();
  fx.Start();
  // Node 4 stays up but isolated: it buffers client requests and may start
  // lone view changes while the majority executes past several checkpoints.
  // After the heal it must discard its stale log and install the checkpoint.
  fx.faults().Partition({4}, {1, 2, 3});
  RunOuts(fx, 24, "c");
  fx.faults().Heal();
  fx.Settle(Seconds(6));
  ExpectCaughtUp(fx, 3);
  const BftReplica& bft = fx.ds_servers[3]->bft();
  EXPECT_GE(bft.low_watermark(), 8u);  // at least the first boundary
}

TEST(BftRecovery, RepliesAfterTransferStayConverged) {
  // Client replies must keep matching across all four replicas after one of
  // them rejoined via state transfer (f+1 identical replies per op is the
  // client acceptance rule, so divergence would hang the workload).
  CoordFixture fx = MakeEdsCluster();
  fx.Start();
  fx.faults().Crash(3);
  RunOuts(fx, 12, "d");
  fx.faults().Restart(3);
  fx.Settle(Seconds(5));
  ExpectCaughtUp(fx, 2);
  RunOuts(fx, 12, "e");  // post-recovery ops execute on all four replicas
  std::string why;
  EXPECT_TRUE(fx.CheckEdsInvariants(&why)) << why;
}

// --------------------------------------------------------- raw BFT dedup

TEST(BftRecovery, TransferredDedupBlocksReexecution) {
  // The requests come from the cluster's client node but are built here, so
  // request 1 can be retransmitted under its original id.
  BftCluster cluster;
  cluster.Boot(4, LinkParams{}, /*seed=*/7);
  const std::vector<std::unique_ptr<CounterReplica>>& replicas = cluster.replicas();
  auto send = [&](uint64_t req_id, const std::string& body) {
    BftRequest req;
    req.client = BftCluster::kClient;
    req.req_id = req_id;
    req.payload = Bytes(body);
    for (NodeId r : cluster.members()) {
      cluster.Forge(BftCluster::kClient, r, BftMsgType::kRequest, EncodeMsg(req));
    }
  };

  // Request 1 executes everywhere, then replica 4 sleeps through enough
  // further requests to cross a checkpoint boundary (interval 8).
  send(1, "add:1");
  cluster.Settle(Seconds(1));
  ASSERT_EQ(replicas[3]->counter, 1);
  cluster.Crash(4);
  for (uint64_t id = 2; id <= 16; ++id) {
    send(id, "add:1");
    cluster.Settle(Millis(200));
  }
  ASSERT_EQ(replicas[0]->counter, 16);
  ASSERT_GT(replicas[0]->replica->low_watermark(), 0u);

  cluster.Restart(4);
  cluster.Settle(Seconds(4));
  EXPECT_GE(replicas[3]->replica->state_transfers(), 1);
  EXPECT_EQ(replicas[3]->counter, 16);
  EXPECT_EQ(replicas[3]->replica->last_executed(), replicas[0]->replica->last_executed());

  // Retransmit request 1 to the recovered replica only: its transferred
  // dedup summary must classify it as already executed (req ids at or below
  // the client's floor count as executed even after GC).
  size_t executions_before = replicas[3]->executed.size();
  BftRequest dup;
  dup.client = BftCluster::kClient;
  dup.req_id = 1;
  dup.payload = Bytes("add:1");
  cluster.Forge(BftCluster::kClient, 4, BftMsgType::kRequest, EncodeMsg(dup));
  cluster.Settle(Seconds(2));
  EXPECT_EQ(replicas[3]->executed.size(), executions_before);
  EXPECT_EQ(replicas[3]->counter, 16);
}

}  // namespace
}  // namespace edc
