// Batched PBFT ordering: one sequence number orders every request pending at
// the primary when its flush item reaches the front of the core, and
// execution unpacks each batch into per-request Execute() calls with
// contiguous op numbers and strictly increasing timestamps (checked inside
// CounterReplica::Execute).

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "edc/bft/replica.h"
#include "tests/bft/bft_cluster.h"

namespace edc {
namespace {

TEST_F(BftClusterTest, ConcurrentBurstSharesSequenceNumbers) {
  Boot();
  Burst(40);
  for (auto& r : replicas()) {
    EXPECT_EQ(r->replica->executed_ops(), 40u);
    // Three batches with this seed; unbatched ordering uses one sequence
    // number per request.
    EXPECT_LE(r->replica->last_executed(), 8u);
    EXPECT_EQ(r->last_seq, 40u);
    EXPECT_EQ(r->counter, 40);
    // Every request exactly once, in the same order everywhere.
    std::set<std::pair<NodeId, uint64_t>> distinct(r->executed.begin(), r->executed.end());
    EXPECT_EQ(distinct.size(), 40u);
    EXPECT_EQ(r->executed, replicas()[0]->executed);
  }
}

TEST_F(BftClusterTest, LoneRequestIsProposedWithoutDelay) {
  // Jitter-free links with no serialization delay make every arrival exact.
  LinkParams link;
  link.jitter = 0;
  link.bandwidth_bps = 1e18;
  Boot(4, link);
  std::string result;
  client()->Send("add:3", [&](std::string r) { result = r; });
  Settle();
  EXPECT_EQ(result, "3");
  // The primary (replica 1) pays one message cost for the request on its idle
  // core and sends the PRE-PREPARE at that same instant.
  SimTime request_at = replicas()[0]->first_seen.at(BftMsgType::kRequest);
  SimTime processed_at = request_at + CostModel{}.bft_msg_cpu;
  for (size_t i = 1; i < replicas().size(); ++i) {
    EXPECT_EQ(replicas()[i]->first_seen.at(BftMsgType::kPrePrepare), processed_at + link.latency);
  }
  for (auto& r : replicas()) {
    EXPECT_EQ(r->replica->last_executed(), 1u);  // a batch of one
    EXPECT_EQ(r->replica->executed_ops(), 1u);
  }
}

TEST_F(BftClusterTest, EquivocatingBatchedPrimaryForcesViewChange) {
  Boot();
  replicas()[0]->replica->SetEquivocate(true);
  int done = 0;
  for (int i = 0; i < 10; ++i) {
    client()->Send("add:1", [&](std::string) { ++done; });
  }
  Settle(Seconds(8));
  EXPECT_EQ(done, 10);
  for (size_t i = 1; i < replicas().size(); ++i) {
    EXPECT_GT(replicas()[i]->replica->view(), 0u);
    EXPECT_EQ(replicas()[i]->counter, 10);
    EXPECT_EQ(replicas()[i]->executed, replicas()[1]->executed);
  }
}

TEST_F(BftClusterTest, StateTransferMidBatchStreamRestoresOpCount) {
  Boot();
  Crash(4);
  // Sequential rounds of concurrent requests: each round is one or two
  // batches, so twelve rounds cross the first checkpoint (interval 8).
  for (int round = 0; round < 12; ++round) {
    Burst(5);
  }
  ASSERT_GT(replicas()[0]->replica->low_watermark(), 0u);

  Restart(4);
  for (int round = 0; round < 12; ++round) {  // batches keep flowing meanwhile
    Burst(5);
  }
  Settle(Seconds(4));
  const BftReplica& rejoined = *replicas()[3]->replica;
  const BftReplica& reference = *replicas()[0]->replica;
  EXPECT_GE(rejoined.state_transfers(), 1);
  EXPECT_EQ(rejoined.executed_ops(), 120u);
  EXPECT_EQ(reference.executed_ops(), 120u);
  EXPECT_LT(reference.last_executed(), reference.executed_ops());
  EXPECT_EQ(rejoined.last_executed(), reference.last_executed());

  // Requests ordered after the transfer execute on the rejoined replica with
  // op numbers continuing from the restored count.
  Burst(5);
  Settle();
  EXPECT_EQ(replicas()[3]->last_seq, 125u);
  EXPECT_EQ(replicas()[3]->counter, 125);
  EXPECT_EQ(replicas()[3]->counter, replicas()[0]->counter);
}

}  // namespace
}  // namespace edc
