// Zab-level pipeline determinism suite (ctest label: pipeline).
//
// The LogStore-level pipelining tests (tests/logstore/pipeline_test.cpp) pin
// the storage semantics; this file pins what the replication protocol built
// on top of it guarantees:
//
//  * Pipelining is a pure timing optimization. Depth-1 (legacy serial
//    group commit) and depth-N adaptive runs of the same seeded scenario
//    produce identical commit orders, identical applied logs on every
//    replica, and — with per-record acks — an identical multiset of protocol
//    packets (SemanticPacketDigest). Only delivery timing moves.
//  * Re-running the same configuration reproduces the run bit for bit
//    (order-sensitive TraceDigest equality).
//  * Out-of-order ACK aggregation never commits a gap: a follower whose
//    device completes batches far behind the leader, plus duplicated ack
//    traffic, still yields a strictly consecutive zxid commit sequence.
//  * The PR 6 liveness fix (a follower stuck following-but-unsynced is
//    rescued by the leader's heartbeat restarting the sync handshake)
//    holds with a pipelined proposal backlog: the DIFF carries the backlog
//    and the cumulative AckNewLeader ack commits all of it at once.
//  * A TRUNC that arrives while the follower's append batch is in flight
//    cuts that batch too: the log keeps exactly the prefix the leader
//    named, the durable watermark (what acks claim) never passes it, and
//    a restart replays nothing beyond it.
//  * The PR 2 schedule explorer, pointed at an aggressively pipelined
//    configuration, passes the conformance checker across a seeded sweep of
//    crash/partition/delay schedules (multi-batch crash-point coverage).
//  * CoordFixture observability exposes the pipeline: a driven EZK run
//    records logstore.inflight > 1, so depth assertions are not vacuous.

#include "edc/zab/node.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "edc/check/explorer.h"
#include "edc/harness/fixture.h"
#include "edc/obs/obs.h"
#include "edc/zab/messages.h"
#include "tests/zab/zab_cluster.h"

namespace edc {
namespace {

// Seed of every ZabCluster in this file.
constexpr uint64_t kSeed = 7;

// Heartbeats quiesced: exactly one round fires (at leader activation) inside
// the run window, so heartbeat/ack payloads — which carry the commit frontier
// and therefore depend on commit *timing* — cannot differ across pipeline
// depths. Election, sync, proposals, acks and commits are all
// timing-independent in content.
ZabConfig QuiescedConfig(bool ack_aggregation) {
  ZabConfig cfg;
  cfg.heartbeat_interval = Seconds(10);
  cfg.leader_timeout = Seconds(60);
  cfg.ack_aggregation = ack_aggregation;
  return cfg;
}

struct ScenarioResult {
  NodeId leader = 0;
  std::vector<uint64_t> zxids;      // leader's commit order
  std::vector<std::string> txns;    // leader's delivery order
  uint64_t applied_hash = 0;        // all replicas
  uint64_t semantic_digest = 0;     // time-free packet multiset
  uint64_t trace_digest = 0;        // order-sensitive whole-run fingerprint
};

ScenarioResult RunScenario(const LogStoreConfig& log_cfg, bool ack_aggregation) {
  ZabCluster cluster;
  cluster.Boot(3, kSeed, QuiescedConfig(ack_aggregation), {log_cfg, log_cfg, log_cfg});
  cluster.DriveWaves(8, 5, Micros(300));
  cluster.loop().RunUntil(cluster.loop().now() + Seconds(1));

  ScenarioResult result;
  ZabReplica* leader = cluster.Leader();
  EXPECT_NE(leader, nullptr);
  if (leader == nullptr) {
    return result;
  }
  result.leader = leader->zab->leader();
  result.zxids = leader->delivered_zxids;
  result.txns = leader->delivered;
  result.applied_hash = cluster.AppliedLogHash();
  result.semantic_digest = cluster.faults().SemanticPacketDigest();
  result.trace_digest = cluster.faults().TraceDigest();
  // Every replica of this healthy run converged.
  for (size_t i = 0; i < cluster.size(); ++i) {
    EXPECT_EQ(cluster.replica(i)->delivered, leader->delivered) << "replica " << i + 1;
  }
  return result;
}

LogStoreConfig DeepConfig() {
  LogStoreConfig cfg;
  cfg.pipeline_depth = 8;
  return cfg;
}

// --- cross-depth determinism ----------------------------------------------

TEST(PipelineZabDeterminism, CommitOrderAndAppliedLogsIdenticalAcrossDepths) {
  ScenarioResult legacy = RunScenario(LegacyLogStoreConfig(), /*ack_aggregation=*/false);
  ASSERT_EQ(legacy.txns.size(), 40u);
  // zxids strictly consecutive within the epoch: no gap ever committed.
  for (size_t i = 1; i < legacy.zxids.size(); ++i) {
    ASSERT_EQ(legacy.zxids[i], legacy.zxids[i - 1] + 1);
  }

  const struct {
    const char* name;
    LogStoreConfig log;
    bool agg;
  } configs[] = {
      {"legacy+agg", LegacyLogStoreConfig(), true},
      {"default", LogStoreConfig{}, true},
      {"default+per-record-acks", LogStoreConfig{}, false},
      {"deep8", DeepConfig(), true},
      {"deep8+per-record-acks", DeepConfig(), false},
  };
  for (const auto& c : configs) {
    ScenarioResult run = RunScenario(c.log, c.agg);
    EXPECT_EQ(run.leader, legacy.leader) << c.name;
    EXPECT_EQ(run.zxids, legacy.zxids) << c.name;
    EXPECT_EQ(run.txns, legacy.txns) << c.name;
    EXPECT_EQ(run.applied_hash, legacy.applied_hash) << c.name;
  }
}

TEST(PipelineZabDeterminism, PacketMultisetIdenticalAcrossDepthsWithPerRecordAcks) {
  // With aggregation off every proposal produces exactly one ack per
  // follower and one commit per zxid regardless of batching, so the
  // time-free packet digest must match across depths even though delivery
  // timing (and hence the order-sensitive digest) shifts.
  ScenarioResult depth1 = RunScenario(LegacyLogStoreConfig(), false);
  ScenarioResult depth4 = RunScenario(LogStoreConfig{}, false);
  ScenarioResult depth8 = RunScenario(DeepConfig(), false);
  ASSERT_EQ(depth1.txns.size(), 40u);
  EXPECT_EQ(depth1.semantic_digest, depth4.semantic_digest);
  EXPECT_EQ(depth1.semantic_digest, depth8.semantic_digest);
}

TEST(PipelineZabDeterminism, SameConfigRerunsAreBitIdentical) {
  ScenarioResult a = RunScenario(LogStoreConfig{}, true);
  ScenarioResult b = RunScenario(LogStoreConfig{}, true);
  ASSERT_EQ(a.txns.size(), 40u);
  EXPECT_EQ(a.zxids, b.zxids);
  EXPECT_EQ(a.applied_hash, b.applied_hash);
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_EQ(a.semantic_digest, b.semantic_digest);
}

// --- out-of-order ack aggregation ------------------------------------------

TEST(PipelineZabAckWindow, SlowFollowerAndDuplicateAcksNeverCommitAGap) {
  // One follower's device is 50x slower than the others, so its batch
  // durability callbacks run far behind the leader's pipeline; duplicated
  // packets on its links add stale cumulative acks on top. The commit
  // sequence must stay strictly consecutive on every replica.
  LogStoreConfig fast = DeepConfig();
  LogStoreConfig slow = DeepConfig();
  slow.fsync_latency = Millis(3);
  ZabConfig cfg;  // default heartbeats; ack aggregation on
  ZabCluster cluster;
  cluster.Boot(3, kSeed, cfg, {fast, fast, slow});
  ZabReplica* leader = cluster.Leader();
  ASSERT_NE(leader, nullptr);
  NodeId leader_id = leader->zab->leader();
  for (NodeId other = 1; other <= 3; ++other) {
    if (other != leader_id) {
      LinkFaults dup;
      dup.duplicate_probability = 0.3;
      cluster.faults().SetLinkFaults(leader_id, other, dup);
    }
  }

  cluster.DriveWaves(25, 2, Micros(100));
  cluster.loop().RunUntil(cluster.loop().now() + Seconds(5));

  for (size_t i = 0; i < cluster.size(); ++i) {
    ZabReplica* r = cluster.replica(i);
    ASSERT_EQ(r->delivered.size(), 50u) << "replica " << i + 1;
    for (size_t k = 0; k < 50; ++k) {
      EXPECT_EQ(r->delivered[k], "t" + std::to_string(k)) << "replica " << i + 1;
    }
    for (size_t k = 1; k < r->delivered_zxids.size(); ++k) {
      ASSERT_EQ(r->delivered_zxids[k], r->delivered_zxids[k - 1] + 1)
          << "gap committed on replica " << i + 1;
    }
  }
}

// --- PR 6 liveness fix under pipelining ------------------------------------

TEST(PipelineZabLiveness, UnsyncedFollowerWithPipelinedBacklogResyncsFromHeartbeat) {
  // Reconstructs the PR 6 hazard with a pipelined backlog on top: a follower
  // that picked its leader but lost the sync handshake (here: a partition
  // cuts the DIFF) sits following-but-unsynced while the leader, down to a
  // bare quorum that includes that follower, pipelines proposals nobody can
  // commit. The leader's next heartbeat must restart the handshake; the DIFF
  // then carries the whole pipelined backlog and the follower's single
  // cumulative AckNewLeader ack commits all of it.
  LogStoreConfig log_cfg;  // pipelined defaults
  ZabConfig cfg;           // default heartbeat (50ms) / leader timeout (250ms)
  ZabCluster cluster;
  cluster.Boot(3, kSeed, cfg, {log_cfg, log_cfg, log_cfg});
  ZabReplica* leader = cluster.Leader();
  ASSERT_NE(leader, nullptr);
  NodeId leader_id = leader->zab->leader();

  std::vector<NodeId> followers;
  for (NodeId id = 1; id <= 3; ++id) {
    if (id != leader_id) {
      followers.push_back(id);
    }
  }
  NodeId f1_id = followers[0];
  NodeId f2_id = followers[1];
  ZabReplica* f1 = cluster.replica(f1_id - 1);
  ZabReplica* f2 = cluster.replica(f2_id - 1);

  // Take the other follower down for good: commits now require f1's acks.
  cluster.Crash(f2);
  cluster.loop().RunUntil(cluster.loop().now() + Millis(100));

  // Bounce f1 and catch it the moment it starts following the leader again —
  // its FollowerInfo is already in flight, but the handshake needs a round
  // trip, so a partition planted now deterministically drops the leader's
  // DIFF and strands f1 unsynced.
  cluster.Crash(f1);
  cluster.loop().RunUntil(cluster.loop().now() + Millis(50));
  cluster.Restart(f1);

  bool caught = false;
  SimTime deadline = cluster.loop().now() + Seconds(5);
  while (cluster.loop().now() < deadline) {
    cluster.loop().RunUntil(cluster.loop().now() + Micros(20));
    if (f1->zab->running() && !f1->zab->is_leader() && f1->zab->leader() == leader_id &&
        !f1->zab->is_active_follower()) {
      caught = true;
      break;
    }
  }
  ASSERT_TRUE(caught) << "never observed f1 in the following-but-unsynced window";
  cluster.faults().Partition({f1_id}, {leader_id});

  // The leader still has broadcast authority and pipelines a backlog no one
  // can commit (self-acks only: f2 is down, f1 unsynced behind a partition).
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(leader->zab->Broadcast(Txn("p" + std::to_string(i))));
  }
  cluster.loop().RunUntil(cluster.loop().now() + Millis(100));
  EXPECT_TRUE(leader->delivered.empty()) << "committed without a quorum";
  ASSERT_FALSE(f1->zab->is_active_follower()) << "setup failed: f1 synced through partition";

  // Heal. The next heartbeat reaches the unsynced follower; pre-PR 6 it
  // would only refresh the timeout and the cluster would hang here forever.
  cluster.faults().Heal();
  cluster.loop().RunUntil(cluster.loop().now() + Seconds(2));

  EXPECT_TRUE(f1->zab->is_active_follower());
  ASSERT_EQ(leader->delivered.size(), 10u) << "pipelined backlog never committed";
  ASSERT_EQ(f1->delivered.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(leader->delivered[static_cast<size_t>(i)], "p" + std::to_string(i));
    EXPECT_EQ(f1->delivered[static_cast<size_t>(i)], "p" + std::to_string(i));
  }
  for (size_t k = 1; k < f1->delivered_zxids.size(); ++k) {
    EXPECT_EQ(f1->delivered_zxids[k], f1->delivered_zxids[k - 1] + 1);
  }
}

// --- TRUNC while appends are in flight --------------------------------------

// Swallows whatever the follower under test sends to its scripted peers.
class SinkNode : public NetworkNode {
 public:
  void HandlePacket(Packet&&) override {}
};

Packet FromLeader(ZabMsgType type, std::vector<uint8_t> payload) {
  Packet pkt;
  pkt.src = 1;
  pkt.dst = 2;
  pkt.type = static_cast<uint32_t>(type);
  pkt.payload = std::move(payload);
  return pkt;
}

Packet Propose(uint32_t counter) {
  std::vector<uint8_t> txn = Txn("t" + std::to_string(counter));
  return FromLeader(ZabMsgType::kPropose, EncodeMsg(ProposeMsg{1, {MakeZxid(1, counter), 0, txn}}));
}

TEST(PipelineZabTrunc, TruncCutsInFlightAppendsAndSurvivesRestart) {
  // A follower holds zxids 1..3 durable and 4..5 in a batch whose fsync is
  // still in flight when the leader's TRUNC to zxid 2 arrives. The cut must
  // reach the in-flight batch: once it publishes, the log holds exactly the
  // kept prefix, the durable watermark (what acks claim) never passes the
  // cut, and a restart replays only the kept prefix.
  EventLoop loop;
  Network net(&loop, Rng(5), LinkParams{});
  SinkNode leader_sink;
  SinkNode peer_sink;
  net.Register(1, &leader_sink);
  net.Register(3, &peer_sink);
  LogStoreConfig log_cfg;
  log_cfg.adaptive_window = false;
  ZabReplica follower(&loop, &net, 2, {1, 2, 3}, log_cfg, ZabConfig{});
  ZabNode& zab = *follower.zab;
  const uint64_t cut = MakeZxid(1, 2);
  auto step = [&loop](Duration d) { loop.RunUntil(loop.now() + d); };

  zab.Start();
  zab.HandlePacket(FromLeader(ZabMsgType::kLeaderInfo, EncodeMsg(LeaderInfo{1, 1})));
  zab.HandlePacket(FromLeader(ZabMsgType::kDiff, EncodeMsg(DiffMsg{})));
  zab.HandlePacket(FromLeader(ZabMsgType::kNewLeader, EncodeMsg(EpochMsg{1, 0})));
  for (uint32_t i = 1; i <= 3; ++i) {
    zab.HandlePacket(Propose(i));
  }
  step(Millis(1));
  ASSERT_TRUE(zab.is_active_follower());
  ASSERT_EQ(follower.log.durable_size(), 3u);
  ASSERT_EQ(zab.last_durable(), MakeZxid(1, 3));

  zab.HandlePacket(Propose(4));
  zab.HandlePacket(Propose(5));
  // Past the group-commit window, short of the fsync: one batch in flight.
  step(Micros(40));
  ASSERT_EQ(follower.log.appended_size(), 5u);
  ASSERT_EQ(follower.log.durable_size(), 3u);
  ASSERT_EQ(follower.log.inflight_batches(), 1u);

  zab.HandlePacket(FromLeader(ZabMsgType::kTrunc, EncodeMsg(ZxidMsg{1, cut})));
  step(Micros(5));  // the TRUNC's CPU charge; the fsync is still in flight
  ASSERT_EQ(follower.log.inflight_batches(), 1u);
  ASSERT_EQ(follower.log.appended_size(), 2u);
  EXPECT_LE(zab.last_durable(), cut);
  for (int i = 0; i < 20; ++i) {
    step(Micros(50));
    EXPECT_LE(zab.last_durable(), cut) << "after " << (i + 1) * 50 << "us";
  }
  EXPECT_EQ(follower.log.inflight_batches(), 0u);
  ASSERT_EQ(follower.log.appended_size(), 2u);
  EXPECT_EQ(follower.log.durable_size(), 2u);
  EXPECT_EQ(zab.last_logged(), cut);

  zab.Crash();
  zab.Restart();
  ASSERT_EQ(follower.log.appended_size(), 2u);
  EXPECT_EQ(zab.last_logged(), cut);
  EXPECT_EQ(zab.last_durable(), cut);
  for (uint32_t i = 0; i < 2; ++i) {
    auto entry = DecodeZabRecordView(follower.log.record(i));
    ASSERT_TRUE(entry.ok());
    EXPECT_EQ(entry->zxid, MakeZxid(1, i + 1));
    EXPECT_EQ(TxnStr(entry->txn), "t" + std::to_string(i + 1));
  }
}

// A kPropose whose frame runs past the end of its txn is malformed: logging
// it would store a record that no longer parses as a log record. The
// follower must drop it and log the next valid proposal as usual.
TEST(PipelineZabPropose, TrailingBytesAreNotLoggedAndTheNextProposalIs) {
  EventLoop loop;
  Network net(&loop, Rng(5), LinkParams{});
  SinkNode leader_sink;
  SinkNode peer_sink;
  net.Register(1, &leader_sink);
  net.Register(3, &peer_sink);
  ZabReplica follower(&loop, &net, 2, {1, 2, 3}, LogStoreConfig{}, ZabConfig{});
  ZabNode& zab = *follower.zab;
  auto step = [&loop](Duration d) { loop.RunUntil(loop.now() + d); };

  zab.Start();
  zab.HandlePacket(FromLeader(ZabMsgType::kLeaderInfo, EncodeMsg(LeaderInfo{1, 1})));
  zab.HandlePacket(FromLeader(ZabMsgType::kDiff, EncodeMsg(DiffMsg{})));
  zab.HandlePacket(FromLeader(ZabMsgType::kNewLeader, EncodeMsg(EpochMsg{1, 0})));
  zab.HandlePacket(Propose(1));
  step(Millis(1));
  ASSERT_TRUE(zab.is_active_follower());
  ASSERT_EQ(follower.log.durable_size(), 1u);

  Packet malformed = Propose(2);
  malformed.payload.push_back(0);
  zab.HandlePacket(std::move(malformed));
  step(Millis(1));
  EXPECT_EQ(follower.log.appended_size(), 1u);
  EXPECT_EQ(zab.last_logged(), MakeZxid(1, 1));

  zab.HandlePacket(Propose(2));
  step(Millis(1));
  ASSERT_EQ(follower.log.durable_size(), 2u);
  EXPECT_EQ(zab.last_logged(), MakeZxid(1, 2));
  auto entry = DecodeZabRecordView(follower.log.record(1));
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->zxid, MakeZxid(1, 2));
  EXPECT_EQ(TxnStr(entry->txn), "t2");
}

// --- explorer crash sweep over pipelined configs ----------------------------

// An aggressively pipelined replica configuration: deep pipeline, tiny
// initial window, adaptive sizing on — crash episodes land while several
// batches are in flight, exercising multi-batch DropUnsynced recovery and
// the follower resync that follows.
ZkServerOptions PipelinedServerOptions() {
  ZkServerOptions zk;
  zk.log.pipeline_depth = 8;
  zk.log.adaptive_window = true;
  zk.log.group_commit_window = Micros(5);
  return zk;
}

void RunPipelinedZkSeeds(uint64_t lo, uint64_t hi) {
  size_t crash_episodes = 0;
  for (uint64_t seed = lo; seed < hi; ++seed) {
    ExplorerOptions options;
    options.system =
        seed % 2 == 0 ? SystemKind::kZooKeeper : SystemKind::kExtensibleZooKeeper;
    options.seed = seed;
    options.zk_server = PipelinedServerOptions();
    PlanSpec plan = GeneratePlan(options.system, options.seed);
    for (const Episode& ep : plan.faults.episodes) {
      crash_episodes += ep.kind == EpisodeKind::kCrashRestart ? 1 : 0;
    }
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
  // The sweep must actually contain crash points (not only partitions and
  // link faults), or the multi-batch recovery claim is vacuous.
  EXPECT_GT(crash_episodes, (hi - lo) / 4);
}

TEST(PipelineCrashSweep, Seeds301To350) { RunPipelinedZkSeeds(301, 351); }
TEST(PipelineCrashSweep, Seeds351To400) { RunPipelinedZkSeeds(351, 401); }
TEST(PipelineCrashSweep, Seeds401To450) { RunPipelinedZkSeeds(401, 451); }
TEST(PipelineCrashSweep, Seeds451To500) { RunPipelinedZkSeeds(451, 501); }

// --- fixture observability: pipeline depth is really reached ----------------

TEST(PipelineObservability, FixtureRunRecordsPipelineDepthAboveOne) {
  // A driven EZK fixture with observability on must record overlapping
  // batches in the shared registry — the histogram the benches and the
  // depth assertions above rely on. fsync is slowed so wave-driven writes
  // pile up multiple in-flight batches deterministically.
  FixtureOptions options;
  options.system = SystemKind::kExtensibleZooKeeper;
  options.num_clients = 4;
  options.observability = true;
  options.zk_server.log.fsync_latency = Millis(1);
  options.zk_server.log.pipeline_depth = 4;
  CoordFixture fixture(options);
  fixture.Start();

  int done = 0;
  for (int wave = 0; wave < 5; ++wave) {
    for (size_t c = 0; c < options.num_clients; ++c) {
      fixture.loop().ScheduleAt(
          fixture.loop().now() + Millis(5) * wave,
          [&fixture, &done, c, wave]() {
            fixture.coord(c)->Create(
                "/p-" + std::to_string(wave) + "-" + std::to_string(c), "v",
                [&done](Result<std::string>) { ++done; });
          });
    }
  }
  fixture.Settle(Seconds(3));
  EXPECT_EQ(done, 20);

  const Recorder* inflight = fixture.obs().metrics.Histogram("logstore.inflight");
  ASSERT_NE(inflight, nullptr) << "pipeline metrics not wired through the fixture";
  EXPECT_GT(inflight->count(), 0);
  EXPECT_GT(inflight->Max(), 1) << "pipeline never went deeper than one batch";
  const Recorder* window = fixture.obs().metrics.Histogram("logstore.window_us");
  ASSERT_NE(window, nullptr);
  EXPECT_GT(window->count(), 0);
}

}  // namespace
}  // namespace edc
