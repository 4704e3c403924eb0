// End-to-end observability tests over whole clusters:
//
//  * Zero perturbation: running the identical seeded scenario with
//    observability on vs off must produce byte-identical packet traces and
//    applied logs/tuple spaces (the tracer and registry only read clocks).
//  * A traced client operation yields a stage breakdown whose buckets
//    partition the measured latency, with real network/fsync time in it.
//  * Seeded backoff jitter decorrelates clients that were disconnected by
//    the same fault (no lockstep retry bursts), while jitter = 0 keeps the
//    old fully synchronized schedule for tests that pin exact timings.
//  * With observability off nothing is counted, sampled or traced; with it
//    on, the clients the fixture builds for itself (the admin sessions)
//    report like every other component built on the loop.
//  * DsClient honors max_attempts: after that many retransmits it fails the
//    call with kConnectionLoss (pinned here; behaviour predates this layer).

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "edc/common/result.h"
#include "edc/ds/types.h"
#include "edc/harness/fixture.h"
#include "edc/harness/invariants.h"
#include "edc/obs/obs.h"
#include "edc/recipes/scripts.h"
#include "edc/sim/faults.h"
#include "tests/harness/fixture_helpers.h"

namespace edc {
namespace {

// What a run leaves behind: the fault injector's packet-trace digest plus a
// hash of every replica's applied state. Observability must not move either.
struct RunSig {
  uint64_t packet_digest = 0;
  uint64_t state_hash = 0;
  int64_t observed_packets = 0;

  bool operator==(const RunSig& o) const {
    return packet_digest == o.packet_digest && state_hash == o.state_hash;
  }
};

void DriveWorkload(CoordFixture& fix, bool observe) {
  for (int i = 0; i < 10; ++i) {
    fix.loop().Schedule(Millis(100) * i, [&fix, i, observe]() {
      Tracer& tracer = fix.obs().tracer;
      TraceContext prev;
      TraceContext root;
      if (observe) {
        prev = tracer.current();
        root = tracer.BeginTrace("client.op", fix.client_node(i % 2), fix.loop().now());
      }
      fix.coord(i % 2)->Create("/obs/" + std::to_string(i), "x", [](Result<std::string>) {});
      if (observe) {
        tracer.SetCurrent(prev);
      }
    });
  }
}

RunSig RunEzk(uint64_t seed, bool observe) {
  FixtureOptions options;
  options.system = SystemKind::kExtensibleZooKeeper;
  options.num_clients = 2;
  options.seed = seed;
  options.observability = observe;
  CoordFixture fix(options);
  fix.faults().EnablePacketTrace();
  fix.Start();

  NodeId leader = 0;
  for (auto& s : fix.zk_servers) {
    if (s->running() && s->IsLeader()) {
      leader = s->id();
    }
  }
  EXPECT_NE(leader, 0u);
  FaultPlan plan;
  plan.episodes.push_back({.kind = EpisodeKind::kCrashRestart,
                           .start = Millis(200),
                           .duration = Millis(2800),
                           .node = leader});
  fix.RunPlan(plan);
  DriveWorkload(fix, observe);
  fix.Settle(Seconds(8));

  RunSig sig;
  sig.packet_digest = fix.faults().TraceDigest();
  uint64_t h = kStateHashSeed;
  for (auto& s : fix.zk_servers) {
    h = FoldAppliedLog(*s, h);
  }
  sig.state_hash = h;
  sig.observed_packets = fix.obs().metrics.CounterValue("net.packets");
  return sig;
}

RunSig RunEds(uint64_t seed, bool observe) {
  FixtureOptions options;
  options.system = SystemKind::kExtensibleDepSpace;
  options.num_clients = 2;
  options.seed = seed;
  options.observability = observe;
  CoordFixture fix(options);
  fix.faults().EnablePacketTrace();
  fix.Start();

  FaultPlan plan;
  plan.episodes.push_back({.kind = EpisodeKind::kCrashRestart,
                           .start = Millis(300),
                           .duration = Millis(2700),
                           .node = 3});
  fix.RunPlan(plan);
  DriveWorkload(fix, observe);
  fix.Settle(Seconds(10));

  std::string why;
  EXPECT_TRUE(fix.CheckEdsInvariants(&why)) << why;

  RunSig sig;
  sig.packet_digest = fix.faults().TraceDigest();
  uint64_t h = kStateHashSeed;
  for (auto& s : fix.ds_servers) {
    h = Fnv1aMix(h, s->space().Digest());
  }
  sig.state_hash = h;
  sig.observed_packets = fix.obs().metrics.CounterValue("net.packets");
  return sig;
}

TEST(ObsDeterminismTest, TracingDoesNotPerturbEzk) {
  RunSig off = RunEzk(41, false);
  RunSig on = RunEzk(41, true);
  EXPECT_EQ(off.observed_packets, 0);  // instrumentation really was off
  EXPECT_GT(on.observed_packets, 0);   // ...and really was on
  EXPECT_EQ(on.packet_digest, off.packet_digest);
  EXPECT_EQ(on.state_hash, off.state_hash);
  // Same seed replays; a different seed is a different run.
  EXPECT_TRUE(RunEzk(41, true) == on);
  EXPECT_NE(RunEzk(42, true).packet_digest, on.packet_digest);
}

TEST(ObsDeterminismTest, TracingDoesNotPerturbEds) {
  RunSig off = RunEds(57, false);
  RunSig on = RunEds(57, true);
  EXPECT_EQ(off.observed_packets, 0);
  EXPECT_GT(on.observed_packets, 0);
  EXPECT_EQ(on.packet_digest, off.packet_digest);
  EXPECT_EQ(on.state_hash, off.state_hash);
}

TEST(ObsFixtureTest, TracedOperationBreakdownPartitionsLatency) {
  FixtureOptions options;
  options.system = SystemKind::kZooKeeper;
  options.num_clients = 1;
  options.seed = 7;
  options.observability = true;
  CoordFixture fix(options);
  fix.Start();

  Tracer& tracer = fix.obs().tracer;
  TraceContext root = tracer.BeginTrace("client.op", fix.client_node(0), fix.loop().now());
  ASSERT_TRUE(root.active());
  bool done = false;
  Status got = Status::Ok();
  SimTime done_at = 0;
  fix.coord(0)->Create("/traced", "v", [&](Result<std::string> r) {
    done = true;
    got = r.status();
    done_at = fix.loop().now();
  });
  tracer.SetCurrent(TraceContext{});
  fix.Settle(Seconds(2));
  ASSERT_TRUE(done);
  ASSERT_TRUE(got.ok()) << got.ToString();

  StageBreakdown b = tracer.FinishTrace(root, done_at);
  EXPECT_GT(b.total, 0);
  int64_t sum = 0;
  for (size_t i = 0; i < kStageCount; ++i) {
    sum += b.ns[i];
  }
  EXPECT_EQ(sum, b.total);  // the buckets partition the latency exactly
  // A ZK write crosses the network and waits for the group-commit fsync.
  EXPECT_GT(b.of(Stage::kNetwork), 0);
  EXPECT_GT(b.of(Stage::kFsync), 0);
}

TEST(ObsFixtureTest, MetricsPopulatedAcrossSubsystems) {
  FixtureOptions options;
  options.system = SystemKind::kZooKeeper;
  options.num_clients = 2;
  options.seed = 9;
  options.observability = true;
  CoordFixture fix(options);
  fix.Start();
  for (int i = 0; i < 5; ++i) {
    fix.coord(i % 2)->Create("/obs/m" + std::to_string(i), "v", [](Result<std::string>) {});
  }
  fix.Settle(Seconds(2));
  fix.CollectMetrics();

  const MetricsRegistry& m = fix.obs().metrics;
  EXPECT_GT(m.CounterValue("net.packets"), 0);
  EXPECT_GT(m.CounterValue("net.bytes"), 0);
  EXPECT_GT(m.CounterValue("zab.proposals"), 0);
  EXPECT_GT(m.CounterValue("zab.commits"), 0);
  EXPECT_GT(m.CounterValue("logstore.syncs"), 0);
  EXPECT_GT(m.GaugeValue("server.1.cpu_busy_ns"), 0);
  // Per-link gauges appear after CollectMetrics.
  bool saw_link = false;
  for (const auto& [name, value] : m.gauges()) {
    if (name.rfind("net.link.", 0) == 0 && value > 0) {
      saw_link = true;
    }
  }
  EXPECT_TRUE(saw_link);
}

// With observability off, nothing is counted, sampled or traced, on any
// path: a counter extension registers and runs, a replica crashes and
// restarts (and reloads its extensions), and every operation is issued
// under an attempted trace. Recorder keeps raw samples, so a stray sample
// per event would grow memory with the run.
void ExpectUnobservedRunRecordsNothing(SystemKind system) {
  FixtureOptions options;
  options.system = system;
  options.num_clients = 2;
  options.seed = 5;
  options.retain_spans = true;  // no effect while observability is off
  CoordFixture fix(options);
  fix.Start();

  NodeId victim = IsZkFamily(system) ? ZkLeaderId(fix) : 3;
  ASSERT_NE(victim, 0u);
  FaultPlan plan;
  plan.episodes.push_back({.kind = EpisodeKind::kCrashRestart,
                           .start = Millis(1500),
                           .duration = Millis(2500),
                           .node = victim});
  fix.RunPlan(plan);
  fix.loop().Schedule(Millis(10), [&fix]() {
    fix.coord(0)->Create("/ctr", "0", [](Result<std::string>) {});
  });
  fix.loop().Schedule(Millis(200), [&fix]() {
    fix.coord(0)->RegisterExtension("ctr_increment", kCounterExtension, [](Status) {});
  });
  for (int i = 0; i < 8; ++i) {
    fix.loop().Schedule(Millis(500) + Millis(100) * i, [&fix]() {
      fix.coord(0)->Read("/ctr-increment", [](Result<std::string>) {});
    });
  }
  DriveWorkload(fix, /*observe=*/true);  // BeginTrace on a disabled tracer
  fix.Settle(Seconds(10));
  std::string counter;
  fix.coord(0)->Read("/ctr", [&counter](Result<std::string> r) {
    counter = r.ok() ? *r : r.status().ToString();
  });
  fix.Settle(Seconds(1));
  EXPECT_EQ(counter, "8");  // the extension ran
  fix.CollectMetrics();

  const Obs& obs = fix.obs();
  EXPECT_FALSE(obs.enabled());
  // Every component resolved its instruments from the loop at construction.
  EXPECT_GT(obs.metrics.counters().count("ext.invocations"), 0u);
  EXPECT_GT(obs.metrics.histograms().count("cpu.queue_wait_ns"), 0u);
  for (const auto& [name, counter] : obs.metrics.counters()) {
    EXPECT_EQ(counter.total(), 0) << name;
  }
  for (const auto& [name, histogram] : obs.metrics.histograms()) {
    EXPECT_EQ(histogram.count(), 0u) << name;
  }
  EXPECT_TRUE(obs.metrics.gauges().empty());
  EXPECT_EQ(obs.tracer.live_traces(), 0u);
  EXPECT_EQ(obs.tracer.retained_spans(), 0u);
}

TEST(ObsFixtureTest, ObservabilityOffRecordsNothingOnEzk) {
  ExpectUnobservedRunRecordsNothing(SystemKind::kExtensibleZooKeeper);
}

TEST(ObsFixtureTest, ObservabilityOffRecordsNothingOnEds) {
  ExpectUnobservedRunRecordsNothing(SystemKind::kExtensibleDepSpace);
}

// Clients the fixture builds for itself report like any other: the
// AdminReconfig session (node 90001) counts its failover.
TEST(ObsFixtureTest, AdminSessionFailoverIsCounted) {
  FixtureOptions options = GroupOptions(SystemKind::kZooKeeper, 41);
  options.observability = true;
  CoordFixture fix(options);
  fix.Start();
  // Four voters, so the group keeps a quorum without replica 1, the one the
  // admin session opened on.
  ASSERT_TRUE(fix.JoinReplica(4).ok());
  EXPECT_EQ(fix.obs().metrics.CounterValue("client.zk.failovers"), 0);
  fix.faults().Crash(1);
  fix.Settle(Seconds(10));  // a session timeout of silence, then failover
  EXPECT_GE(fix.obs().metrics.CounterValue("client.zk.failovers"), 1);
  EXPECT_GE(fix.obs().metrics.CounterValue("client.zk.reconnect_attempts"), 1);
}

// ... and so does a sharded DepSpace admin client (node 70000 + shard),
// which retransmits its kSetMapVersion op while cut off from its shard.
TEST(ObsFixtureTest, ShardAdminRetransmitIsCounted) {
  FixtureOptions options = GroupOptions(SystemKind::kDepSpace, 43);
  options.num_shards = 2;
  options.observability = true;
  CoordFixture fix(options);
  fix.Start();
  EXPECT_EQ(fix.obs().metrics.CounterValue("client.ds.retransmits"), 0);
  for (DsServer* server : fix.DsShardServers(0)) {
    fix.net().Disconnect(70000, server->id());
  }
  fix.AddShard();
  fix.Settle(Seconds(3));
  fix.net().HealAllPartitions();
  fix.Settle(Seconds(3));
  EXPECT_GE(fix.obs().metrics.CounterValue("client.ds.retransmits"), 1);
}

// First reconnect attempt per client after a heal, bucketed to milliseconds
// (link jitter is microseconds; backoff jitter is tens-to-hundreds of ms).
std::set<int64_t> PostHealAttemptBuckets(double backoff_jitter) {
  FixtureOptions options;
  options.system = SystemKind::kZooKeeper;
  options.num_clients = 8;
  options.seed = 77;
  options.zk_client.reconnect.backoff_jitter = backoff_jitter;
  CoordFixture fix(options);
  fix.Start();

  for (size_t i = 0; i < fix.num_clients(); ++i) {
    for (auto& s : fix.zk_servers) {
      fix.net().Disconnect(fix.client_node(i), s->id());
    }
  }
  fix.Settle(Seconds(8));  // sessions die; every client sits in backoff

  std::map<NodeId, SimTime> first;
  fix.net().SetDeliverySink([&](SimTime at, const Packet& pkt) {
    if (pkt.src >= 100 && first.find(pkt.src) == first.end()) {
      first[pkt.src] = at;
    }
  });
  fix.net().HealAllPartitions();
  fix.Settle(Seconds(10));
  EXPECT_EQ(first.size(), fix.num_clients());

  std::set<int64_t> buckets;
  for (const auto& [node, at] : first) {
    buckets.insert(at / Millis(1));
  }
  return buckets;
}

TEST(ObsJitterTest, BackoffJitterBreaksReconnectLockstep) {
  std::set<int64_t> lockstep = PostHealAttemptBuckets(0.0);
  std::set<int64_t> jittered = PostHealAttemptBuckets(0.5);
  // Without jitter, identically configured clients partitioned by the same
  // fault retry in lockstep: their first post-heal attempts land together.
  EXPECT_LE(lockstep.size(), 2u);
  // With jitter each client draws from its own seeded stream and the burst
  // spreads out.
  EXPECT_GE(jittered.size(), 4u);
  EXPECT_GT(jittered.size(), lockstep.size());
}

TEST(ObsRetryTest, DsClientGivesUpAfterMaxAttempts) {
  FixtureOptions options;
  options.system = SystemKind::kDepSpace;
  options.num_clients = 1;
  options.seed = 33;
  options.observability = true;
  options.ds_client.reconnect.initial_backoff = Millis(100);
  options.ds_client.reconnect.max_backoff = Millis(400);
  options.ds_client.reconnect.max_attempts = 3;
  CoordFixture fix(options);
  fix.Start();

  for (auto& s : fix.ds_servers) {
    fix.net().Disconnect(fix.client_node(0), s->id());
  }
  bool done = false;
  Status got = Status::Ok();
  fix.ds_client(0)->Out(ObjectTuple("/obs/giveup", "v"), [&](Result<DsReply> r) {
    done = true;
    got = r.status();
  });
  fix.Settle(Seconds(5));
  ASSERT_TRUE(done) << "call must complete (by giving up), not hang";
  EXPECT_EQ(got.code(), ErrorCode::kConnectionLoss);
  EXPECT_GE(fix.obs().metrics.CounterValue("client.ds.give_ups"), 1);
  EXPECT_GE(fix.obs().metrics.CounterValue("client.ds.retransmits"), 3);
}

TEST(ObsRetryTest, DsClientRetriesForeverByDefaultAcrossHeal) {
  FixtureOptions options;
  options.system = SystemKind::kDepSpace;
  options.num_clients = 1;
  options.seed = 34;
  CoordFixture fix(options);
  fix.Start();

  for (auto& s : fix.ds_servers) {
    fix.net().Disconnect(fix.client_node(0), s->id());
  }
  bool done = false;
  bool ok = false;
  fix.ds_client(0)->Out(ObjectTuple("/obs/persist", "v"), [&](Result<DsReply> r) {
    done = true;
    ok = r.ok();
  });
  fix.Settle(Seconds(4));
  EXPECT_FALSE(done) << "max_attempts=0 must keep retrying, not give up";
  fix.net().HealAllPartitions();
  fix.Settle(Seconds(12));
  EXPECT_TRUE(done);
  EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace edc
