// Determinism across execution engines, pinned: these seeded EZK, EDS and
// 2PC scenarios must produce the packet-trace and replica-state digests
// below. They were recorded when certified handlers could still be sent to
// the tree-walking interpreter instead of the bytecode VM, and both engines
// gave exactly these digests. The VM charges steps node for node as the
// tree walk does, so the simulated CPU charge — and with it every delivery
// time in the digest — cannot move (docs/bytecode_vm.md, "verification pays
// once"). A change to the VM, the compiler or the cost model that moves
// simulated time fails here.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "edc/common/result.h"
#include "edc/harness/fixture.h"
#include "edc/harness/invariants.h"
#include "edc/recipes/recipes.h"
#include "edc/recipes/scripts.h"
#include "edc/recipes/two_phase.h"
#include "tests/harness/fixture_helpers.h"

namespace edc {
namespace {

struct RunSig {
  uint64_t packet_digest = 0;
  uint64_t state_hash = 0;
  int64_t invocations = 0;
  int64_t certified = 0;
  int64_t vm_dispatches = 0;
};

// Registers the counter extension and bumps it repeatedly; the handler is
// loop-free and whitelisted, so the analyzer certifies it and compiles it.
RunSig RunCounterWorkload(SystemKind system, uint64_t seed) {
  FixtureOptions options;
  options.system = system;
  options.num_clients = 1;
  options.seed = seed;
  options.observability = true;  // counters only; proven non-perturbing
  CoordFixture fix(options);
  fix.faults().EnablePacketTrace();
  fix.Start();

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
  fix.Settle(Seconds(5));

  RunSig sig;
  sig.packet_digest = fix.faults().TraceDigest();
  uint64_t h = kStateHashSeed;
  if (IsZkFamily(system)) {
    for (auto& s : fix.zk_servers) {
      h = FoldAppliedLog(*s, h);
    }
  } else {
    std::string why;
    EXPECT_TRUE(fix.CheckEdsInvariants(&why)) << why;
    for (auto& s : fix.ds_servers) {
      h = Fnv1aMix(h, s->space().Digest());
    }
  }
  sig.state_hash = h;
  sig.invocations = fix.obs().metrics.CounterValue("ext.invocations");
  sig.certified = fix.obs().metrics.CounterValue("ext.certified");
  sig.vm_dispatches = fix.obs().metrics.CounterValue("ext.vm_dispatches");
  return sig;
}

// What both engines gave before the tree walker left the production path
// (with the VM on and off, the runs agreed bit for bit).
constexpr uint64_t kEzkPacketDigest = 0x7660aa6679d2b8beull;
constexpr uint64_t kEzkStateHash = 0xf65ebd62e60b17f0ull;
constexpr uint64_t kEdsPacketDigest = 0x6834057c76e904c2ull;
constexpr uint64_t kEdsStateHash = 0x58641ec600424a23ull;
constexpr uint64_t kTwoPhasePacketDigest = 0xf61e18a0f6bba2b0ull;
constexpr uint64_t kTwoPhaseStateHash = 0x74c7268124fdb9d9ull;

TEST(ElisionDigestTest, EzkDigestsIdenticalWithVmOnAndOff) {
  RunSig run = RunCounterWorkload(SystemKind::kExtensibleZooKeeper, 71);

  // Every invocation is certified and dispatched to the VM.
  EXPECT_EQ(run.invocations, 8);
  EXPECT_EQ(run.certified, run.invocations);
  EXPECT_EQ(run.vm_dispatches, run.invocations);

  EXPECT_EQ(run.packet_digest, kEzkPacketDigest);
  EXPECT_EQ(run.state_hash, kEzkStateHash);
}

TEST(ElisionDigestTest, EdsDigestsIdenticalWithVmOnAndOff) {
  RunSig run = RunCounterWorkload(SystemKind::kExtensibleDepSpace, 83);

  // Four replicas each execute the eight increments.
  EXPECT_EQ(run.invocations, 32);
  EXPECT_EQ(run.certified, run.invocations);
  EXPECT_EQ(run.vm_dispatches, run.invocations);

  EXPECT_EQ(run.packet_digest, kEdsPacketDigest);
  EXPECT_EQ(run.state_hash, kEdsStateHash);
}

// The 2PC participant is the stress case for the interval/length analysis:
// nested foreach over split() results, certified only via the amortized
// total-length bound. Its digests pin that running it on the VM is
// invisible to the packet trace and replica state.
RunSig RunTwoPhaseWorkload(uint64_t seed) {
  FixtureOptions options;
  options.system = SystemKind::kExtensibleZooKeeper;
  options.num_clients = 1;
  options.num_shards = 2;
  options.seed = seed;
  options.observability = true;
  CoordFixture fix(options);
  fix.faults().EnablePacketTrace();
  fix.Start();

  ZkTwoPhase tp(fix.zk_router(0));
  tp.Setup([](Status) {});
  fix.Settle(Seconds(3));
  tp.Attach([](Status) {});
  fix.Settle(Seconds(2));

  const ShardMap& map = fix.shard_map();
  std::string a = map.SubtreeForShard("/ta", 0);
  std::string b = map.SubtreeForShard("/tb", 1);
  tp.Multi({TwoPhaseOp::Create(a, "va"), TwoPhaseOp::Create(b, "vb")},
           [](Status) {});
  fix.Settle(Seconds(5));
  tp.Multi({TwoPhaseOp::Update(a, "va2"), TwoPhaseOp::Delete(b)}, [](Status) {});
  fix.Settle(Seconds(5));

  RunSig sig;
  sig.packet_digest = fix.faults().TraceDigest();
  uint64_t h = kStateHashSeed;
  for (auto& s : fix.zk_servers) {
    h = FoldAppliedLog(*s, h);
  }
  sig.state_hash = h;
  sig.invocations = fix.obs().metrics.CounterValue("ext.invocations");
  sig.certified = fix.obs().metrics.CounterValue("ext.certified");
  sig.vm_dispatches = fix.obs().metrics.CounterValue("ext.vm_dispatches");
  return sig;
}

TEST(ElisionDigestTest, TwoPhaseDigestsIdenticalWithVmOnAndOff) {
  RunSig run = RunTwoPhaseWorkload(101);

  // Every prepare/commit invocation is certified and dispatched to the VM.
  EXPECT_EQ(run.invocations, 8);
  EXPECT_EQ(run.certified, run.invocations);
  EXPECT_EQ(run.vm_dispatches, run.invocations);

  EXPECT_EQ(run.packet_digest, kTwoPhasePacketDigest);
  EXPECT_EQ(run.state_hash, kTwoPhaseStateHash);
}

// The EDS queue extension (Fig. 7) against every path of the replica state
// that the tuple space and the extension manager keep: sub_objects and
// delete_object on every remove, a lease tuple inside the queue that
// expires after its owner stops renewing it, and a replica that crashes and
// rejoins by state transfer (its extension registry and everything derived
// from the tuple space are rebuilt from the transferred snapshot). These
// digests were recorded before the tuple space was indexed and object views
// were shared: neither may move a packet or a tuple.
struct QueueSig {
  uint64_t packet_digest = 0;
  uint64_t state_hash = 0;
  int64_t invocations = 0;
  uint64_t state_transfers = 0;
  std::string removed;  // the values the removes returned, in order
  int failed_removes = 0;
  bool lease_left = true;
};

QueueSig RunQueueWorkload(uint64_t seed) {
  FixtureOptions options;
  options.system = SystemKind::kExtensibleDepSpace;
  options.num_clients = 2;
  options.seed = seed;
  options.observability = true;
  CoordFixture fix(options);
  fix.faults().EnablePacketTrace();
  fix.Start();

  DistributedQueue q0(fix.coord(0), /*use_extension=*/true);
  DistributedQueue q1(fix.coord(1), /*use_extension=*/true);
  QueueSig sig;
  EventLoop& loop = fix.loop();
  SimTime t0 = loop.now();
  auto at = [&loop, t0](Duration d, std::function<void()> fn) {
    loop.ScheduleAt(t0 + d, std::move(fn));
  };
  at(Millis(10), [&q0]() { q0.Setup([](Status) {}); });
  at(Millis(400), [&q0, &q1]() {
    q0.Attach([](Status) {});
    q1.Attach([](Status) {});
  });
  auto add = [&](int i) {
    DistributedQueue& q = i % 2 == 0 ? q0 : q1;
    q.Add("e" + std::to_string(100 + i), "v" + std::to_string(i), [](Status) {});
  };
  for (int i = 0; i < 30; ++i) {
    at(Millis(500) + Millis(50) * i, [&add, i]() { add(i); });
  }
  for (int i = 30; i < 50; ++i) {
    at(Millis(5000) + Millis(50) * (i - 30), [&add, i]() { add(i); });
  }
  // A queue element held by a lease that its owner stops renewing: the
  // extension lists it (it is younger than the head) until it expires.
  const std::string lease_path = "/queue/lease-c1";
  at(Millis(2000), [&fix, lease_path]() { fix.coord(1)->Monitor(lease_path, [](Status) {}); });
  at(Millis(2100), [&fix, lease_path]() {
    // The lease's renewal template pins both fields (DsClient::OutLease).
    fix.ds_client(1)->ReleaseLease(
        DsTemplate{DsTField::Exact(DsField{lease_path}),
                   DsTField::Exact(DsField{fix.coord(1)->tag()})});
  });
  for (int i = 0; i < 35; ++i) {
    at(Millis(1000) + Millis(200) * i, [&q0, &q1, &sig, i]() {
      DistributedQueue& q = i % 2 == 0 ? q0 : q1;
      q.Remove([&sig](Result<std::string> r) {
        if (r.ok()) {
          sig.removed += *r + ",";
        } else {
          ++sig.failed_removes;
        }
      });
    });
  }
  FaultPlan plan;
  plan.episodes.push_back({.kind = EpisodeKind::kCrashRestart,
                           .start = Millis(1200),
                           .duration = Millis(3300),
                           .node = 3});
  fix.RunPlan(plan);
  fix.Settle(Seconds(12));

  std::string why;
  EXPECT_TRUE(fix.CheckEdsInvariants(&why)) << why;
  sig.packet_digest = fix.faults().TraceDigest();
  uint64_t h = kStateHashSeed;
  for (auto& s : fix.ds_servers) {
    h = Fnv1aMix(h, s->space().Digest());
  }
  sig.state_hash = h;
  sig.invocations = fix.obs().metrics.CounterValue("ext.invocations");
  sig.state_transfers = fix.ds_servers[2]->bft().state_transfers();
  sig.lease_left = fix.ds_servers[0]->space().HasMatch(ObjectTemplate(lease_path));
  return sig;
}

constexpr uint64_t kEdsQueuePacketDigest = 0xfd1342c62dd7c797ull;
constexpr uint64_t kEdsQueueStateHash = 0x8822318cb144c21bull;

TEST(ElisionDigestTest, EdsQueueDigestsPinned) {
  QueueSig run = RunQueueWorkload(97);

  EXPECT_EQ(run.failed_removes, 0);
  EXPECT_FALSE(run.lease_left) << "the released lease tuple must have expired";
  EXPECT_GE(run.state_transfers, 1u) << "replica 3 must rejoin by state transfer";
  // The queue stays FIFO through the crash window; the lease element never
  // reaches the head before it expires.
  std::string fifo;
  for (int i = 0; i < 35; ++i) {
    fifo += "v" + std::to_string(i) + ",";
  }
  EXPECT_EQ(run.removed, fifo);
  // 35 removes on each of four replicas, less those replica 3 missed while
  // down and received as state.
  EXPECT_EQ(run.invocations, 123);

  EXPECT_EQ(run.packet_digest, kEdsQueuePacketDigest);
  EXPECT_EQ(run.state_hash, kEdsQueueStateHash);
}

// The EZK counter through every Zab recovery path: a follower that crashes
// and restarts replays its log and catches up by DIFF; a follower that
// restarts behind the leader's compacted log floor catches up by SNAP; and
// a leader cut off from its followers logs a proposal no one else has,
// crashes, and on restart is cut back by TRUNC to the new leader's log.
// These digests were recorded while each replica still kept a decoded copy
// of its log beside the LogStore: reading the history out of the LogStore
// may not move a packet or an applied transaction.
struct FailoverSig {
  uint64_t packet_digest = 0;
  uint64_t state_hash = 0;
  int increments_ok = 0;
  bool leader_changed = false;
  bool logs_agree = false;
};

FailoverSig RunEzkFailoverWorkload(uint64_t seed) {
  FixtureOptions options;
  options.system = SystemKind::kExtensibleZooKeeper;
  options.num_clients = 3;
  options.seed = seed;
  CoordFixture fix(options);
  fix.faults().EnablePacketTrace();
  fix.Start();

  ZkServer* leader = nullptr;
  std::vector<NodeId> followers;
  for (auto& s : fix.zk_servers) {
    if (s->zab().is_leader()) {
      leader = s.get();
    } else {
      followers.push_back(s->id());
    }
  }
  EXPECT_NE(leader, nullptr);
  EXPECT_EQ(followers.size(), 2u);
  if (leader == nullptr || followers.size() != 2) {
    return {};
  }
  NodeId old_leader = leader->id();
  NodeId lagger = followers.front();
  // A client whose session lives on the old leader: its write during the
  // partition reaches that replica's log and no other.
  size_t leader_client = 0;
  for (size_t i = 0; i < fix.num_clients(); ++i) {
    if (fix.zk_client(i)->current_server() == old_leader) {
      leader_client = i;
    }
  }

  FailoverSig sig;
  EventLoop& loop = fix.loop();
  SimTime t0 = loop.now();
  auto at = [&loop, t0](Duration d, std::function<void()> fn) {
    loop.ScheduleAt(t0 + d, std::move(fn));
  };
  std::vector<std::unique_ptr<SharedCounter>> counters;
  for (size_t i = 0; i < fix.num_clients(); ++i) {
    counters.push_back(std::make_unique<SharedCounter>(fix.coord(i), /*use_extension=*/true));
  }
  auto bump = [&counters, &sig](size_t client) {
    counters[client]->Increment([&sig](Result<int64_t> r) {
      if (r.ok()) {
        ++sig.increments_ok;
      }
    });
  };
  at(Millis(10), [&counters]() { counters[0]->Setup([](Status) {}); });
  at(Millis(300), [&counters]() {
    counters[1]->Attach([](Status) {});
    counters[2]->Attach([](Status) {});
  });
  auto bumps = [&](Duration from, int n) {
    for (int i = 0; i < n; ++i) {
      at(from + Millis(60) * i, [&bump, i]() { bump(static_cast<size_t>(i) % 3); });
    }
  };
  bumps(Millis(500), 8);
  // DIFF: the lagger misses five increments and replays its log on restart.
  at(Millis(1500), [&fix, lagger]() { fix.faults().Crash(lagger); });
  bumps(Millis(1600), 5);
  at(Millis(2300), [&fix, lagger]() { fix.faults().Restart(lagger); });
  bumps(Millis(2600), 4);
  // SNAP: the leader compacts past the lagger's last zxid while it is down.
  at(Millis(3000), [&fix, lagger]() { fix.faults().Crash(lagger); });
  bumps(Millis(3100), 5);
  at(Millis(3700), [leader]() { leader->zab().CompactLog(); });
  at(Millis(4000), [&fix, lagger]() { fix.faults().Restart(lagger); });
  bumps(Millis(4300), 4);
  // TRUNC: the partitioned leader logs a write its followers never see,
  // crashes, and restarts after they elected a leader without it.
  at(Millis(5000), [&fix, old_leader, followers]() {
    fix.faults().Partition({old_leader}, followers);
  });
  at(Millis(5010), [&bump, leader_client]() { bump(leader_client); });
  at(Millis(5050), [&fix, old_leader]() { fix.faults().Crash(old_leader); });
  at(Millis(5600), [&fix]() { fix.faults().Heal(); });
  at(Millis(5700), [&fix, old_leader]() { fix.faults().Restart(old_leader); });
  bumps(Millis(6500), 6);
  fix.Settle(Seconds(12));

  sig.packet_digest = fix.faults().TraceDigest();
  uint64_t h = kStateHashSeed;
  for (auto& s : fix.zk_servers) {
    h = FoldAppliedLog(*s, h);
    if (s->zab().is_leader() && s->id() != old_leader) {
      sig.leader_changed = true;
    }
  }
  sig.state_hash = h;
  sig.logs_agree = PrefixConsistentLogs(fix.zk_servers);
  return sig;
}

constexpr uint64_t kEzkFailoverPacketDigest = 0xd8954340c93c4f06ull;
constexpr uint64_t kEzkFailoverStateHash = 0xc11c7053c0acad13ull;

TEST(ElisionDigestTest, EzkFailoverDigestsPinned) {
  FailoverSig run = RunEzkFailoverWorkload(43);

  EXPECT_TRUE(run.leader_changed) << "the partitioned leader must have been replaced";
  EXPECT_TRUE(run.logs_agree);
  // 33 increments are issued; those caught in a crash window fail.
  EXPECT_EQ(run.increments_ok, 28);

  EXPECT_EQ(run.packet_digest, kEzkFailoverPacketDigest);
  EXPECT_EQ(run.state_hash, kEzkFailoverStateHash);
}

// The EZK counter through a membership change under load: replica 4 joins
// (observer, catch-up, promotion) while three clients keep incrementing,
// then the current leader is removed and retires without crashing, and the
// survivors elect a new leader and carry on. These digests were recorded
// while each replica layer still kept its own crash generation counter:
// folding them into one host incarnation may not move a packet or an
// applied transaction on the retire path.
struct ReconfigSig {
  uint64_t packet_digest = 0;
  std::vector<uint64_t> replica_hashes;  // applied-log digest, in zk_servers order
  int increments_ok = 0;
  int increments_failed = 0;
  int increments_no_node = 0;  // an increment read as a plain, missing node
  bool joined = false;
  bool removed = false;
  bool retired_stopped = false;
  bool logs_agree = false;
};

ReconfigSig RunEzkReconfigWorkload(uint64_t seed) {
  FixtureOptions options;
  options.system = SystemKind::kExtensibleZooKeeper;
  options.num_clients = 3;
  options.seed = seed;
  CoordFixture fix(options);
  fix.faults().EnablePacketTrace();
  fix.Start();

  ReconfigSig sig;
  EventLoop& loop = fix.loop();
  SimTime t0 = loop.now();
  SimTime load_end = t0 + Seconds(9);
  std::vector<std::unique_ptr<SharedCounter>> counters;
  for (size_t i = 0; i < fix.num_clients(); ++i) {
    counters.push_back(std::make_unique<SharedCounter>(fix.coord(i), /*use_extension=*/true));
  }
  counters[0]->Setup([](Status) {});
  fix.Settle(Millis(300));
  counters[1]->Attach([](Status) {});
  counters[2]->Attach([](Status) {});
  fix.Settle(Millis(200));
  // One increment every 40 ms, round-robin over the clients, until load_end.
  int next = 0;
  std::function<void()> tick = [&]() {
    if (loop.now() >= load_end) {
      return;
    }
    counters[static_cast<size_t>(next++) % counters.size()]->Increment(
        [&sig](Result<int64_t> r) {
          ++(r.ok() ? sig.increments_ok : sig.increments_failed);
          sig.increments_no_node += r.code() == ErrorCode::kNoNode ? 1 : 0;
        });
    loop.Schedule(Millis(40), tick);
  };
  tick();
  fix.Settle(Millis(500));

  sig.joined = fix.JoinReplica(4).ok();
  fix.Settle(Millis(500));
  NodeId leader = 0;
  for (auto& s : fix.zk_servers) {
    if (s->running() && s->IsLeader()) {
      leader = s->id();
    }
  }
  sig.removed = leader != 0 && fix.RemoveReplica(leader).ok();
  fix.Settle(std::max<Duration>(load_end - loop.now(), 0) + Seconds(3));

  sig.packet_digest = fix.faults().TraceDigest();
  for (auto& s : fix.zk_servers) {
    sig.replica_hashes.push_back(FoldAppliedLog(*s));
  }
  ZkServer* retired = fix.ZkServerById(leader);
  sig.retired_stopped = retired != nullptr && !retired->running();
  sig.logs_agree = PrefixConsistentLogs(fix.zk_servers);
  return sig;
}

// Re-recorded when the recipe adapter began re-acknowledging extensions after
// a session change: client 2's new session acknowledges the counter again.
constexpr uint64_t kEzkReconfigPacketDigest = 0x4001d42809997813ull;
constexpr uint64_t kEzkReconfigReplicaHashes[4] = {0x084d51b958c5b8f2ull, 0x084d51b958c5b8f2ull,
                                                   0xffb54af86b69ca71ull, 0x084d51b958c5b8f2ull};

TEST(ElisionDigestTest, ReconfigDigestsPinned) {
  ReconfigSig run = RunEzkReconfigWorkload(67);

  EXPECT_TRUE(run.joined);
  EXPECT_TRUE(run.removed);
  EXPECT_TRUE(run.retired_stopped) << "the removed leader must retire";
  EXPECT_TRUE(run.logs_agree);
  // 209 increments are issued. The client whose session lived on the
  // removed leader fails the 4 it issued while disconnected with
  // kSessionExpired; its new session acknowledges the counter again before
  // its next increment.
  EXPECT_EQ(run.increments_ok, 205);
  EXPECT_EQ(run.increments_failed, 4);
  ASSERT_EQ(run.replica_hashes.size(), 4u);

  EXPECT_EQ(run.packet_digest, kEzkReconfigPacketDigest);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(run.replica_hashes[i], kEzkReconfigReplicaHashes[i]) << "replica " << i;
  }
}

// Acknowledgments belong to a session (§3.6): a recipe client that fails
// over to a new session acknowledges its extension again before its next
// call, so none of its later increments is read as a plain, missing node.
TEST(ElisionDigestTest, ReconfigFailedOverClientKeepsItsExtension) {
  ReconfigSig run = RunEzkReconfigWorkload(67);
  EXPECT_TRUE(run.removed);
  EXPECT_EQ(run.increments_no_node, 0);
}

// Sharded EDS through every router path: an extension registered and
// acknowledged on every shard (fan-out join), counters and a queue pinned to
// chosen shards, plain objects spread over the ring, a wildcard RdAll
// (scatter-gather), a replica of shard 1 that crashes and rejoins by state
// transfer, and a shard added mid-run, after which both routers are rejected
// as stale, refresh and re-route. These digests were recorded before the
// fixture's boot code and the two routers' retry code were merged: neither
// may move a packet or a tuple.
struct ShardedEdsSig {
  uint64_t packet_digest = 0;
  std::vector<uint64_t> shard_hashes;  // per shard, in map order
  int ops_failed = 0;
  std::string removed;  // the values the queue removes returned, in order
  std::string reads;    // what each read after AddShard saw; "-" = absent
  size_t scattered = 0;  // tuples the wildcard RdAll gathered
  int stale_refreshes = 0;
  uint64_t state_transfers = 0;
};

ShardedEdsSig RunShardedEdsWorkload(uint64_t seed) {
  FixtureOptions options;
  options.system = SystemKind::kExtensibleDepSpace;
  options.num_clients = 2;
  options.num_shards = 2;
  options.seed = seed;
  options.observability = true;
  CoordFixture fix(options);
  fix.faults().EnablePacketTrace();
  fix.Start();

  ShardedEdsSig sig;
  EventLoop& loop = fix.loop();
  SimTime t0 = loop.now();
  auto at = [&loop, t0](Duration d, std::function<void()> fn) {
    loop.ScheduleAt(t0 + d, std::move(fn));
  };
  auto count = [&sig](const Status& s) { sig.ops_failed += s.ok() ? 0 : 1; };
  auto count_value = [&sig](const Result<std::string>& r) { sig.ops_failed += r.ok() ? 0 : 1; };
  auto count_int = [&sig](const Result<int64_t>& r) { sig.ops_failed += r.ok() ? 0 : 1; };

  const ShardMap& map = fix.shard_map();
  SharedCounter c0(fix.coord(0), /*use_extension=*/true, map.SubtreeForShard("/ca", 0));
  SharedCounter c1(fix.coord(1), /*use_extension=*/true, map.SubtreeForShard("/ca", 0));
  DistributedQueue q0(fix.coord(0), /*use_extension=*/true, map.SubtreeForShard("/qb", 1));
  DistributedQueue q1(fix.coord(1), /*use_extension=*/true, map.SubtreeForShard("/qb", 1));
  at(Millis(10), [&]() {
    c0.Setup(count);
    q0.Setup(count);
  });
  at(Millis(600), [&]() {
    c1.Attach(count);
    q1.Attach(count);
  });
  auto obj = [](int i) { return "/obj" + std::to_string(i); };
  for (int i = 0; i < 12; ++i) {
    at(Millis(900) + Millis(20) * i, [&, i]() {
      fix.coord(i % 2)->Create(obj(i), "v" + std::to_string(i), count_value);
    });
  }
  for (int i = 0; i < 10; ++i) {
    at(Millis(1300) + Millis(40) * i, [&, i]() {
      SharedCounter& c = i % 2 == 0 ? c0 : c1;
      c.Increment(count_int);
      DistributedQueue& q = i % 2 == 0 ? q0 : q1;
      q.Add("e" + std::to_string(100 + i), "q" + std::to_string(i), count);
    });
  }
  for (int i = 0; i < 6; ++i) {
    at(Millis(1800) + Millis(60) * i, [&, i]() {
      DistributedQueue& q = i % 2 == 0 ? q1 : q0;
      q.Remove([&sig](Result<std::string> r) {
        sig.removed += r.ok() ? *r + "," : "!,";
      });
      fix.coord((i + 1) % 2)->Update(obj(i), "u" + std::to_string(i), count);
    });
  }
  at(Millis(2300), [&]() {
    fix.ds_router(0)->RdAll(DsTemplate{DsTField::Any(), DsTField::Any()},
                            [&sig](Result<DsReply> r) {
                              if (r.ok()) {
                                sig.scattered = r->tuples.size();
                              }
                            });
  });
  // Shard 1's replica 12 misses traffic and rejoins by state transfer.
  FaultPlan plan;
  plan.episodes.push_back({.kind = EpisodeKind::kCrashRestart,
                           .start = Millis(1500),
                           .duration = Millis(1100),
                           .node = 12});
  fix.RunPlan(plan);
  fix.Settle(Millis(3000));

  // A third shard joins; the next op of each router is rejected as stale.
  fix.AddShard();
  SimTime t1 = loop.now();
  for (int i = 12; i < 24; ++i) {
    loop.ScheduleAt(t1 + Millis(20) * (i - 12), [&, i]() {
      fix.coord(i % 2)->Create(obj(i), "v" + std::to_string(i), count_value);
    });
  }
  for (int i = 0; i < 24; ++i) {
    loop.ScheduleAt(t1 + Millis(400) + Millis(15) * i, [&, i]() {
      fix.coord((i + 1) % 2)->Read(obj(i), [&sig](Result<std::string> r) {
        sig.reads += r.ok() ? *r + "," : r.code() == ErrorCode::kNoNode ? "-," : "!,";
      });
    });
  }
  for (int i = 0; i < 4; ++i) {
    loop.ScheduleAt(t1 + Millis(900) + Millis(50) * i, [&, i]() {
      SharedCounter& c = i % 2 == 0 ? c1 : c0;
      c.Increment(count_int);
      fix.coord(i % 2)->Delete(obj(i + 12), count);
    });
  }
  fix.Settle(Seconds(3));

  std::string why;
  EXPECT_TRUE(fix.CheckEdsInvariants(&why)) << why;
  sig.packet_digest = fix.faults().TraceDigest();
  for (const ShardEntry& entry : fix.shard_map().entries()) {
    uint64_t h = kStateHashSeed;
    for (DsServer* s : fix.DsShardServers(entry.shard_id)) {
      h = Fnv1aMix(h, s->space().Digest());
    }
    sig.shard_hashes.push_back(h);
  }
  sig.stale_refreshes = fix.ds_router(0)->stale_refreshes() + fix.ds_router(1)->stale_refreshes();
  sig.state_transfers = fix.DsShardServers(1)[1]->bft().state_transfers();
  return sig;
}

constexpr uint64_t kShardedEdsPacketDigest = 0xc8a987c364f252b4ull;
constexpr uint64_t kShardedEdsShardHashes[3] = {0x7add91d68729064bull, 0x09ce65e2cfe77803ull,
                                                0x583460bdb9f1e97bull};

TEST(ElisionDigestTest, ShardedEdsDigestsPinned) {
  ShardedEdsSig run = RunShardedEdsWorkload(59);

  EXPECT_EQ(run.ops_failed, 0);
  EXPECT_EQ(run.stale_refreshes, 2) << "each router refreshes once after AddShard";
  EXPECT_GE(run.state_transfers, 1u) << "replica 12 must rejoin by state transfer";
  EXPECT_EQ(run.scattered, 28u);
  EXPECT_EQ(run.removed, "q0,q1,q2,q3,q4,q5,");
  // AddShard moves no data: the three keys the new shard took over read as
  // absent through either router.
  EXPECT_EQ(run.reads,
            "-,-,-,u3,u4,u5,v6,v7,v8,v9,v10,v11,v12,v13,v14,v15,v16,v17,v18,v19,v20,v21,v22,v23,");
  ASSERT_EQ(run.shard_hashes.size(), 3u);

  EXPECT_EQ(run.packet_digest, kShardedEdsPacketDigest);
  for (size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(run.shard_hashes[s], kShardedEdsShardHashes[s]) << "shard " << s;
  }
}

// The EZK shard router's whole surface on two shards, through both routers:
// the counter and queue extensions in per-shard namespaces, plain creates,
// reads, updates and deletes, a deletion watch, a same-shard Multi and a
// cross-shard one the router rejects, a replica of shard 1 that crashes and
// restarts, and a shard added mid-run, after which both routers are
// rejected as stale, refresh and re-route. These digests were recorded
// before the routers' per-operation wrappers were folded into one routing
// function: that may move no packet and no transaction.
struct ShardedEzkSig {
  uint64_t packet_digest = 0;
  std::vector<uint64_t> shard_hashes;  // applied logs per shard, in map order
  int ops_failed = 0;
  int multis_rejected = 0;  // kInvalidArgument from the cross-shard Multi
  std::string removed;      // the values the queue removes returned, in order
  std::string reads;        // what each read after AddShard saw; "-" = absent
  std::string deleted;      // the deletion watches that fired
  int stale_refreshes = 0;
};

ShardedEzkSig RunShardedEzkWorkload(uint64_t seed) {
  FixtureOptions options;
  options.system = SystemKind::kExtensibleZooKeeper;
  options.num_clients = 2;
  options.num_shards = 2;
  options.seed = seed;
  options.observability = true;
  CoordFixture fix(options);
  fix.faults().EnablePacketTrace();
  fix.Start();

  ShardedEzkSig sig;
  EventLoop& loop = fix.loop();
  SimTime t0 = loop.now();
  auto at = [&loop, t0](Duration d, std::function<void()> fn) {
    loop.ScheduleAt(t0 + d, std::move(fn));
  };
  auto count = [&sig](const Status& s) { sig.ops_failed += s.ok() ? 0 : 1; };
  auto count_value = [&sig](const Result<std::string>& r) { sig.ops_failed += r.ok() ? 0 : 1; };
  auto count_int = [&sig](const Result<int64_t>& r) { sig.ops_failed += r.ok() ? 0 : 1; };

  const ShardMap& map = fix.shard_map();
  SharedCounter c0(fix.coord(0), /*use_extension=*/true, map.SubtreeForShard("/ca", 0));
  SharedCounter c1(fix.coord(1), /*use_extension=*/true, map.SubtreeForShard("/ca", 0));
  DistributedQueue q0(fix.coord(0), /*use_extension=*/true, map.SubtreeForShard("/qb", 1));
  DistributedQueue q1(fix.coord(1), /*use_extension=*/true, map.SubtreeForShard("/qb", 1));
  at(Millis(10), [&]() {
    c0.Setup(count);
    q0.Setup(count);
  });
  at(Millis(600), [&]() {
    c1.Attach(count);
    q1.Attach(count);
  });
  auto obj = [](int i) { return "/obj" + std::to_string(i); };
  for (int i = 0; i < 12; ++i) {
    at(Millis(900) + Millis(20) * i, [&, i]() {
      fix.coord(i % 2)->Create(obj(i), "v" + std::to_string(i), count_value);
    });
  }
  at(Millis(1200), [&]() {
    for (int i : {6, 7}) {
      fix.coord(i % 2)->OnDeleted(obj(i), [&sig, i]() {
        sig.deleted += "obj" + std::to_string(i) + ",";
      });
    }
  });
  for (int i = 0; i < 10; ++i) {
    at(Millis(1300) + Millis(40) * i, [&, i]() {
      SharedCounter& c = i % 2 == 0 ? c0 : c1;
      c.Increment(count_int);
      DistributedQueue& q = i % 2 == 0 ? q0 : q1;
      q.Add("e" + std::to_string(100 + i), "q" + std::to_string(i), count);
    });
  }
  for (int i = 0; i < 6; ++i) {
    at(Millis(1800) + Millis(60) * i, [&, i]() {
      DistributedQueue& q = i % 2 == 0 ? q1 : q0;
      q.Remove([&sig](Result<std::string> r) {
        sig.removed += r.ok() ? *r + "," : "!,";
      });
      fix.coord((i + 1) % 2)->Update(obj(i), "u" + std::to_string(i), count);
    });
  }
  auto create_op = [](const std::string& path) {
    ZkOp op;
    op.type = ZkOpType::kCreate;
    op.path = path;
    op.data = "m";
    return op;
  };
  std::string same = map.SubtreeForShard("/ma", 0);
  at(Millis(2100), [&]() {
    fix.zk_router(0)->Multi({create_op(same), create_op(same + "/x")}, count);
    fix.zk_router(1)->Multi(
        {create_op(map.SubtreeForShard("/mb", 0)), create_op(map.SubtreeForShard("/mc", 1))},
        [&sig](Status s) { sig.multis_rejected += s.code() == ErrorCode::kInvalidArgument; });
    fix.coord(1)->Delete(obj(6), count);
  });
  at(Millis(2200), [&]() { fix.coord(0)->Delete(obj(7), count); });
  // A replica of shard 1 that holds neither router's session misses traffic
  // and catches up on restart.
  NodeId victim = 0;
  at(Millis(1500), [&]() {
    uint32_t shard1 = map.entry(1).shard_id;
    for (ZkServer* s : fix.ZkShardServers(shard1)) {
      if (s->id() != fix.zk_router(0)->shard_client(shard1)->current_server() &&
          s->id() != fix.zk_router(1)->shard_client(shard1)->current_server()) {
        victim = s->id();
      }
    }
    fix.faults().Crash(victim);
  });
  at(Millis(2600), [&]() { fix.faults().Restart(victim); });
  fix.Settle(Millis(3000));

  // A third shard joins; the next op of each router is rejected as stale.
  fix.AddShard();
  SimTime t1 = loop.now();
  for (int i = 12; i < 24; ++i) {
    loop.ScheduleAt(t1 + Millis(20) * (i - 12), [&, i]() {
      fix.coord(i % 2)->Create(obj(i), "v" + std::to_string(i), count_value);
    });
  }
  for (int i = 0; i < 24; ++i) {
    loop.ScheduleAt(t1 + Millis(400) + Millis(15) * i, [&, i]() {
      fix.coord((i + 1) % 2)->Read(obj(i), [&sig](Result<std::string> r) {
        sig.reads += r.ok() ? *r + "," : r.code() == ErrorCode::kNoNode ? "-," : "!,";
      });
    });
  }
  for (int i = 0; i < 4; ++i) {
    loop.ScheduleAt(t1 + Millis(900) + Millis(50) * i, [&, i]() {
      SharedCounter& c = i % 2 == 0 ? c1 : c0;
      c.Increment(count_int);
      fix.coord(i % 2)->Delete(obj(i + 12), count);
    });
  }
  fix.Settle(Seconds(3));

  sig.packet_digest = fix.faults().TraceDigest();
  for (const ShardEntry& entry : fix.shard_map().entries()) {
    uint64_t h = kStateHashSeed;
    for (ZkServer* s : fix.ZkShardServers(entry.shard_id)) {
      h = FoldAppliedLog(*s, h);
    }
    sig.shard_hashes.push_back(h);
  }
  sig.stale_refreshes = fix.zk_router(0)->stale_refreshes() + fix.zk_router(1)->stale_refreshes();
  return sig;
}

constexpr uint64_t kShardedEzkPacketDigest = 0x112b6cba0a5ecf6eull;
constexpr uint64_t kShardedEzkShardHashes[3] = {0x79677a9b0faacaa7ull, 0x362f48d3e7b202beull,
                                                0x75929183e2543181ull};

TEST(ElisionDigestTest, ShardedEzkDigestsPinned) {
  ShardedEzkSig run = RunShardedEzkWorkload(61);

  EXPECT_EQ(run.ops_failed, 0);
  EXPECT_EQ(run.multis_rejected, 1) << "the cross-shard Multi is the router's to reject";
  EXPECT_EQ(run.stale_refreshes, 2) << "each router refreshes once after AddShard";
  EXPECT_EQ(run.removed, "q0,q1,q2,q3,q4,q5,");
  EXPECT_EQ(run.deleted, "obj6,obj7,");
  // AddShard moves no data: the three keys the new shard took over read as
  // absent through either router, as do the two deleted under a watch.
  EXPECT_EQ(run.reads,
            "-,-,-,u3,u4,u5,-,-,v8,v9,v10,v11,v12,v13,v14,v15,v16,v17,v18,v19,v20,v21,v22,v23,");
  ASSERT_EQ(run.shard_hashes.size(), 3u);

  EXPECT_EQ(run.packet_digest, kShardedEzkPacketDigest);
  for (size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(run.shard_hashes[s], kShardedEzkShardHashes[s]) << "shard " << s;
  }
}

}  // namespace
}  // namespace edc
