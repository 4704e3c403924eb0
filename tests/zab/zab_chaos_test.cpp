// Chaos scenarios for the Zab-replicated ZooKeeper service: primary crashes
// mid-transaction, deterministic re-election, and the safety invariants of
// docs/fault_model.md checked across the whole run.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "edc/common/rng.h"
#include "edc/harness/invariants.h"
#include "edc/sim/costs.h"
#include "edc/sim/event_loop.h"
#include "edc/sim/faults.h"
#include "edc/sim/network.h"
#include "edc/zk/client.h"
#include "edc/zk/server.h"

namespace edc {
namespace {

// Three ZkServers plus a FaultInjector wired with the servers' crash/restart
// closures (crash drops the node off the network; restart replays the log and
// rejoins).
struct ChaosCluster {
  explicit ChaosCluster(uint64_t seed) {
    net = std::make_unique<Network>(&loop, Rng(seed), LinkParams{});
    faults = std::make_unique<FaultInjector>(&loop, net.get());
    std::vector<NodeId> members{1, 2, 3};
    for (NodeId id : members) {
      auto server = std::make_unique<ZkServer>(&loop, net.get(), id, members, CostModel{},
                                               ZkServerOptions{});
      net->Register(id, server.get());
      ZkServer* raw = server.get();
      Network* n = net.get();
      faults->RegisterProcess(
          id,
          [raw, n, id]() {
            raw->Crash();
            n->SetNodeUp(id, false);
          },
          [raw, n, id]() {
            n->SetNodeUp(id, true);
            raw->Restart();
          });
      servers.push_back(std::move(server));
    }
  }

  void Start() {
    for (auto& s : servers) {
      s->Start();
    }
    Settle(Seconds(2));
  }

  NodeId LeaderId() {
    for (auto& s : servers) {
      if (s->running() && s->IsLeader()) {
        return s->id();
      }
    }
    return 0;
  }

  size_t FollowerIndex() {
    for (size_t i = 0; i < servers.size(); ++i) {
      if (servers[i]->running() && !servers[i]->IsLeader()) {
        return i;
      }
    }
    return 0;
  }

  ZkClient* AddClient(size_t preferred_idx) {
    NodeId id = next_client_id++;
    auto client = std::make_unique<ZkClient>(
        &loop, net.get(), id, ShardView::Standalone(ServerList{{1, 2, 3}, preferred_idx}),
        ZkClientOptions{});
    ZkClient* raw = client.get();
    clients.push_back(std::move(client));
    bool connected = false;
    raw->Connect([&connected](Status s) { connected = s.ok(); });
    Settle(Seconds(1));
    EXPECT_TRUE(connected);
    return raw;
  }

  void Settle(Duration d) { loop.RunUntil(loop.now() + d); }

  EventLoop loop;
  std::unique_ptr<Network> net;
  std::unique_ptr<FaultInjector> faults;
  std::vector<std::unique_ptr<ZkServer>> servers;
  std::vector<std::unique_ptr<ZkClient>> clients;
  NodeId next_client_id = 100;
};

ZkOp CreateOp(const std::string& path) {
  ZkOp op;
  op.type = ZkOpType::kCreate;
  op.path = path;
  op.data = "m";
  return op;
}

// Crash the primary at several instants around an in-flight multi: whatever
// the cut point, the surviving ensemble must show all of the multi or none of
// it, and the survivors' applied logs must stay prefix-consistent.
TEST(ZabChaosTest, PrimaryCrashMidMultiNeverHalfApplies) {
  const std::vector<Duration> crash_offsets{Micros(150), Micros(400), Millis(1), Millis(5)};
  for (Duration offset : crash_offsets) {
    ChaosCluster cluster(17);
    cluster.Start();
    ZkClient* client = cluster.AddClient(cluster.FollowerIndex());
    bool parent = false;
    client->Create("/m", "", false, false,
                   [&](Result<std::string> r) { parent = r.ok(); });
    cluster.Settle(Seconds(1));
    ASSERT_TRUE(parent);

    NodeId leader = cluster.LeaderId();
    ASSERT_NE(leader, 0);
    client->Multi({CreateOp("/m/a"), CreateOp("/m/b"), CreateOp("/m/c")},
                  [](Status) {});
    cluster.loop.Schedule(offset,
                          [&cluster, leader]() { cluster.faults->Crash(leader); });
    cluster.Settle(Seconds(8));  // re-election + client failover

    for (auto& s : cluster.servers) {
      if (!s->running()) {
        continue;
      }
      bool a = s->tree().Exists("/m/a");
      bool b = s->tree().Exists("/m/b");
      bool c = s->tree().Exists("/m/c");
      EXPECT_EQ(a, b) << "half-applied multi on node " << s->id()
                      << " (crash offset " << offset << ")";
      EXPECT_EQ(b, c) << "half-applied multi on node " << s->id()
                      << " (crash offset " << offset << ")";
    }
    std::string why;
    EXPECT_TRUE(PrefixConsistentLogs(cluster.servers, &why)) << why;
    NodeId new_leader = cluster.LeaderId();
    EXPECT_NE(new_leader, 0);
    EXPECT_NE(new_leader, leader);
  }
}

// The acceptance scenario: crash the elected primary under client load,
// restart it, then briefly partition it off and heal. Two runs with one seed
// must produce byte-identical traces; the run must elect a new primary in a
// higher epoch and end with every invariant intact.
TEST(ZabChaosTest, DeterministicPrimaryCrashReelection) {
  struct Outcome {
    uint64_t digest = 0;
    NodeId old_leader = 0;
    NodeId new_leader = 0;
    uint32_t old_epoch = 0;
    uint32_t new_epoch = 0;
    bool single_primary = false;
    bool prefix_consistent = false;
    std::vector<std::string> trace;
  };
  auto run = [](uint64_t seed) {
    Outcome out;
    ChaosCluster cluster(seed);
    cluster.faults->EnablePacketTrace();
    cluster.Start();
    ZkClient* client = cluster.AddClient(cluster.FollowerIndex());

    out.old_leader = cluster.LeaderId();
    EXPECT_NE(out.old_leader, 0);
    out.old_epoch = cluster.servers[out.old_leader - 1]->zab().epoch();

    InvariantMonitor monitor(&cluster.loop, &cluster.servers);
    monitor.Start();
    FaultPlan plan;
    plan.episodes.push_back({.kind = EpisodeKind::kCrashRestart,
                             .start = Millis(300),
                             .duration = Millis(3700),
                             .node = out.old_leader});
    plan.episodes.push_back({.kind = EpisodeKind::kPartition,
                             .start = Seconds(6),
                             .duration = Seconds(1),
                             .group_a = {out.old_leader},
                             .group_b = {out.old_leader % 3 + 1,
                                         (out.old_leader + 1) % 3 + 1}});
    cluster.faults->Run(plan);
    for (int i = 0; i < 12; ++i) {
      cluster.loop.Schedule(Millis(250) * i, [client, i]() {
        client->Create("/chaos/" + std::to_string(i), "x", false, false,
                       [](Result<std::string>) {});
      });
    }
    cluster.Settle(Seconds(10));
    monitor.Stop();

    out.new_leader = cluster.LeaderId();
    if (out.new_leader != 0) {
      out.new_epoch = cluster.servers[out.new_leader - 1]->zab().epoch();
    }
    out.single_primary = monitor.ok();
    std::string why;
    out.prefix_consistent = PrefixConsistentLogs(cluster.servers, &why);
    EXPECT_TRUE(out.prefix_consistent) << why;
    out.digest = cluster.faults->TraceDigest();
    out.trace = cluster.faults->trace();
    return out;
  };

  Outcome a = run(33);
  Outcome b = run(33);
  EXPECT_EQ(a.digest, b.digest) << "same-seed chaos runs diverged";
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_NE(a.new_leader, 0) << "no primary after crash";
  EXPECT_NE(a.new_leader, a.old_leader);
  EXPECT_EQ(a.new_leader, b.new_leader);
  EXPECT_GT(a.new_epoch, a.old_epoch) << "re-election must advance the epoch";
  EXPECT_TRUE(a.single_primary);
  EXPECT_TRUE(a.prefix_consistent);

  Outcome c = run(34);
  EXPECT_NE(c.digest, a.digest) << "different seeds should not replay the same run";
}

}  // namespace
}  // namespace edc
