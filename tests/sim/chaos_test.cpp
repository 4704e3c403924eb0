// End-to-end chaos scenarios over whole clusters: partition/heal convergence,
// client failover, and same-seed replayability (docs/fault_model.md).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "edc/harness/fixture.h"
#include "edc/harness/invariants.h"
#include "edc/sim/faults.h"
#include "tests/harness/fixture_helpers.h"

namespace edc {
namespace {

// A 2-2 split leaves neither side with the 2f+1 BFT quorum, so nothing
// commits while the partition holds; client retransmissions carry the stalled
// request past the heal and every replica executes the same ordered history.
TEST(ChaosTest, PartitionThenHealEdsReplicasConverge) {
  FixtureOptions options;
  options.system = SystemKind::kDepSpace;
  options.num_clients = 2;
  options.seed = 5;
  CoordFixture fix(options);
  fix.Start();

  bool pre = false;
  fix.coord(0)->Create("/chaos/pre", "v", [&](Result<std::string> r) { pre = r.ok(); });
  fix.Settle(Seconds(1));
  ASSERT_TRUE(pre);

  fix.faults().Partition({1, 2}, {3, 4});
  bool during = false;
  fix.coord(1)->Create("/chaos/during", "v",
                       [&](Result<std::string> r) { during = r.ok(); });
  fix.Settle(Seconds(3));
  EXPECT_FALSE(during) << "no quorum side should have committed";

  fix.faults().Heal();
  fix.Settle(Seconds(12));
  EXPECT_TRUE(during) << "retransmitted request should complete after heal";

  std::string why;
  EXPECT_TRUE(EdsDigestsMatch(fix.ds_servers, &why)) << why;
  EXPECT_TRUE(EdsLogBounded(fix.ds_servers, &why)) << why;
  ASSERT_EQ(fix.faults().trace().size(), 2u);
}

// Crash-restart under continuous load: the restarted replica slept through
// stable checkpoints whose pre-prepares are garbage-collected cluster-wide,
// so only checkpoint state transfer can rejoin it; afterwards every replica
// (including the rejoined one) must hold an identical tuple space and a log
// bounded by the watermark window.
TEST(ChaosTest, CrashRestartEdsReplicaRejoinsViaStateTransfer) {
  FixtureOptions options;
  options.system = SystemKind::kExtensibleDepSpace;
  options.num_clients = 2;
  options.seed = 11;
  CoordFixture fix(options);
  fix.Start();

  FaultPlan plan;
  plan.episodes.push_back({.kind = EpisodeKind::kCrashRestart,
                           .start = Millis(300),
                           .duration = Millis(3700),
                           .node = 3});
  fix.RunPlan(plan);

  int completed = 0;
  for (int i = 0; i < 30; ++i) {
    fix.loop().Schedule(Millis(150) * i, [&fix, &completed, i]() {
      fix.coord(i % 2)->Create("/chaos/cr" + std::to_string(i), "v",
                               [&completed](Result<std::string> r) {
                                 if (r.ok()) {
                                   ++completed;
                                 }
                               });
    });
  }
  fix.Settle(Seconds(12));
  EXPECT_GE(completed, 25) << "workload must survive the crash window";

  const BftReplica& rejoined = fix.ds_servers[2]->bft();
  EXPECT_GE(rejoined.state_transfers(), 1);
  EXPECT_GT(rejoined.low_watermark(), 0u);
  std::string why;
  EXPECT_TRUE(fix.CheckEdsInvariants(&why)) << why;
}

// A client holding a session (and an in-flight watch) against a replica that
// dies must detect the silence, fail over to a live replica, surface the
// session-lost/reconnected events, and let the application re-arm the watch.
TEST(ChaosTest, ClientFailsOverAndReArmsWatch) {
  CoordFixture fix(GroupOptions(SystemKind::kZooKeeper, 9));
  fix.Start();
  EventLoop& loop = fix.loop();

  // Connect to a follower so failover does not also wait out re-election.
  NodeId follower = ZkFollower(fix)->id();

  ZkClientOptions copts;
  copts.session_timeout = Seconds(1);
  copts.ping_interval = Millis(200);
  ZkClient& client = *fix.AddZkClient(ServerList{{1, 2, 3}, follower - 1}, copts);
  std::vector<SessionEvent> events;
  client.SetSessionEventHandler([&](SessionEvent e) { events.push_back(e); });
  int watch_fired = 0;
  client.SetWatchHandler([&](const ZkWatchEventMsg&) { ++watch_fired; });

  bool connected = false;
  client.Connect([&](Status s) { connected = s.ok(); });
  loop.RunUntil(loop.now() + Seconds(1));
  ASSERT_TRUE(connected);
  ASSERT_EQ(client.current_server(), follower);

  bool armed = false;
  client.Exists("/flag", true, [&](Result<ZkClient::ExistsResult> r) {
    armed = r.ok() && !r->exists;
  });
  loop.RunUntil(loop.now() + Millis(500));
  ASSERT_TRUE(armed);

  fix.faults().Crash(follower);
  loop.RunUntil(loop.now() + Seconds(5));

  EXPECT_TRUE(client.connected());
  EXPECT_NE(client.current_server(), follower);
  auto saw = [&](SessionEvent e) {
    for (SessionEvent got : events) {
      if (got == e) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(saw(SessionEvent::kDisconnected));
  EXPECT_TRUE(saw(SessionEvent::kSessionLost));
  EXPECT_TRUE(saw(SessionEvent::kReconnected));

  // The watch died with the session; re-arm on the new one and trigger it.
  armed = false;
  client.Exists("/flag", true, [&](Result<ZkClient::ExistsResult> r) {
    armed = r.ok() && !r->exists;
  });
  loop.RunUntil(loop.now() + Millis(500));
  ASSERT_TRUE(armed);
  client.Create("/flag", "x", false, false, [](Result<std::string>) {});
  loop.RunUntil(loop.now() + Seconds(1));
  EXPECT_EQ(watch_fired, 1);
}

// Whole-fixture replayability: boot, crash the elected primary, restart it,
// drive client traffic throughout — two runs under one seed must fold every
// delivered packet and fault event to the same digest.
TEST(ChaosTest, SameSeedFixtureRunsProduceIdenticalTraces) {
  auto run = [](uint64_t seed) {
    FixtureOptions options;
    options.system = SystemKind::kZooKeeper;
    options.num_clients = 2;
    options.seed = seed;
    CoordFixture fix(options);
    fix.faults().EnablePacketTrace();
    fix.Start();

    NodeId leader = ZkLeaderId(fix);
    EXPECT_NE(leader, 0);

    FaultPlan plan;
    plan.episodes.push_back({.kind = EpisodeKind::kCrashRestart,
                             .start = Millis(200),
                             .duration = Millis(2800),
                             .node = leader});
    fix.RunPlan(plan);
    for (int i = 0; i < 10; ++i) {
      fix.loop().Schedule(Millis(100) * i, [&fix, i]() {
        fix.coord(i % 2)->Create("/trace/" + std::to_string(i), "x",
                                 [](Result<std::string>) {});
      });
    }
    fix.Settle(Seconds(8));
    return fix.faults().TraceDigest();
  };
  EXPECT_EQ(run(21), run(21));
  EXPECT_NE(run(21), run(22));
}

}  // namespace
}  // namespace edc
