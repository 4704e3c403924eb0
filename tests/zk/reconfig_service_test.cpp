// Service-level dynamic membership (docs/reconfig.md): the client-visible
// reconfig operation, membership pushes that refresh a session's failover
// list (the ServerList-never-refreshed bugfix pin), snapshot-shipped joiner
// catch-up under live traffic with applied-log equality, removing the live
// leader without losing acknowledged writes, and trace-digest stability of
// the whole flow across identical reruns.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "edc/common/hash.h"
#include "edc/harness/fixture.h"
#include "edc/harness/invariants.h"
#include "tests/harness/fixture_helpers.h"

namespace edc {
namespace {

// Runs `op` and drives `loop` until its callback fires (or `timeout`).
Status SyncOp(EventLoop& loop, const std::function<void(ZkApi::VoidCb)>& op,
              Duration timeout = Seconds(5)) {
  bool done = false;
  Status out;
  op([&](Status s) {
    done = true;
    out = s;
  });
  SimTime deadline = loop.now() + timeout;
  while (!done && loop.now() < deadline) {
    loop.RunUntil(loop.now() + Millis(50));
  }
  return done ? out : Status(ErrorCode::kTimeout, "op timed out");
}

Result<std::string> SyncGet(EventLoop& loop, ZkClient* client, const std::string& path,
                            Duration timeout = Seconds(5)) {
  bool done = false;
  Result<std::string> out = Status(ErrorCode::kTimeout, "get timed out");
  client->GetData(path, false, [&](Result<ZkApi::NodeResult> r) {
    done = true;
    out = r.ok() ? Result<std::string>(r->data) : Result<std::string>(r.status());
  });
  SimTime deadline = loop.now() + timeout;
  while (!done && loop.now() < deadline) {
    loop.RunUntil(loop.now() + Millis(50));
  }
  return out;
}

// Retries a reconfig spec across leadership churn / admin failover until it
// lands or the deadline passes.
Status RetryReconfig(EventLoop& loop, ZkClient* client, const std::string& spec,
                     Duration timeout = Seconds(15)) {
  SimTime deadline = loop.now() + timeout;
  Status last;
  do {
    last = SyncOp(loop, [&](ZkApi::VoidCb cb) { client->Reconfig(spec, std::move(cb)); });
    if (last.ok() || last.code() == ErrorCode::kInvalidArgument) {
      return last;
    }
    loop.RunUntil(loop.now() + Millis(300));
  } while (loop.now() < deadline);
  return last;
}

// Adds a raw client over `list` and runs the sim until its connect completes.
ZkClient* AddClient(CoordFixture& fx, ServerList list) {
  ZkClient* client = fx.AddZkClient(std::move(list), ZkClientOptions{});
  Status s = SyncOp(fx.loop(), [client](ZkApi::VoidCb cb) { client->Connect(std::move(cb)); });
  EXPECT_TRUE(s.ok()) << s.message();
  return client;
}

TEST(ReconfigServiceTest, ClientReconfigAddsObserverAndPushesMembership) {
  CoordFixture fx(GroupOptions(SystemKind::kZooKeeper, 13));
  fx.Start();
  ZkClient* client = AddClient(fx, ServerList{1, 2, 3});
  int membership_events = 0;
  client->SetSessionEventHandler([&](SessionEvent e) {
    if (e == SessionEvent::kMembershipChanged) {
      ++membership_events;
    }
  });

  fx.BootExtraZkReplica(4);
  Status s = SyncOp(fx.loop(), [&](ZkApi::VoidCb cb) { client->Reconfig("add_observer 4", cb); });
  ASSERT_TRUE(s.ok()) << s.message();
  fx.Settle(Millis(500));

  // Every member (including the new observer) activated the change...
  for (auto& server : fx.zk_servers) {
    EXPECT_TRUE(server->zab().membership().IsObserver(4)) << "server " << server->id();
  }
  // ...and the session's failover list was refreshed by the push.
  EXPECT_GE(membership_events, 1);
  EXPECT_GT(client->membership_version(), 0u);
  const auto& list = client->servers().servers;
  EXPECT_NE(std::find(list.begin(), list.end(), 4u), list.end())
      << "client failover list missing the new observer";
}

TEST(ReconfigServiceTest, MalformedSpecsRejected) {
  CoordFixture fx(GroupOptions(SystemKind::kZooKeeper, 13));
  fx.Start();
  ZkClient* client = AddClient(fx, ServerList{1, 2, 3});
  auto reconfig = [&](const std::string& spec) {
    return SyncOp(fx.loop(), [&](ZkApi::VoidCb cb) { client->Reconfig(spec, cb); });
  };
  EXPECT_EQ(reconfig("add_voter 1").code(), ErrorCode::kInvalidArgument);  // already a voter
  EXPECT_EQ(reconfig("promote 9").code(), ErrorCode::kInvalidArgument);   // not an observer
  EXPECT_EQ(reconfig("remove 9").code(), ErrorCode::kInvalidArgument);    // not a member
  EXPECT_EQ(reconfig("frobnicate 2").code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(reconfig("add_observer").code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(reconfig("add_observer x").code(), ErrorCode::kInvalidArgument);
}

// Regression pin for the session-layer bug where a client's ServerList was
// set once at construction and never refreshed: after the entire original
// ensemble {1,2,3} is rolled over to {4,5,6}, a client created against
// {1,2,3} must keep working — without membership pushes it would spin on
// dead/retired replicas forever.
TEST(ReconfigServiceTest, RollingReplacementKeepsClientConnected) {
  CoordFixture fx(GroupOptions(SystemKind::kZooKeeper, 13));
  fx.Start();
  ZkClient* client = AddClient(fx, ServerList{1, 2, 3});
  ASSERT_TRUE(SyncOp(fx.loop(), [&](ZkApi::VoidCb cb) {
                client->Create("/pin", "v0", false, false, [cb](Result<std::string> r) {
                  cb(r.ok() ? Status::Ok() : r.status());
                });
              }).ok());

  for (NodeId joiner : {4u, 5u, 6u}) {
    fx.BootExtraZkReplica(joiner);
    Status added = RetryReconfig(fx.loop(), client, "add_observer " + std::to_string(joiner));
    ASSERT_TRUE(added.ok()) << "add_observer " << joiner << ": " << added.message();
    fx.Settle(Seconds(1));
    Status promoted = RetryReconfig(fx.loop(), client, "promote " + std::to_string(joiner));
    ASSERT_TRUE(promoted.ok()) << "promote " << joiner << ": " << promoted.message();
  }
  for (NodeId retiree : {1u, 2u, 3u}) {
    Status removed = RetryReconfig(fx.loop(), client, "remove " + std::to_string(retiree));
    if (!removed.ok()) {
      // The retiree may be the client's own session host: it stops serving
      // the moment the removal activates, so the ack can be lost and the
      // retry reports "not a member". The durable outcome is what counts.
      ZkServer* leader = ZkLeader(fx);
      ASSERT_NE(leader, nullptr);
      ASSERT_FALSE(leader->zab().membership().Contains(retiree))
          << "remove " << retiree << ": " << removed.message();
    }
    fx.Settle(Seconds(2));  // failover if the client's replica just retired
  }
  fx.Settle(Seconds(2));

  // The original ensemble is fully retired.
  for (NodeId retiree : {1u, 2u, 3u}) {
    EXPECT_FALSE(fx.ZkServerById(retiree)->running()) << "server " << retiree;
  }
  // The client's failover list is the new ensemble — and the session works.
  std::vector<NodeId> list = client->servers().servers;
  std::sort(list.begin(), list.end());
  EXPECT_EQ(list, (std::vector<NodeId>{4, 5, 6}));
  SimTime deadline = fx.loop().now() + Seconds(10);
  while (!client->connected() && fx.loop().now() < deadline) {
    fx.Settle(Millis(200));
  }
  ASSERT_TRUE(client->connected()) << "client never failed over to the new ensemble";
  Result<std::string> v = SyncGet(fx.loop(), client, "/pin");
  ASSERT_TRUE(v.ok()) << v.status().message();
  EXPECT_EQ(*v, "v0");
}

// --- Harness-driven acceptance scenarios --------------------------------

Status FixtureWrite(CoordFixture& fx, ZkClient* c, const std::string& path,
                    const std::string& value) {
  return SyncOp(fx.loop(), [&](ZkApi::VoidCb cb) {
    c->Create(path, value, false, false, [c, path, value, cb](Result<std::string> r) {
      if (r.ok()) {
        cb(Status::Ok());
        return;
      }
      c->SetData(path, value, -1, cb);  // already exists: overwrite
    });
  });
}

TEST(ReconfigAcceptance, JoinerCatchesUpViaSnapshotUnderTrafficAndMatchesIncumbents) {
  FixtureOptions fo;
  fo.system = SystemKind::kZooKeeper;
  fo.num_clients = 1;
  fo.seed = 21;
  fo.zk_server.zab.snapshot_every = 12;  // compaction forces the SNAP path
  CoordFixture fx(fo);
  fx.Start();
  ZkClient* c = fx.zk_client(0);

  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(FixtureWrite(fx, c, "/d" + std::to_string(i), "v" + std::to_string(i)).ok())
        << "write " << i;
  }
  // Join mid-traffic: replica 4 must snapshot-install (its zxid 0 predates
  // the compacted log floor), replay the suffix, and get promoted to voter.
  Status join = fx.JoinReplica(4);
  ASSERT_TRUE(join.ok()) << join.message();
  for (int i = 25; i < 35; ++i) {
    ASSERT_TRUE(FixtureWrite(fx, c, "/d" + std::to_string(i), "v" + std::to_string(i)).ok())
        << "write " << i;
  }
  fx.Settle(Seconds(3));

  ZkServer* joiner = fx.ZkServerById(4);
  ASSERT_NE(joiner, nullptr);
  EXPECT_TRUE(joiner->zab().is_voter());
  ASSERT_FALSE(fx.zk_servers.empty());
  ZkServer* incumbent = fx.zk_servers[0].get();
  ASSERT_NE(incumbent->id(), joiner->id());

  // Applied-state equality: identical trees, and identical applied-log
  // (zxid, txn-hash) tails over the post-snapshot overlap.
  EXPECT_EQ(joiner->tree().Serialize(), incumbent->tree().Serialize());
  ASSERT_FALSE(joiner->applied_log().empty());
  ASSERT_FALSE(incumbent->applied_log().empty());
  EXPECT_EQ(joiner->applied_log().back(), incumbent->applied_log().back());
  std::string why;
  EXPECT_TRUE(PrefixConsistentLogs(fx.zk_servers, &why)) << why;
}

TEST(ReconfigAcceptance, RemovingLiveLeaderLosesNoAcknowledgedWrites) {
  FixtureOptions fo;
  fo.system = SystemKind::kZooKeeper;
  fo.num_clients = 1;
  fo.seed = 22;
  CoordFixture fx(fo);
  fx.Start();
  ZkClient* c = fx.zk_client(0);

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(FixtureWrite(fx, c, "/k" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  NodeId leader_id = ZkLeaderId(fx);
  ASSERT_NE(leader_id, 0u);

  Status removed = fx.RemoveReplica(leader_id);
  ASSERT_TRUE(removed.ok()) << removed.message();
  fx.Settle(Seconds(3));  // re-election among the survivors
  EXPECT_FALSE(fx.ZkServerById(leader_id)->running());

  for (int i = 10; i < 15; ++i) {
    ASSERT_TRUE(FixtureWrite(fx, c, "/k" + std::to_string(i), "v" + std::to_string(i)).ok())
        << "write " << i << " after leader removal";
  }
  // Every acknowledged write — before and after the removal — is readable.
  for (int i = 0; i < 15; ++i) {
    Result<std::string> v = SyncGet(fx.loop(), c, "/k" + std::to_string(i));
    ASSERT_TRUE(v.ok()) << "/k" << i << ": " << v.status().message();
    EXPECT_EQ(*v, "v" + std::to_string(i)) << "/k" << i;
  }
  std::string why;
  EXPECT_TRUE(PrefixConsistentLogs(fx.zk_servers, &why)) << why;
}

// Determinism: the full join + remove-leader flow, rerun with an identical
// configuration, produces an identical whole-run trace digest and identical
// final applied state.
TEST(ReconfigAcceptance, TraceAndStateDigestsStableAcrossReruns) {
  auto run = [] {
    FixtureOptions fo;
    fo.system = SystemKind::kZooKeeper;
    fo.num_clients = 1;
    fo.seed = 23;
    fo.zk_server.zab.snapshot_every = 12;
    CoordFixture fx(fo);
    fx.Start();
    fx.faults().EnablePacketTrace();
    ZkClient* c = fx.zk_client(0);
    for (int i = 0; i < 20; ++i) {
      FixtureWrite(fx, c, "/t" + std::to_string(i), "v" + std::to_string(i));
    }
    fx.JoinReplica(4);
    NodeId leader_id = ZkLeaderId(fx);
    if (leader_id != 0) {
      fx.RemoveReplica(leader_id);
    }
    fx.Settle(Seconds(4));
    FixtureWrite(fx, c, "/t-final", "done");
    fx.Settle(Seconds(2));

    std::string state;
    for (auto& s : fx.zk_servers) {
      if (s->running()) {
        std::vector<uint8_t> tree = s->tree().Serialize();
        state += std::to_string(s->id()) + ":" +
                 std::to_string(Fnv1a64(tree.data(), tree.size())) + ";";
      }
    }
    return std::make_pair(fx.faults().TraceDigest(), state);
  };
  auto a = run();
  auto b = run();
  EXPECT_EQ(a.first, b.first) << "trace digest diverged across identical reruns";
  EXPECT_EQ(a.second, b.second) << "final applied state diverged";
  EXPECT_NE(a.second.find(":"), std::string::npos);
}

}  // namespace
}  // namespace edc
