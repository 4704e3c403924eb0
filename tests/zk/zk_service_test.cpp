#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tests/zk/zk_cluster.h"

namespace edc {
namespace {

TEST(ZkServiceTest, ConnectAssignsSession) {
  ZkCluster cluster;
  cluster.Start();
  ZkClient* client = cluster.AddClient();
  EXPECT_TRUE(client->connected());
  EXPECT_NE(client->session(), 0u);
}

TEST(ZkServiceTest, CreateThenGetData) {
  ZkCluster cluster;
  cluster.Start();
  ZkClient* client = cluster.AddClient();
  Result<std::string> created(std::string{});
  client->Create("/foo", "bar", false, false, [&](Result<std::string> r) { created = r; });
  cluster.Settle();
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  EXPECT_EQ(*created, "/foo");

  Result<ZkClient::NodeResult> got = Status(ErrorCode::kInternal);
  client->GetData("/foo", false, [&](Result<ZkClient::NodeResult> r) { got = r; });
  cluster.Settle();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->data, "bar");
  EXPECT_EQ(got->stat.version, 0);
}

TEST(ZkServiceTest, WritesVisibleOnAllReplicas) {
  ZkCluster cluster;
  cluster.Start();
  ZkClient* c1 = cluster.AddClient(1);
  cluster.AddClient(2);
  c1->Create("/shared", "x", false, false, [](Result<std::string>) {});
  cluster.Settle();
  for (auto& server : cluster.servers) {
    auto node = server->tree().Get("/shared");
    ASSERT_TRUE(node.ok()) << "replica " << server->id();
    EXPECT_EQ(node->data, "x");
  }
}

TEST(ZkServiceTest, ReadsServedByConnectedReplica) {
  ZkCluster cluster;
  cluster.Start();
  ZkServer* follower = cluster.Follower();
  ASSERT_NE(follower, nullptr);
  ZkClient* client = cluster.AddClient(follower->id());
  client->Create("/r", "data", false, false, [](Result<std::string>) {});
  cluster.Settle();
  int64_t leader_busy_before = cluster.Leader()->cpu().busy_ns();
  bool read_done = false;
  client->GetData("/r", false, [&](Result<ZkClient::NodeResult> r) {
    read_done = true;
    EXPECT_TRUE(r.ok());
  });
  cluster.Settle();
  EXPECT_TRUE(read_done);
  // The leader did not serve the read (heartbeat work aside, its request
  // pipeline stayed idle: busy delta is only zab heartbeat processing).
  EXPECT_LT(cluster.Leader()->cpu().busy_ns() - leader_busy_before, Millis(1));
}

TEST(ZkServiceTest, SetDataVersionConflictUnderContention) {
  ZkCluster cluster;
  cluster.Start();
  ZkClient* a = cluster.AddClient(1);
  ZkClient* b = cluster.AddClient(2);
  a->Create("/ctr", "0", false, false, [](Result<std::string>) {});
  cluster.Settle();
  // Both clients read version 0, then both try a conditional update.
  Status sa = Status(ErrorCode::kInternal);
  Status sb = Status(ErrorCode::kInternal);
  a->SetData("/ctr", "1", 0, [&](Status s) { sa = s; });
  b->SetData("/ctr", "1", 0, [&](Status s) { sb = s; });
  cluster.Settle();
  EXPECT_TRUE(sa.ok() != sb.ok());  // exactly one wins
  EXPECT_TRUE(sa.code() == ErrorCode::kBadVersion || sb.code() == ErrorCode::kBadVersion);
}

TEST(ZkServiceTest, DeleteAndNoNodeErrors) {
  ZkCluster cluster;
  cluster.Start();
  ZkClient* client = cluster.AddClient();
  Status status = Status::Ok();
  client->Delete("/ghost", -1, [&](Status s) { status = s; });
  cluster.Settle();
  EXPECT_EQ(status.code(), ErrorCode::kNoNode);
  client->Create("/x", "", false, false, [](Result<std::string>) {});
  cluster.Settle();
  client->Delete("/x", -1, [&](Status s) { status = s; });
  cluster.Settle();
  EXPECT_TRUE(status.ok());
}

TEST(ZkServiceTest, SequentialCreateThroughService) {
  ZkCluster cluster;
  cluster.Start();
  ZkClient* client = cluster.AddClient();
  client->Create("/q", "", false, false, [](Result<std::string>) {});
  cluster.Settle();
  std::vector<std::string> names;
  for (int i = 0; i < 3; ++i) {
    client->Create("/q/e-", "", false, true, [&](Result<std::string> r) {
      ASSERT_TRUE(r.ok());
      names.push_back(*r);
    });
  }
  cluster.Settle();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "/q/e-0000000000");
  EXPECT_EQ(names[2], "/q/e-0000000002");
}

TEST(ZkServiceTest, MultiIsAtomic) {
  ZkCluster cluster;
  cluster.Start();
  ZkClient* client = cluster.AddClient();
  client->Create("/m", "", false, false, [](Result<std::string>) {});
  cluster.Settle();

  // Failing multi: second op conflicts -> nothing applies.
  std::vector<ZkOp> bad(2);
  bad[0].type = ZkOpType::kCreate;
  bad[0].path = "/m/a";
  bad[1].type = ZkOpType::kDelete;
  bad[1].path = "/m/ghost";
  Status status = Status::Ok();
  client->Multi(bad, [&](Status s) { status = s; });
  cluster.Settle();
  EXPECT_EQ(status.code(), ErrorCode::kNoNode);
  EXPECT_FALSE(cluster.Leader()->tree().Exists("/m/a"));

  // Successful multi applies everything atomically.
  std::vector<ZkOp> good(2);
  good[0].type = ZkOpType::kCreate;
  good[0].path = "/m/a";
  good[1].type = ZkOpType::kCreate;
  good[1].path = "/m/b";
  client->Multi(good, [&](Status s) { status = s; });
  cluster.Settle();
  EXPECT_TRUE(status.ok());
  EXPECT_TRUE(cluster.Leader()->tree().Exists("/m/a"));
  EXPECT_TRUE(cluster.Leader()->tree().Exists("/m/b"));
}

TEST(ZkServiceTest, DataWatchFiresOnceOnChange) {
  ZkCluster cluster;
  cluster.Start();
  ZkClient* watcher = cluster.AddClient(1);
  ZkClient* writer = cluster.AddClient(2);
  writer->Create("/w", "v0", false, false, [](Result<std::string>) {});
  cluster.Settle();

  std::vector<ZkWatchEventMsg> events;
  watcher->SetWatchHandler([&](const ZkWatchEventMsg& ev) { events.push_back(ev); });
  watcher->GetData("/w", true, [](Result<ZkClient::NodeResult>) {});
  cluster.Settle();

  writer->SetData("/w", "v1", -1, [](Status) {});
  writer->SetData("/w", "v2", -1, [](Status) {});  // second change: no watch left
  cluster.Settle();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, ZkEventType::kNodeDataChanged);
  EXPECT_EQ(events[0].path, "/w");
}

TEST(ZkServiceTest, ExistsWatchFiresOnCreation) {
  ZkCluster cluster;
  cluster.Start();
  ZkClient* watcher = cluster.AddClient(2);
  ZkClient* writer = cluster.AddClient(3);
  std::vector<ZkWatchEventMsg> events;
  watcher->SetWatchHandler([&](const ZkWatchEventMsg& ev) { events.push_back(ev); });
  bool absent = false;
  watcher->Exists("/later", true, [&](Result<ZkClient::ExistsResult> r) {
    absent = r.ok() && !r->exists;
  });
  cluster.Settle();
  EXPECT_TRUE(absent);
  writer->Create("/later", "", false, false, [](Result<std::string>) {});
  cluster.Settle();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, ZkEventType::kNodeCreated);
}

TEST(ZkServiceTest, ChildWatchFiresOnMembershipChange) {
  ZkCluster cluster;
  cluster.Start();
  ZkClient* watcher = cluster.AddClient(1);
  ZkClient* writer = cluster.AddClient(2);
  writer->Create("/dir", "", false, false, [](Result<std::string>) {});
  cluster.Settle();
  std::vector<ZkWatchEventMsg> events;
  watcher->SetWatchHandler([&](const ZkWatchEventMsg& ev) { events.push_back(ev); });
  watcher->GetChildren("/dir", true, [](Result<std::vector<std::string>>) {});
  cluster.Settle();
  writer->Create("/dir/kid", "", false, false, [](Result<std::string>) {});
  cluster.Settle();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, ZkEventType::kNodeChildrenChanged);
  EXPECT_EQ(events[0].path, "/dir");
}

TEST(ZkServiceTest, EphemeralRemovedOnSessionClose) {
  ZkCluster cluster;
  cluster.Start();
  ZkClient* owner = cluster.AddClient(1);
  ZkClient* observer = cluster.AddClient(2);
  owner->Create("/eph", "", true, false, [](Result<std::string>) {});
  cluster.Settle();
  EXPECT_TRUE(cluster.Leader()->tree().Exists("/eph"));
  std::vector<ZkWatchEventMsg> events;
  observer->SetWatchHandler([&](const ZkWatchEventMsg& ev) { events.push_back(ev); });
  observer->Exists("/eph", true, [](Result<ZkClient::ExistsResult>) {});
  cluster.Settle();
  owner->Close([](Status) {});
  cluster.Settle();
  EXPECT_FALSE(cluster.Leader()->tree().Exists("/eph"));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, ZkEventType::kNodeDeleted);
}

TEST(ZkServiceTest, SessionTimeoutExpiresEphemerals) {
  ZkCluster cluster;
  cluster.Start();
  ZkClientOptions short_session;
  short_session.session_timeout = Millis(600);
  short_session.ping_interval = Millis(200);
  ZkClient* flaky = cluster.AddClient(1, short_session);
  flaky->Create("/flaky-eph", "", true, false, [](Result<std::string>) {});
  cluster.Settle();
  ASSERT_TRUE(cluster.Leader()->tree().Exists("/flaky-eph"));
  // Simulate client process death: it stops pinging.
  cluster.net->SetNodeUp(flaky->id(), false);
  cluster.Settle(Seconds(3));
  EXPECT_FALSE(cluster.Leader()->tree().Exists("/flaky-eph"));
}

TEST(ZkServiceTest, WritesViaFollowerAreForwarded) {
  ZkCluster cluster;
  cluster.Start();
  ZkServer* follower = cluster.Follower();
  ZkClient* client = cluster.AddClient(follower->id());
  Result<std::string> created = Status(ErrorCode::kInternal);
  client->Create("/via-follower", "d", false, false,
                 [&](Result<std::string> r) { created = r; });
  cluster.Settle();
  ASSERT_TRUE(created.ok());
  EXPECT_TRUE(follower->tree().Exists("/via-follower"));
}

TEST(ZkServiceTest, ClientsSurviveLeaderFailover) {
  ZkCluster cluster;
  cluster.Start();
  ZkServer* leader = cluster.Leader();
  ZkServer* follower = cluster.Follower();
  ZkClient* client = cluster.AddClient(follower->id());
  client->Create("/before", "", false, false, [](Result<std::string>) {});
  cluster.Settle();
  leader->Crash();
  cluster.Settle(Seconds(3));
  // Retry loop: kNotReady during election is expected, then success.
  Status status = Status(ErrorCode::kNotReady);
  for (int attempt = 0; attempt < 10 && !status.ok(); ++attempt) {
    client->Create("/after-" + std::to_string(attempt), "", false, false,
                   [&](Result<std::string> r) { status = r.status(); });
    cluster.Settle(Seconds(1));
  }
  EXPECT_TRUE(status.ok());
  EXPECT_TRUE(follower->tree().Exists("/before"));
}

TEST(ZkServiceTest, RestartedReplicaRebuildsFullState) {
  ZkCluster cluster;
  cluster.Start();
  ZkServer* follower = cluster.Follower();
  // Connect the client to a replica that stays up.
  ZkClient* client = cluster.AddClient(cluster.Leader()->id());
  for (int i = 0; i < 5; ++i) {
    client->Create("/n" + std::to_string(i), "v" + std::to_string(i), false, false,
                   [](Result<std::string>) {});
  }
  cluster.Settle();
  follower->Crash();
  client->Create("/while-down", "", false, false, [](Result<std::string>) {});
  cluster.Settle();
  follower->Restart();
  cluster.Settle(Seconds(3));
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(follower->tree().Exists("/n" + std::to_string(i)));
  }
  EXPECT_TRUE(follower->tree().Exists("/while-down"));
}

TEST(ZkServiceTest, UnknownSessionRejected) {
  ZkCluster cluster;
  cluster.Start();
  ZkClient* client = cluster.AddClient();
  // Forge a request with a bogus session by reaching into the raw API after
  // disconnect semantics: simplest is a second client that never connected.
  auto rogue = std::make_unique<ZkClient>(&cluster.loop, cluster.net.get(), 999, 1,
                                          ZkClientOptions{});
  ErrorCode code = ErrorCode::kOk;
  ZkOp op;
  op.type = ZkOpType::kGetData;
  op.path = "/";
  rogue->Submit(op, [&](const ZkReplyMsg& reply) { code = reply.code; });
  cluster.Settle();
  EXPECT_EQ(code, ErrorCode::kSessionExpired);
  (void)client;
}

}  // namespace
}  // namespace edc
