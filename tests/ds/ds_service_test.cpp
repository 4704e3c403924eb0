#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "edc/common/codec.h"
#include "tests/harness/fixture_helpers.h"

namespace edc {
namespace {

std::string DataOf(const DsReply& reply) {
  if (reply.tuples.empty()) {
    return "";
  }
  return FieldToString(reply.tuples[0][1]);
}

// Four DepSpace replicas, no fixture clients: each test adds its own.
FixtureOptions DsGroup(DsServerOptions server = DsServerOptions{}) {
  FixtureOptions options = GroupOptions(SystemKind::kDepSpace, 21);
  options.ds_server = std::move(server);
  return options;
}

// A replica that swallows the client's requests; the test plays its replies.
class SilentReplica : public NetworkNode {
 public:
  void HandlePacket(Packet&&) override {}
};

// How many matching replies a client over `replicas` replicas waits for
// before it accepts a result: f + 1, with f computed from the ensemble size.
size_t RepliesToDecide(size_t replicas) {
  EventLoop loop;
  Network net(&loop, Rng(3), LinkParams{});
  std::vector<SilentReplica> nodes(replicas);
  std::vector<NodeId> members;
  for (size_t i = 0; i < replicas; ++i) {
    members.push_back(static_cast<NodeId>(i + 1));
    net.Register(members.back(), &nodes[i]);
  }
  DsClient client(&loop, &net, 100, ShardView::Standalone(ServerList{members}),
                  DsClientOptions{});
  bool decided = false;
  client.Out(DsTuple{DsField{std::string("/k")}}, [&decided](Result<DsReply> r) {
    EXPECT_TRUE(r.ok());
    decided = true;
  });
  loop.RunUntil(Millis(1));
  ReplyMsg reply{/*req_id=*/1, /*view=*/0, EncodeMsg(DsReply{})};
  for (size_t n = 1; n <= replicas; ++n) {
    client.HandlePacket(Packet{members[n - 1], 100, static_cast<uint32_t>(BftMsgType::kReply),
                               EncodeMsg(reply)});
    if (decided) {
      return n;
    }
  }
  return 0;
}

TEST(DsClientQuorumTest, SevenReplicasNeedThreeMatchingReplies) {
  EXPECT_EQ(RepliesToDecide(7), 3u);
}

TEST(DsClientQuorumTest, FourReplicasNeedTwoMatchingReplies) {
  EXPECT_EQ(RepliesToDecide(4), 2u);
}

TEST(DsServiceTest, OutThenRdpOnAllReplicas) {
  CoordFixture cluster(DsGroup());
  cluster.Start();
  DsClient* client = AddGroupDsClient(cluster);
  bool out_ok = false;
  client->Out(ObjectTuple("/a", "v"), [&](Result<DsReply> r) { out_ok = r.ok(); });
  cluster.Settle(Millis(500));
  EXPECT_TRUE(out_ok);
  for (auto& server : cluster.ds_servers) {
    EXPECT_TRUE(server->space().HasMatch(ObjectTemplate("/a")));
  }
  std::string data;
  client->Rdp(ObjectTemplate("/a"), [&](Result<DsReply> r) {
    ASSERT_TRUE(r.ok());
    data = DataOf(*r);
  });
  cluster.Settle(Millis(500));
  EXPECT_EQ(data, "v");
}

// A call's 1 s retransmit timer is cancelled when its f+1 reply vote
// completes, so finished calls leave nothing behind in the event queue.
TEST(DsServiceTest, CompletedCallsCancelTheirRetryTimers) {
  CoordFixture cluster(DsGroup());
  cluster.Start();
  DsClient* client = AddGroupDsClient(cluster);
  cluster.Settle(Millis(500));
  const size_t idle = cluster.loop().pending();
  int done = 0;
  for (int i = 0; i < 50; ++i) {
    client->Out(ObjectTuple("/t" + std::to_string(i), "v"), [&](Result<DsReply> r) {
      EXPECT_TRUE(r.ok());
      ++done;
    });
  }
  cluster.Settle(Millis(200));  // well inside the first retransmit delay
  ASSERT_EQ(done, 50);
  EXPECT_EQ(client->outstanding(), 0u);
  EXPECT_LE(cluster.loop().pending(), idle);
}

TEST(DsServiceTest, RdpMissIsNoNode) {
  CoordFixture cluster(DsGroup());
  cluster.Start();
  DsClient* client = AddGroupDsClient(cluster);
  ErrorCode code = ErrorCode::kOk;
  client->Rdp(ObjectTemplate("/ghost"), [&](Result<DsReply> r) { code = r.code(); });
  cluster.Settle(Millis(500));
  EXPECT_EQ(code, ErrorCode::kNoNode);
}

TEST(DsServiceTest, InpRemovesExactlyOnce) {
  CoordFixture cluster(DsGroup());
  cluster.Start();
  DsClient* a = AddGroupDsClient(cluster);
  DsClient* b = AddGroupDsClient(cluster);
  a->Out(ObjectTuple("/once", "x"), [](Result<DsReply>) {});
  cluster.Settle(Millis(500));
  int successes = 0;
  int misses = 0;
  auto count = [&](Result<DsReply> r) {
    if (r.ok()) {
      ++successes;
    } else if (r.code() == ErrorCode::kNoNode) {
      ++misses;
    }
  };
  a->Inp(ObjectTemplate("/once"), count);
  b->Inp(ObjectTemplate("/once"), count);
  cluster.Settle(Millis(500));
  EXPECT_EQ(successes, 1);
  EXPECT_EQ(misses, 1);
}

TEST(DsServiceTest, BlockingRdUnblocksOnOut) {
  CoordFixture cluster(DsGroup());
  cluster.Start();
  DsClient* reader = AddGroupDsClient(cluster);
  DsClient* writer = AddGroupDsClient(cluster);
  std::string seen;
  reader->Rd(ObjectTemplate("/later"), [&](Result<DsReply> r) {
    ASSERT_TRUE(r.ok());
    seen = DataOf(*r);
  });
  cluster.Settle(Millis(500));
  EXPECT_EQ(seen, "");  // still blocked
  writer->Out(ObjectTuple("/later", "arrived"), [](Result<DsReply>) {});
  cluster.Settle(Millis(500));
  EXPECT_EQ(seen, "arrived");
}

TEST(DsServiceTest, BlockingInConsumesForOneWaiterOnly) {
  CoordFixture cluster(DsGroup());
  cluster.Start();
  DsClient* w1 = AddGroupDsClient(cluster);
  DsClient* w2 = AddGroupDsClient(cluster);
  DsClient* writer = AddGroupDsClient(cluster);
  int unblocked = 0;
  w1->In(ObjectTemplate("/job"), [&](Result<DsReply> r) { unblocked += r.ok(); });
  cluster.Settle(Millis(100));
  w2->In(ObjectTemplate("/job"), [&](Result<DsReply> r) { unblocked += r.ok(); });
  cluster.Settle(Millis(500));
  writer->Out(ObjectTuple("/job", "payload"), [](Result<DsReply>) {});
  cluster.Settle(Millis(500));
  EXPECT_EQ(unblocked, 1);  // only the first waiter got it
  for (auto& server : cluster.ds_servers) {
    EXPECT_FALSE(server->space().HasMatch(ObjectTemplate("/job")));
  }
  // Second waiter fires on the next out.
  writer->Out(ObjectTuple("/job", "payload2"), [](Result<DsReply>) {});
  cluster.Settle(Millis(500));
  EXPECT_EQ(unblocked, 2);
}

TEST(DsServiceTest, MultipleRdWaitersAllUnblock) {
  CoordFixture cluster(DsGroup());
  cluster.Start();
  std::vector<DsClient*> readers;
  int unblocked = 0;
  for (int i = 0; i < 5; ++i) {
    DsClient* c = AddGroupDsClient(cluster);
    readers.push_back(c);
    c->Rd(ObjectTemplate("/sig"), [&](Result<DsReply> r) { unblocked += r.ok(); });
  }
  cluster.Settle(Millis(500));
  AddGroupDsClient(cluster)->Out(ObjectTuple("/sig", ""), [](Result<DsReply>) {});
  cluster.Settle(Millis(500));
  EXPECT_EQ(unblocked, 5);
}

TEST(DsServiceTest, CasSemantics) {
  CoordFixture cluster(DsGroup());
  cluster.Start();
  DsClient* client = AddGroupDsClient(cluster);
  bool first = false;
  ErrorCode second = ErrorCode::kOk;
  client->Cas(ObjectTemplate("/c"), ObjectTuple("/c", "1"),
              [&](Result<DsReply> r) { first = r.ok(); });
  client->Cas(ObjectTemplate("/c"), ObjectTuple("/c", "2"),
              [&](Result<DsReply> r) { second = r.code(); });
  cluster.Settle(Millis(500));
  EXPECT_TRUE(first);
  EXPECT_EQ(second, ErrorCode::kNodeExists);
}

TEST(DsServiceTest, ReplaceConditionalOnContent) {
  CoordFixture cluster(DsGroup());
  cluster.Start();
  DsClient* client = AddGroupDsClient(cluster);
  client->Out(ObjectTuple("/ctr", "5"), [](Result<DsReply>) {});
  cluster.Settle(Millis(500));
  DsTemplate expect5{DsTField::Exact(DsField{std::string("/ctr")}),
                     DsTField::Exact(DsField{std::string("5")})};
  DsTemplate expect9{DsTField::Exact(DsField{std::string("/ctr")}),
                     DsTField::Exact(DsField{std::string("9")})};
  ErrorCode bad = ErrorCode::kOk;
  bool good = false;
  client->Replace(expect9, ObjectTuple("/ctr", "10"),
                  [&](Result<DsReply> r) { bad = r.code(); });
  client->Replace(expect5, ObjectTuple("/ctr", "6"),
                  [&](Result<DsReply> r) { good = r.ok(); });
  cluster.Settle(Millis(500));
  EXPECT_EQ(bad, ErrorCode::kNoNode);
  EXPECT_TRUE(good);
}

TEST(DsServiceTest, RdAllReturnsAllMatches) {
  CoordFixture cluster(DsGroup());
  cluster.Start();
  DsClient* client = AddGroupDsClient(cluster);
  for (int i = 0; i < 4; ++i) {
    client->Out(ObjectTuple("/set/e" + std::to_string(i), ""), [](Result<DsReply>) {});
  }
  cluster.Settle(Millis(500));
  size_t n = 0;
  client->RdAll(ObjectPrefixTemplate("/set"), [&](Result<DsReply> r) {
    ASSERT_TRUE(r.ok());
    n = r->tuples.size();
  });
  cluster.Settle(Millis(500));
  EXPECT_EQ(n, 4u);
}

TEST(DsServiceTest, LeaseExpiresWhenClientDies) {
  CoordFixture cluster(DsGroup());
  cluster.Start();
  DsClientOptions opt;
  opt.lease = Millis(400);
  opt.renew_interval = Millis(150);
  DsClient* mortal = AddGroupDsClient(cluster, opt);
  DsClient* observer = AddGroupDsClient(cluster);
  mortal->OutLease(ObjectTuple("/alive/m", ""), [](Result<DsReply>) {});
  cluster.Settle(Seconds(1));
  // Still present: renewals keep it alive well past the base lease.
  bool present = false;
  observer->Rdp(ObjectTemplate("/alive/m"), [&](Result<DsReply> r) { present = r.ok(); });
  cluster.Settle(Millis(500));
  EXPECT_TRUE(present);
  // Client dies; lease eventually lapses (observer polls drive expiry).
  mortal->Kill();
  cluster.Settle(Seconds(1));
  bool still_present = true;
  observer->Rdp(ObjectTemplate("/alive/m"),
                [&](Result<DsReply> r) { still_present = r.ok(); });
  cluster.Settle(Millis(500));
  EXPECT_FALSE(still_present);
}

TEST(DsServiceTest, EmNamespaceDeniedToRegularOps) {
  CoordFixture cluster(DsGroup());  // no hooks installed: /em must be inaccessible
  cluster.Start();
  DsClient* client = AddGroupDsClient(cluster);
  ErrorCode out_code = ErrorCode::kOk;
  ErrorCode rd_code = ErrorCode::kOk;
  client->Out(ObjectTuple("/em/sneaky", "code"),
              [&](Result<DsReply> r) { out_code = r.code(); });
  client->Rdp(ObjectTemplate("/em/sneaky"), [&](Result<DsReply> r) { rd_code = r.code(); });
  cluster.Settle(Millis(500));
  EXPECT_EQ(out_code, ErrorCode::kAccessDenied);
  EXPECT_EQ(rd_code, ErrorCode::kAccessDenied);
}

TEST(DsServiceTest, PolicyLayerRejectsOversizedTuples) {
  DsServerOptions options;
  options.policy.check = [](const DsOp& op, size_t) -> Status {
    size_t bytes = 0;
    for (const DsField& f : op.tuple) {
      bytes += FieldToString(f).size();
    }
    if (bytes > 100) {
      return Status(ErrorCode::kPolicyViolation, "tuple too large");
    }
    return Status::Ok();
  };
  CoordFixture cluster(DsGroup(options));
  cluster.Start();
  DsClient* client = AddGroupDsClient(cluster);
  ErrorCode code = ErrorCode::kOk;
  client->Out(ObjectTuple("/big", std::string(200, 'x')),
              [&](Result<DsReply> r) { code = r.code(); });
  cluster.Settle(Millis(500));
  EXPECT_EQ(code, ErrorCode::kPolicyViolation);
  bool small_ok = false;
  client->Out(ObjectTuple("/small", "x"), [&](Result<DsReply> r) { small_ok = r.ok(); });
  cluster.Settle(Millis(500));
  EXPECT_TRUE(small_ok);
}

TEST(DsServiceTest, CustomAccessControlDeniesClient) {
  DsServerOptions options;
  options.access.check = [](NodeId client, DsOpType type, const DsTuple*,
                            const DsTemplate*) -> Status {
    if (client == 100 && type == DsOpType::kOut) {
      return Status(ErrorCode::kAccessDenied, "client 100 is read-only");
    }
    return Status::Ok();
  };
  CoordFixture cluster(DsGroup(options));
  cluster.Start();
  DsClient* readonly = AddGroupDsClient(cluster);  // gets id 100
  DsClient* normal = AddGroupDsClient(cluster);
  ErrorCode denied = ErrorCode::kOk;
  bool allowed = false;
  readonly->Out(ObjectTuple("/x", ""), [&](Result<DsReply> r) { denied = r.code(); });
  normal->Out(ObjectTuple("/y", ""), [&](Result<DsReply> r) { allowed = r.ok(); });
  cluster.Settle(Millis(500));
  EXPECT_EQ(denied, ErrorCode::kAccessDenied);
  EXPECT_TRUE(allowed);
}

TEST(DsServiceTest, SurvivesPrimaryCrash) {
  CoordFixture cluster(DsGroup());
  cluster.Start();
  DsClient* client = AddGroupDsClient(cluster);
  bool before = false;
  client->Out(ObjectTuple("/pre", ""), [&](Result<DsReply> r) { before = r.ok(); });
  cluster.Settle(Millis(500));
  ASSERT_TRUE(before);
  cluster.ds_servers[0]->Crash();
  bool after = false;
  client->Out(ObjectTuple("/post", ""), [&](Result<DsReply> r) { after = r.ok(); });
  cluster.Settle(Seconds(6));
  EXPECT_TRUE(after);
  EXPECT_TRUE(cluster.ds_servers[1]->space().HasMatch(ObjectTemplate("/pre")));
  EXPECT_TRUE(cluster.ds_servers[1]->space().HasMatch(ObjectTemplate("/post")));
}

TEST(DsServiceTest, AllReplicasConvergeToIdenticalSpaces) {
  CoordFixture cluster(DsGroup());
  cluster.Start();
  DsClient* a = AddGroupDsClient(cluster);
  DsClient* b = AddGroupDsClient(cluster);
  for (int i = 0; i < 10; ++i) {
    a->Out(ObjectTuple("/m/" + std::to_string(i), "a"), [](Result<DsReply>) {});
    b->Replace(ObjectPrefixTemplate("/m"), ObjectTuple("/m/r" + std::to_string(i), "b"),
               [](Result<DsReply>) {});
  }
  cluster.Settle(Seconds(2));
  auto reference = cluster.ds_servers[0]->space().Serialize();
  for (auto& server : cluster.ds_servers) {
    EXPECT_EQ(server->space().Serialize(), reference) << "replica " << server->id();
  }
}

}  // namespace
}  // namespace edc
