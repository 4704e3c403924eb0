#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tests/ds/ds_cluster.h"

namespace edc {
namespace {

std::string DataOf(const DsReply& reply) {
  if (reply.tuples.empty()) {
    return "";
  }
  return FieldToString(reply.tuples[0][1]);
}

TEST(DsServiceTest, OutThenRdpOnAllReplicas) {
  DsCluster cluster;
  cluster.Start();
  DsClient* client = cluster.AddClient();
  bool out_ok = false;
  client->Out(ObjectTuple("/a", "v"), [&](Result<DsReply> r) { out_ok = r.ok(); });
  cluster.Settle();
  EXPECT_TRUE(out_ok);
  for (auto& server : cluster.servers) {
    EXPECT_TRUE(server->space().HasMatch(ObjectTemplate("/a")));
  }
  std::string data;
  client->Rdp(ObjectTemplate("/a"), [&](Result<DsReply> r) {
    ASSERT_TRUE(r.ok());
    data = DataOf(*r);
  });
  cluster.Settle();
  EXPECT_EQ(data, "v");
}

// A call's 1 s retransmit timer is cancelled when its f+1 reply vote
// completes, so finished calls leave nothing behind in the event queue.
TEST(DsServiceTest, CompletedCallsCancelTheirRetryTimers) {
  DsCluster cluster;
  cluster.Start();
  DsClient* client = cluster.AddClient();
  cluster.Settle();
  const size_t idle = cluster.loop.pending();
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
  EXPECT_LE(cluster.loop.pending(), idle);
}

TEST(DsServiceTest, RdpMissIsNoNode) {
  DsCluster cluster;
  cluster.Start();
  DsClient* client = cluster.AddClient();
  ErrorCode code = ErrorCode::kOk;
  client->Rdp(ObjectTemplate("/ghost"), [&](Result<DsReply> r) { code = r.code(); });
  cluster.Settle();
  EXPECT_EQ(code, ErrorCode::kNoNode);
}

TEST(DsServiceTest, InpRemovesExactlyOnce) {
  DsCluster cluster;
  cluster.Start();
  DsClient* a = cluster.AddClient();
  DsClient* b = cluster.AddClient();
  a->Out(ObjectTuple("/once", "x"), [](Result<DsReply>) {});
  cluster.Settle();
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
  cluster.Settle();
  EXPECT_EQ(successes, 1);
  EXPECT_EQ(misses, 1);
}

TEST(DsServiceTest, BlockingRdUnblocksOnOut) {
  DsCluster cluster;
  cluster.Start();
  DsClient* reader = cluster.AddClient();
  DsClient* writer = cluster.AddClient();
  std::string seen;
  reader->Rd(ObjectTemplate("/later"), [&](Result<DsReply> r) {
    ASSERT_TRUE(r.ok());
    seen = DataOf(*r);
  });
  cluster.Settle();
  EXPECT_EQ(seen, "");  // still blocked
  writer->Out(ObjectTuple("/later", "arrived"), [](Result<DsReply>) {});
  cluster.Settle();
  EXPECT_EQ(seen, "arrived");
}

TEST(DsServiceTest, BlockingInConsumesForOneWaiterOnly) {
  DsCluster cluster;
  cluster.Start();
  DsClient* w1 = cluster.AddClient();
  DsClient* w2 = cluster.AddClient();
  DsClient* writer = cluster.AddClient();
  int unblocked = 0;
  w1->In(ObjectTemplate("/job"), [&](Result<DsReply> r) { unblocked += r.ok(); });
  cluster.Settle(Millis(100));
  w2->In(ObjectTemplate("/job"), [&](Result<DsReply> r) { unblocked += r.ok(); });
  cluster.Settle();
  writer->Out(ObjectTuple("/job", "payload"), [](Result<DsReply>) {});
  cluster.Settle();
  EXPECT_EQ(unblocked, 1);  // only the first waiter got it
  for (auto& server : cluster.servers) {
    EXPECT_FALSE(server->space().HasMatch(ObjectTemplate("/job")));
  }
  // Second waiter fires on the next out.
  writer->Out(ObjectTuple("/job", "payload2"), [](Result<DsReply>) {});
  cluster.Settle();
  EXPECT_EQ(unblocked, 2);
}

TEST(DsServiceTest, MultipleRdWaitersAllUnblock) {
  DsCluster cluster;
  cluster.Start();
  std::vector<DsClient*> readers;
  int unblocked = 0;
  for (int i = 0; i < 5; ++i) {
    DsClient* c = cluster.AddClient();
    readers.push_back(c);
    c->Rd(ObjectTemplate("/sig"), [&](Result<DsReply> r) { unblocked += r.ok(); });
  }
  cluster.Settle();
  cluster.AddClient()->Out(ObjectTuple("/sig", ""), [](Result<DsReply>) {});
  cluster.Settle();
  EXPECT_EQ(unblocked, 5);
}

TEST(DsServiceTest, CasSemantics) {
  DsCluster cluster;
  cluster.Start();
  DsClient* client = cluster.AddClient();
  bool first = false;
  ErrorCode second = ErrorCode::kOk;
  client->Cas(ObjectTemplate("/c"), ObjectTuple("/c", "1"),
              [&](Result<DsReply> r) { first = r.ok(); });
  client->Cas(ObjectTemplate("/c"), ObjectTuple("/c", "2"),
              [&](Result<DsReply> r) { second = r.code(); });
  cluster.Settle();
  EXPECT_TRUE(first);
  EXPECT_EQ(second, ErrorCode::kNodeExists);
}

TEST(DsServiceTest, ReplaceConditionalOnContent) {
  DsCluster cluster;
  cluster.Start();
  DsClient* client = cluster.AddClient();
  client->Out(ObjectTuple("/ctr", "5"), [](Result<DsReply>) {});
  cluster.Settle();
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
  cluster.Settle();
  EXPECT_EQ(bad, ErrorCode::kNoNode);
  EXPECT_TRUE(good);
}

TEST(DsServiceTest, RdAllReturnsAllMatches) {
  DsCluster cluster;
  cluster.Start();
  DsClient* client = cluster.AddClient();
  for (int i = 0; i < 4; ++i) {
    client->Out(ObjectTuple("/set/e" + std::to_string(i), ""), [](Result<DsReply>) {});
  }
  cluster.Settle();
  size_t n = 0;
  client->RdAll(ObjectPrefixTemplate("/set"), [&](Result<DsReply> r) {
    ASSERT_TRUE(r.ok());
    n = r->tuples.size();
  });
  cluster.Settle();
  EXPECT_EQ(n, 4u);
}

TEST(DsServiceTest, LeaseExpiresWhenClientDies) {
  DsCluster cluster;
  cluster.Start();
  DsClientOptions opt;
  opt.lease = Millis(400);
  opt.renew_interval = Millis(150);
  DsClient* mortal = cluster.AddClient(opt);
  DsClient* observer = cluster.AddClient();
  mortal->OutLease(ObjectTuple("/alive/m", ""), [](Result<DsReply>) {});
  cluster.Settle(Seconds(1));
  // Still present: renewals keep it alive well past the base lease.
  bool present = false;
  observer->Rdp(ObjectTemplate("/alive/m"), [&](Result<DsReply> r) { present = r.ok(); });
  cluster.Settle();
  EXPECT_TRUE(present);
  // Client dies; lease eventually lapses (observer polls drive expiry).
  mortal->Kill();
  cluster.Settle(Seconds(1));
  bool still_present = true;
  observer->Rdp(ObjectTemplate("/alive/m"),
                [&](Result<DsReply> r) { still_present = r.ok(); });
  cluster.Settle();
  EXPECT_FALSE(still_present);
}

TEST(DsServiceTest, EmNamespaceDeniedToRegularOps) {
  DsCluster cluster;  // no hooks installed: /em must be inaccessible
  cluster.Start();
  DsClient* client = cluster.AddClient();
  ErrorCode out_code = ErrorCode::kOk;
  ErrorCode rd_code = ErrorCode::kOk;
  client->Out(ObjectTuple("/em/sneaky", "code"),
              [&](Result<DsReply> r) { out_code = r.code(); });
  client->Rdp(ObjectTemplate("/em/sneaky"), [&](Result<DsReply> r) { rd_code = r.code(); });
  cluster.Settle();
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
  DsCluster cluster(21, options);
  cluster.Start();
  DsClient* client = cluster.AddClient();
  ErrorCode code = ErrorCode::kOk;
  client->Out(ObjectTuple("/big", std::string(200, 'x')),
              [&](Result<DsReply> r) { code = r.code(); });
  cluster.Settle();
  EXPECT_EQ(code, ErrorCode::kPolicyViolation);
  bool small_ok = false;
  client->Out(ObjectTuple("/small", "x"), [&](Result<DsReply> r) { small_ok = r.ok(); });
  cluster.Settle();
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
  DsCluster cluster(21, options);
  cluster.Start();
  DsClient* readonly = cluster.AddClient();  // gets id 100
  DsClient* normal = cluster.AddClient();
  ErrorCode denied = ErrorCode::kOk;
  bool allowed = false;
  readonly->Out(ObjectTuple("/x", ""), [&](Result<DsReply> r) { denied = r.code(); });
  normal->Out(ObjectTuple("/y", ""), [&](Result<DsReply> r) { allowed = r.ok(); });
  cluster.Settle();
  EXPECT_EQ(denied, ErrorCode::kAccessDenied);
  EXPECT_TRUE(allowed);
}

TEST(DsServiceTest, SurvivesPrimaryCrash) {
  DsCluster cluster;
  cluster.Start();
  DsClient* client = cluster.AddClient();
  bool before = false;
  client->Out(ObjectTuple("/pre", ""), [&](Result<DsReply> r) { before = r.ok(); });
  cluster.Settle();
  ASSERT_TRUE(before);
  cluster.servers[0]->Crash();
  cluster.net->SetNodeUp(1, false);
  bool after = false;
  client->Out(ObjectTuple("/post", ""), [&](Result<DsReply> r) { after = r.ok(); });
  cluster.Settle(Seconds(6));
  EXPECT_TRUE(after);
  EXPECT_TRUE(cluster.servers[1]->space().HasMatch(ObjectTemplate("/pre")));
  EXPECT_TRUE(cluster.servers[1]->space().HasMatch(ObjectTemplate("/post")));
}

TEST(DsServiceTest, AllReplicasConvergeToIdenticalSpaces) {
  DsCluster cluster;
  cluster.Start();
  DsClient* a = cluster.AddClient();
  DsClient* b = cluster.AddClient();
  for (int i = 0; i < 10; ++i) {
    a->Out(ObjectTuple("/m/" + std::to_string(i), "a"), [](Result<DsReply>) {});
    b->Replace(ObjectPrefixTemplate("/m"), ObjectTuple("/m/r" + std::to_string(i), "b"),
               [](Result<DsReply>) {});
  }
  cluster.Settle(Seconds(2));
  auto reference = cluster.servers[0]->space().Serialize();
  for (auto& server : cluster.servers) {
    EXPECT_EQ(server->space().Serialize(), reference) << "replica " << server->id();
  }
}

}  // namespace
}  // namespace edc
