// ZkShardRouter / DsShardRouter behavior on a live sharded fixture: routing
// correctness (ops land only on the owning ensemble), cross-shard Multi
// rejection, the map-version stale-refresh protocol, per-shard failover and
// the DS scatter-gather/unroutable rules (docs/sharding.md).

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "edc/common/shard_map.h"
#include "edc/harness/fixture.h"
#include "edc/route/shard_router.h"

namespace edc {
namespace {

FixtureOptions ShardedZk(size_t shards, size_t clients) {
  FixtureOptions options;
  options.system = SystemKind::kZooKeeper;
  options.num_clients = clients;
  options.num_shards = shards;
  return options;
}

FixtureOptions ShardedDs(size_t shards, size_t clients) {
  FixtureOptions options;
  options.system = SystemKind::kDepSpace;
  options.num_clients = clients;
  options.num_shards = shards;
  return options;
}

size_t AppliedTotal(const std::vector<ZkServer*>& servers) {
  size_t total = 0;
  for (ZkServer* s : servers) {
    total += s->applied_log().size();
  }
  return total;
}

TEST(ShardRouterTest, WritesLandOnlyOnTheOwningShard) {
  CoordFixture fixture(ShardedZk(4, 1));
  fixture.Start();
  ZkShardRouter* router = fixture.zk_router(0);
  ASSERT_NE(router, nullptr);
  ASSERT_EQ(router->shard_count(), 4u);

  // Pin a subtree to shard 2 and write under it; only shard 2's ensemble
  // should apply new transactions (modulo session bookkeeping on the shard
  // holding the router's already-open sessions, hence: snapshot only the
  // quiesced non-target shards that have no open session).
  const ShardMap& map = fixture.shard_map();
  std::string pinned = map.SubtreeForShard("/pin", 2);
  uint32_t target = map.entry(2).shard_id;

  // Let sessions/pings quiesce, then snapshot every shard's applied totals.
  fixture.Settle(Seconds(1));
  std::vector<size_t> before;
  for (uint32_t s = 0; s < 4; ++s) {
    before.push_back(AppliedTotal(fixture.ZkShardServers(s)));
  }

  int ok = 0;
  router->Create(pinned, "root", false, false,
                 [&](Result<std::string> r) { ok += r.ok(); });
  for (int i = 0; i < 5; ++i) {
    router->Create(pinned + "/n" + std::to_string(i), "v", false, false,
                   [&](Result<std::string> r) { ok += r.ok(); });
  }
  fixture.Settle(Seconds(2));
  EXPECT_EQ(ok, 6);

  for (uint32_t s = 0; s < 4; ++s) {
    size_t delta = AppliedTotal(fixture.ZkShardServers(s)) - before[s];
    if (s == target) {
      // 6 writes x 3 replicas, plus possibly a session-create.
      EXPECT_GE(delta, 18u) << "shard " << s;
    } else {
      // Non-target shards may only see session bookkeeping (a session-create
      // txn per replica if this was the shard's first contact), never 6
      // client writes.
      EXPECT_LT(delta, 18u) << "shard " << s;
    }
  }
}

TEST(ShardRouterTest, ReadsSeeWritesAcrossManyKeys) {
  CoordFixture fixture(ShardedZk(4, 2));
  fixture.Start();
  ZkShardRouter* w = fixture.zk_router(0);
  ZkShardRouter* r = fixture.zk_router(1);

  int created = 0;
  for (int i = 0; i < 24; ++i) {
    w->Create("/mk" + std::to_string(i), "v" + std::to_string(i), false, false,
              [&](Result<std::string> res) { created += res.ok(); });
  }
  fixture.Settle(Seconds(3));
  ASSERT_EQ(created, 24);

  int read_ok = 0;
  for (int i = 0; i < 24; ++i) {
    r->GetData("/mk" + std::to_string(i), false, [&, i](Result<ZkApi::NodeResult> res) {
      ASSERT_TRUE(res.ok()) << res.status().ToString();
      EXPECT_EQ(res->data, "v" + std::to_string(i));
      ++read_ok;
    });
  }
  fixture.Settle(Seconds(3));
  EXPECT_EQ(read_ok, 24);
  // 24 distinct top-level keys over 4 shards: every shard's sub-client
  // should have been created.
  EXPECT_EQ(r->sub_client_ids().size(), 4u);
}

TEST(ShardRouterTest, CrossShardMultiRejectedSameShardAccepted) {
  CoordFixture fixture(ShardedZk(4, 1));
  fixture.Start();
  ZkShardRouter* router = fixture.zk_router(0);
  const ShardMap& map = fixture.shard_map();

  // Find two top-level keys on different shards.
  std::string a = map.SubtreeForShard("/ma", 0);
  std::string b = map.SubtreeForShard("/mb", 1);

  auto create_op = [](const std::string& path) {
    ZkOp op;
    op.type = ZkOpType::kCreate;
    op.path = path;
    op.data = "m";
    return op;
  };

  Status cross = Status::Ok();
  bool cross_done = false;
  router->Multi({create_op(a), create_op(b)}, [&](Status s) {
    cross = s;
    cross_done = true;
  });
  fixture.Settle(Seconds(1));
  ASSERT_TRUE(cross_done);
  EXPECT_EQ(cross.code(), ErrorCode::kInvalidArgument) << cross.ToString();

  Status same = Status(ErrorCode::kInternal, "unset");
  router->Multi({create_op(a), create_op(a + "/x")}, [&](Status s) { same = s; });
  fixture.Settle(Seconds(2));
  EXPECT_TRUE(same.ok()) << same.ToString();
}

TEST(ShardRouterTest, EmptyMultiRejectedWithoutSending) {
  CoordFixture fixture(ShardedZk(2, 1));
  fixture.Start();
  ZkShardRouter* router = fixture.zk_router(0);

  int64_t bytes_before = fixture.ClientBytesSent();
  Status empty = Status::Ok();
  bool done = false;
  router->Multi({}, [&](Status s) {
    empty = s;
    done = true;
  });
  // The router answers at once: nothing reached any shard.
  ASSERT_TRUE(done);
  EXPECT_EQ(empty.code(), ErrorCode::kInvalidArgument) << empty.ToString();
  EXPECT_EQ(fixture.ClientBytesSent(), bytes_before);
}

TEST(ShardRouterTest, StaleRejectionRefreshesMapAndRetries) {
  CoordFixture fixture(ShardedZk(2, 1));
  fixture.Start();
  ZkShardRouter* router = fixture.zk_router(0);
  uint64_t v_before = router->map_version();

  // Grow the topology behind the router's back: every existing replica now
  // expects a newer version, so the next op bounces with kShardMapStale and
  // the router must refresh + retry transparently.
  fixture.AddShard();
  ASSERT_GT(fixture.shard_map().version(), v_before);
  fixture.Settle(Seconds(3));  // new ensemble's leader election

  int ok = 0;
  for (int i = 0; i < 12; ++i) {
    router->Create("/st" + std::to_string(i), "v", false, false,
                   [&](Result<std::string> r) { ok += r.ok(); });
  }
  fixture.Settle(Seconds(10));
  EXPECT_EQ(ok, 12);
  EXPECT_GE(router->stale_refreshes(), 1);
  EXPECT_EQ(router->map_version(), fixture.shard_map().version());
  EXPECT_EQ(router->shard_count(), 3u);
}

TEST(ShardRouterTest, PreferredReplicaSpreadAcrossRouters) {
  CoordFixture fixture(ShardedZk(2, 3));
  fixture.Start();
  // Different routers should open their shard-0 session against different
  // replicas of the ensemble (read load spreads without any balancer).
  std::set<NodeId> servers;
  for (size_t i = 0; i < 3; ++i) {
    ZkClient* sub = fixture.zk_router(i)->shard_client(0);
    ASSERT_NE(sub, nullptr);
    servers.insert(sub->current_server());
  }
  EXPECT_EQ(servers.size(), 3u);
}

TEST(ShardRouterTest, ShardFailoverKeepsRouterUsable) {
  CoordFixture fixture(ShardedZk(2, 1));
  fixture.Start();
  ZkShardRouter* router = fixture.zk_router(0);
  const ShardMap& map = fixture.shard_map();
  std::string pinned = map.SubtreeForShard("/fo", 1);

  bool seeded = false;
  router->Create(pinned, "v", false, false, [&](Result<std::string> r) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    seeded = true;
  });
  fixture.Settle(Seconds(2));
  ASSERT_TRUE(seeded);

  // Crash the replica that shard 1's sub-client is connected to; the
  // sub-client fails over inside its ensemble and the router needs no map
  // change at all.
  ZkClient* sub = router->shard_client(map.entry(1).shard_id);
  ASSERT_NE(sub, nullptr);
  NodeId victim = sub->current_server();
  fixture.faults().Crash(victim);
  fixture.Settle(Seconds(8));  // silence detection + reconnect

  Status after = Status(ErrorCode::kInternal, "unset");
  router->SetData(pinned, "v2", -1, [&](Status s) { after = s; });
  fixture.Settle(Seconds(5));
  EXPECT_TRUE(after.ok()) << after.ToString();
  EXPECT_NE(sub->current_server(), victim);
}

// --- DepSpace ------------------------------------------------------------

DsTuple Tup(const std::string& a, const std::string& b) {
  return DsTuple{DsField{a}, DsField{b}};
}

TEST(DsShardRouterTest, TuplesRouteByFirstField) {
  CoordFixture fixture(ShardedDs(4, 1));
  fixture.Start();
  DsShardRouter* router = fixture.ds_router(0);
  ASSERT_NE(router, nullptr);

  int ok = 0;
  for (int i = 0; i < 16; ++i) {
    router->Out(Tup("k" + std::to_string(i), "v"), [&](Result<DsReply> r) {
      ok += r.ok() && r->code == ErrorCode::kOk;
    });
  }
  fixture.Settle(Seconds(3));
  ASSERT_EQ(ok, 16);

  // Exact-first-field templates find their tuples on whatever shard they
  // hashed to.
  int found = 0;
  for (int i = 0; i < 16; ++i) {
    DsTemplate t{DsTField::Exact("k" + std::to_string(i)), DsTField::Any()};
    router->Rdp(t, [&](Result<DsReply> r) {
      found += r.ok() && r->code == ErrorCode::kOk && r->tuples.size() == 1;
    });
  }
  fixture.Settle(Seconds(3));
  EXPECT_EQ(found, 16);
}

TEST(DsShardRouterTest, WildcardSingleTupleOpsRejectedRdAllGathers) {
  CoordFixture fixture(ShardedDs(4, 1));
  fixture.Start();
  DsShardRouter* router = fixture.ds_router(0);

  int ok = 0;
  for (int i = 0; i < 12; ++i) {
    router->Out(Tup("g" + std::to_string(i), "payload"), [&](Result<DsReply> r) {
      ok += r.ok() && r->code == ErrorCode::kOk;
    });
  }
  fixture.Settle(Seconds(3));
  ASSERT_EQ(ok, 12);

  // A wildcard first field cannot be routed: Inp would consume one tuple per
  // shard, so it is rejected outright.
  Status inp_status = Status::Ok();
  router->Inp(DsTemplate{DsTField::Any(), DsTField::Exact("payload")},
              [&](Result<DsReply> r) {
                inp_status = r.ok() ? Status::Ok() : r.status();
              });
  fixture.Settle(Seconds(1));
  EXPECT_EQ(inp_status.code(), ErrorCode::kInvalidArgument) << inp_status.ToString();

  // RdAll is read-only, so it scatter-gathers and merges all shards' matches.
  size_t gathered = 0;
  router->RdAll(DsTemplate{DsTField::Any(), DsTField::Exact("payload")},
                [&](Result<DsReply> r) {
                  ASSERT_TRUE(r.ok()) << r.status().ToString();
                  gathered = r->tuples.size();
                });
  fixture.Settle(Seconds(3));
  EXPECT_EQ(gathered, 12u);
  // The workload really did span several shards.
  EXPECT_GT(router->sub_client_ids().size(), 1u);
}

// Every single-tuple op whose template cannot be routed to one shard — a
// wildcard first field, or (cas, replace) a template and a tuple that land on
// different shards — is answered by the router before anything is sent.
struct UnroutableCase {
  const char* name;
  void (*issue)(DsShardRouter* r, const ShardMap& map, DsApi::ReplyCb done);
};

DsTemplate WildcardTemplate() { return DsTemplate{DsTField::Any(), DsTField::Exact("payload")}; }

const UnroutableCase kUnroutableCases[] = {
    {"rdp", [](DsShardRouter* r, const ShardMap&,
               DsApi::ReplyCb done) { r->Rdp(WildcardTemplate(), std::move(done)); }},
    {"inp", [](DsShardRouter* r, const ShardMap&,
               DsApi::ReplyCb done) { r->Inp(WildcardTemplate(), std::move(done)); }},
    {"rd", [](DsShardRouter* r, const ShardMap&,
              DsApi::ReplyCb done) { r->Rd(WildcardTemplate(), std::move(done)); }},
    {"in", [](DsShardRouter* r, const ShardMap&,
              DsApi::ReplyCb done) { r->In(WildcardTemplate(), std::move(done)); }},
    {"cas",
     [](DsShardRouter* r, const ShardMap&, DsApi::ReplyCb done) {
       r->Cas(WildcardTemplate(), Tup("g0", "payload"), std::move(done));
     }},
    {"replace",
     [](DsShardRouter* r, const ShardMap&, DsApi::ReplyCb done) {
       r->Replace(WildcardTemplate(), Tup("g0", "payload"), std::move(done));
     }},
    {"cas across shards",
     [](DsShardRouter* r, const ShardMap& map, DsApi::ReplyCb done) {
       r->Cas(ObjectTemplate(map.SubtreeForShard("/pa", 0)),
              ObjectTuple(map.SubtreeForShard("/pb", 1), "v"), std::move(done));
     }},
    {"replace across shards",
     [](DsShardRouter* r, const ShardMap& map, DsApi::ReplyCb done) {
       r->Replace(ObjectTemplate(map.SubtreeForShard("/pa", 0)),
                  ObjectTuple(map.SubtreeForShard("/pb", 1), "v"), std::move(done));
     }},
};

TEST(DsShardRouterTest, UnroutableSingleTupleOpsRejectedWithoutSending) {
  CoordFixture fixture(ShardedDs(4, 1));
  fixture.Start();
  DsShardRouter* router = fixture.ds_router(0);
  router->Out(Tup("g0", "payload"), [](Result<DsReply>) {});
  fixture.Settle(Seconds(1));

  for (const UnroutableCase& c : kUnroutableCases) {
    SCOPED_TRACE(c.name);
    int64_t bytes_before = fixture.ClientBytesSent();
    Status status = Status::Ok();
    bool done = false;
    c.issue(router, fixture.shard_map(), [&](Result<DsReply> r) {
      status = r.ok() ? Status::Ok() : r.status();
      done = true;
    });
    ASSERT_TRUE(done);
    EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument) << status.ToString();
    EXPECT_EQ(fixture.ClientBytesSent(), bytes_before);
  }
}

TEST(DsShardRouterTest, StaleRejectionRefreshesMap) {
  CoordFixture fixture(ShardedDs(2, 1));
  fixture.Start();
  DsShardRouter* router = fixture.ds_router(0);
  uint64_t v_before = router->map_version();

  fixture.AddShard();  // pushes the new version into every replica group
  ASSERT_GT(fixture.shard_map().version(), v_before);

  int ok = 0;
  for (int i = 0; i < 12; ++i) {
    router->Out(Tup("s" + std::to_string(i), "v"), [&](Result<DsReply> r) {
      ok += r.ok() && r->code == ErrorCode::kOk;
    });
  }
  fixture.Settle(Seconds(5));
  EXPECT_EQ(ok, 12);
  EXPECT_GE(router->stale_refreshes(), 1);
  EXPECT_EQ(router->map_version(), fixture.shard_map().version());
  EXPECT_EQ(router->shard_count(), 3u);
}

}  // namespace
}  // namespace edc
