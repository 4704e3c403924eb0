#include "edc/ext/ds_binding.h"

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "edc/harness/fixture.h"
#include "tests/ext/over_budget_ext.h"
#include "tests/harness/fixture_helpers.h"

namespace edc {
namespace {

constexpr char kCounterExt[] = R"(
extension ctr_increment {
  on op read "/ctr-increment";
  fn read(oid) {
    let obj = read_object("/ctr");
    if (obj == null) { return error("no counter"); }
    let c = parse_int(get(obj, "data"));
    update("/ctr", str(c + 1));
    return c + 1;
  }
}
)";

constexpr char kQueueExt[] = R"(
extension queue_remove {
  on op read "/queue-head";
  fn read(oid) {
    let objs = sub_objects("/queue");
    if (len(objs) == 0) { return error("empty queue"); }
    let head = min_by(objs, "ctime");
    delete_object(get(head, "path"));
    return get(head, "data");
  }
}
)";

// Four EDS replicas, each with its extension manager, and no fixture
// clients: each test adds its own.
FixtureOptions EdsGroup(ExtensionLimits limits = ExtensionLimits{},
                        DsServerOptions server = DsServerOptions{}) {
  FixtureOptions options = GroupOptions(SystemKind::kExtensibleDepSpace, 21);
  options.limits = limits;
  options.ds_server = std::move(server);
  return options;
}

Status RegisterAndWait(CoordFixture& cluster, DsClient* client, const std::string& name,
                       const std::string& code) {
  Status status = Status(ErrorCode::kInternal);
  client->RegisterExtension(name, code, [&](Result<DsReply> r) { status = r.status(); });
  cluster.Settle(Millis(500));
  return status;
}

Result<std::string> Increment(CoordFixture& cluster, DsClient* client) {
  Result<std::string> result = Status(ErrorCode::kInternal);
  client->Rdp(ObjectTemplate("/ctr-increment"), [&](Result<DsReply> r) {
    if (!r.ok()) {
      result = r.status();
    } else {
      result = r->value;
    }
  });
  cluster.Settle(Millis(500));
  return result;
}

TEST(EdsExtensionTest, RegistersAndExecutesCounterOnAllReplicas) {
  CoordFixture cluster(EdsGroup());
  cluster.Start();
  DsClient* client = AddGroupDsClient(cluster);
  client->Out(ObjectTuple("/ctr", "0"), [](Result<DsReply>) {});
  cluster.Settle(Millis(500));
  ASSERT_TRUE(RegisterAndWait(cluster, client, "ctr_increment", kCounterExt).ok());
  for (auto& mgr : cluster.ds_managers()) {
    EXPECT_TRUE(mgr->registry().Contains("ctr_increment"));
  }
  auto r1 = Increment(cluster, client);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(*r1, "1");
  EXPECT_EQ(*Increment(cluster, client), "2");
  // Deterministic execution: all four replicas converge.
  auto reference = cluster.ds_servers[0]->space().Serialize();
  for (auto& server : cluster.ds_servers) {
    EXPECT_EQ(server->space().Serialize(), reference);
  }
}

TEST(EdsExtensionTest, NondeterministicExtensionRejected) {
  CoordFixture cluster(EdsGroup());
  cluster.Start();
  DsClient* client = AddGroupDsClient(cluster);
  // now() is fine in EZK but must be rejected by the EDS verifier (§4.1.1:
  // active replication demands a deterministic white list).
  Status s = RegisterAndWait(cluster, client, "stamps", R"(
    extension stamps { on op read "/stamp"; fn read(oid) { return now(); } })");
  EXPECT_EQ(s.code(), ErrorCode::kExtensionRejected);
}

TEST(EdsExtensionTest, MalformedExtensionRejected) {
  CoordFixture cluster(EdsGroup());
  cluster.Start();
  DsClient* client = AddGroupDsClient(cluster);
  Status s = RegisterAndWait(cluster, client, "bad", "not a program");
  EXPECT_EQ(s.code(), ErrorCode::kExtensionRejected);
  for (auto& mgr : cluster.ds_managers()) {
    EXPECT_FALSE(mgr->registry().Contains("bad"));
  }
}

TEST(EdsExtensionTest, DuplicateRegistrationRejected) {
  CoordFixture cluster(EdsGroup());
  cluster.Start();
  DsClient* client = AddGroupDsClient(cluster);
  ASSERT_TRUE(RegisterAndWait(cluster, client, "ctr_increment", kCounterExt).ok());
  Status again = RegisterAndWait(cluster, client, "ctr_increment", kCounterExt);
  EXPECT_EQ(again.code(), ErrorCode::kNodeExists);
}

TEST(EdsExtensionTest, AcknowledgmentGatesTriggering) {
  CoordFixture cluster(EdsGroup());
  cluster.Start();
  DsClient* owner = AddGroupDsClient(cluster);
  DsClient* other = AddGroupDsClient(cluster);
  owner->Out(ObjectTuple("/ctr", "0"), [](Result<DsReply>) {});
  cluster.Settle(Millis(500));
  ASSERT_TRUE(RegisterAndWait(cluster, owner, "ctr_increment", kCounterExt).ok());
  // Unacknowledged: plain rdp -> kNoNode (no /ctr-increment tuple exists).
  EXPECT_EQ(Increment(cluster, other).code(), ErrorCode::kNoNode);
  Status ack = Status(ErrorCode::kInternal);
  other->AcknowledgeExtension("ctr_increment", [&](Result<DsReply> r) { ack = r.status(); });
  cluster.Settle(Millis(500));
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(*Increment(cluster, other), "1");
}

TEST(EdsExtensionTest, DeregistrationByOwnerOnly) {
  CoordFixture cluster(EdsGroup());
  cluster.Start();
  DsClient* owner = AddGroupDsClient(cluster);
  DsClient* other = AddGroupDsClient(cluster);
  ASSERT_TRUE(RegisterAndWait(cluster, owner, "ctr_increment", kCounterExt).ok());
  Status denied = Status(ErrorCode::kInternal);
  other->DeregisterExtension("ctr_increment", [&](Result<DsReply> r) { denied = r.status(); });
  cluster.Settle(Millis(500));
  EXPECT_EQ(denied.code(), ErrorCode::kAccessDenied);
  Status ok = Status(ErrorCode::kInternal);
  owner->DeregisterExtension("ctr_increment", [&](Result<DsReply> r) { ok = r.status(); });
  cluster.Settle(Millis(500));
  EXPECT_TRUE(ok.ok());
  for (auto& mgr : cluster.ds_managers()) {
    EXPECT_FALSE(mgr->registry().Contains("ctr_increment"));
  }
}

TEST(EdsExtensionTest, QueueExtensionFifo) {
  CoordFixture cluster(EdsGroup());
  cluster.Start();
  DsClient* client = AddGroupDsClient(cluster);
  ASSERT_TRUE(RegisterAndWait(cluster, client, "queue_remove", kQueueExt).ok());
  for (int i = 0; i < 3; ++i) {
    client->Out(ObjectTuple("/queue/e" + std::to_string(i), "p" + std::to_string(i)),
                [](Result<DsReply>) {});
    cluster.Settle(Millis(100));  // distinct ordered timestamps
  }
  cluster.Settle(Millis(500));
  for (int i = 0; i < 3; ++i) {
    std::string data;
    client->Rdp(ObjectTemplate("/queue-head"), [&](Result<DsReply> r) {
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      data = r->value;
    });
    cluster.Settle(Millis(500));
    EXPECT_EQ(data, "p" + std::to_string(i));
  }
  ErrorCode code = ErrorCode::kOk;
  client->Rdp(ObjectTemplate("/queue-head"), [&](Result<DsReply> r) { code = r.code(); });
  cluster.Settle(Millis(500));
  EXPECT_EQ(code, ErrorCode::kExtensionError);  // empty queue
}

// The managers' shared object views follow the tuple space: one per live
// tuple a handler has read, dropped when the tuple leaves (through the
// handler or any other op) and all dropped when the state is reloaded.
TEST(EdsExtensionTest, ObjectViewsFollowLiveTuples) {
  CoordFixture cluster(EdsGroup());
  cluster.Start();
  DsClient* client = AddGroupDsClient(cluster);
  ASSERT_TRUE(RegisterAndWait(cluster, client, "queue_remove", kQueueExt).ok());
  for (int i = 0; i < 3; ++i) {
    client->Out(ObjectTuple("/queue/e" + std::to_string(i), "p" + std::to_string(i)),
                [](Result<DsReply>) {});
    cluster.Settle(Millis(100));
  }
  cluster.Settle(Millis(500));
  for (auto& mgr : cluster.ds_managers()) {
    EXPECT_EQ(mgr->views().size(), 0u);  // built on first read only
  }

  std::string data;
  client->Rdp(ObjectTemplate("/queue-head"), [&](Result<DsReply> r) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    data = r->value;
  });
  cluster.Settle(Millis(500));
  EXPECT_EQ(data, "p0");
  for (auto& mgr : cluster.ds_managers()) {
    EXPECT_EQ(mgr->views().size(), 2u);  // e1 and e2; e0 left with its view
  }

  client->Inp(ObjectTemplate("/queue/e1"), [](Result<DsReply>) {});
  cluster.Settle(Millis(500));
  for (auto& mgr : cluster.ds_managers()) {
    EXPECT_EQ(mgr->views().size(), 1u);
  }

  cluster.ds_servers[0]->Crash();
  cluster.ds_servers[0]->Restart();
  EXPECT_EQ(cluster.ds_managers()[0]->views().size(), 0u);
}

// A custom access policy: client 100 is read-only, everyone else may do
// anything — including touch /em, which the default rule forbids.
DsServerOptions ReadOnlyClient100Policy() {
  DsServerOptions options;
  options.access.check = [](NodeId client, DsOpType type, const DsTuple*,
                            const DsTemplate*) -> Status {
    if (client == 100 && (type == DsOpType::kOut || type == DsOpType::kReplace ||
                          type == DsOpType::kCas || type == DsOpType::kInp)) {
      return Status(ErrorCode::kAccessDenied, "read-only client");
    }
    return Status::Ok();
  };
  return options;
}

TEST(EdsExtensionTest, ExtensionWritesRespectAccessControl) {
  // The state ops an extension performs pass through the access-control
  // layer above the EM (Fig. 4): a client that may not write cannot gain
  // privileges by invoking an extension (§4.1.2).
  CoordFixture cluster(EdsGroup(ExtensionLimits{}, ReadOnlyClient100Policy()));
  cluster.Start();
  DsClient* readonly = AddGroupDsClient(cluster);  // id 100
  DsClient* writer = AddGroupDsClient(cluster);    // id 101
  writer->Out(ObjectTuple("/ctr", "0"), [](Result<DsReply>) {});
  cluster.Settle(Millis(500));
  ASSERT_TRUE(RegisterAndWait(cluster, readonly, "ctr_increment", kCounterExt).ok());
  auto result = Increment(cluster, readonly);
  EXPECT_EQ(result.code(), ErrorCode::kExtensionError);  // update() was denied
  // Counter unchanged.
  EXPECT_EQ(FieldToString(
                (*cluster.ds_servers[0]->space().Rdp(ObjectTemplate("/ctr")))[1]),
            "0");
}

// The sandbox keeps extensions out of /em by itself: a custom access policy
// that lets the invoking client write there does not let its extension
// overwrite another extension's registration with cas().
TEST(EdsExtensionTest, CasCannotOverwriteRegistrationUnderCustomPolicy) {
  CoordFixture cluster(EdsGroup(ExtensionLimits{}, ReadOnlyClient100Policy()));
  cluster.Start();
  DsClient* owner = AddGroupDsClient(cluster);     // id 100
  DsClient* attacker = AddGroupDsClient(cluster);  // id 101
  ASSERT_TRUE(RegisterAndWait(cluster, owner, "ctr_increment", kCounterExt).ok());
  ASSERT_TRUE(RegisterAndWait(cluster, attacker, "smash", R"(
    extension smash {
      on op read "/smash";
      fn read(p) {
        let reg = read_object("/em/ctr_increment");
        return cas("/em/ctr_increment", get(reg, "data"), "junk");
      }
    })").ok());
  Status smashed = Status::Ok();
  attacker->Rdp(ObjectTemplate("/smash"), [&](Result<DsReply> r) { smashed = r.status(); });
  cluster.Settle(Millis(500));
  EXPECT_EQ(smashed.code(), ErrorCode::kExtensionError);
  EXPECT_EQ(smashed.message(), "extensions may not touch the /em namespace");
  for (auto& server : cluster.ds_servers) {
    auto tuple = server->space().Rdp(ObjectTemplate("/em/ctr_increment"));
    ASSERT_TRUE(tuple.ok());
    auto reg = DecodeRegistration(FieldToString((*tuple)[1]));
    ASSERT_TRUE(reg.ok());
    EXPECT_EQ(reg->first, owner->id());
  }
}

// Event-handler failures count toward strike_limit like op-handler ones:
// an on_deleted handler that always fails is deregistered, identically on
// every replica.
TEST(EdsExtensionTest, FailingEventExtensionIsEvictedOnAllReplicas) {
  FixtureOptions options;
  options.system = SystemKind::kExtensibleDepSpace;
  options.limits.strike_limit = 2;
  CoordFixture fix(options);
  fix.Start();
  CoordClient* client = fix.coord(0);
  Status reg = Status(ErrorCode::kInternal);
  client->RegisterExtension("crashy", R"(
    extension crashy {
      on event deleted "/m/*";
      fn on_deleted(p) { return error("always fails"); }
    })", [&](Status s) { reg = s; });
  fix.Settle(Seconds(1));
  ASSERT_TRUE(reg.ok()) << reg.ToString();
  for (int i = 0; i < 2; ++i) {
    const std::string path = "/m/o" + std::to_string(i);
    client->Create(path, "v", [](Result<std::string>) {});
    fix.Settle(Millis(200));
    client->Delete(path, [](Status) {});
    fix.Settle(Millis(200));
  }
  fix.Settle(Seconds(1));
  for (auto& server : fix.ds_servers) {
    EXPECT_FALSE(server->space().HasMatch(ObjectTemplate("/em/crashy")));
  }
  std::string why;
  EXPECT_TRUE(fix.CheckEdsInvariants(&why)) << why;
  // The name is free again: a fresh registration succeeds.
  reg = Status(ErrorCode::kInternal);
  client->RegisterExtension("crashy", R"(
    extension crashy { on op read "/c"; fn read(p) { return 1; } })",
                            [&](Status s) { reg = s; });
  fix.Settle(Seconds(1));
  EXPECT_TRUE(reg.ok()) << reg.ToString();
}

// An uncertified handler (EDC-W006: its bound is over budget) is compiled at
// registration and runs on the VM, metered, inline on every replica. Within
// the budget it answers what the oracle answers; past it the client gets the
// oracle's exact kExtensionLimit Status, and every replica records the same
// strike.
TEST(EdsExtensionTest, UncertifiedHandlerRunsMeteredOnVm) {
  ExtensionLimits limits;
  limits.budget.max_steps = kOverBudgetMaxSteps;
  limits.strike_limit = 3;
  FixtureOptions options = EdsGroup(limits);
  options.observability = true;
  CoordFixture cluster(options);
  cluster.Start();
  DsClient* client = AddGroupDsClient(cluster);
  for (const char* path : {"/d/c0", "/d/c1"}) {
    client->Out(ObjectTuple(path, ""), [](Result<DsReply>) {});
  }
  cluster.Settle(Millis(500));
  ASSERT_TRUE(RegisterAndWait(cluster, client, "cube", kOverBudgetExt).ok());
  for (auto& mgr : cluster.ds_managers()) {
    ASSERT_NE(mgr->registry().Find("cube"), nullptr);
    EXPECT_FALSE(mgr->registry().Find("cube")->Certified("read"));
  }

  auto cube = [&]() {
    Result<std::string> result = Status(ErrorCode::kInternal);
    client->Rdp(ObjectTemplate("/cube"), [&](Result<DsReply> r) {
      result = r.ok() ? Result<std::string>(r->value) : r.status();
    });
    cluster.Settle(Millis(500));
    return result;
  };
  auto strikes = [&]() {
    std::vector<int> out;
    for (auto& mgr : cluster.ds_managers()) {
      out.push_back(mgr->registry().Find("cube")->strikes);
    }
    return out;
  };

  Result<Value> oracle_within = OverBudgetOracleRun(2, limits);
  ASSERT_TRUE(oracle_within.ok());
  Result<std::string> within = cube();
  ASSERT_TRUE(within.ok()) << within.status().ToString();
  EXPECT_EQ(*within, oracle_within->ToString());
  EXPECT_EQ(strikes(), std::vector<int>(4, 0));

  client->Out(ObjectTuple("/d/c2", ""), [](Result<DsReply>) {});
  cluster.Settle(Millis(500));
  Result<Value> oracle_past = OverBudgetOracleRun(3, limits);
  ASSERT_EQ(oracle_past.status().code(), ErrorCode::kExtensionLimit);
  Result<std::string> past = cube();
  EXPECT_EQ(past.status().code(), oracle_past.status().code());
  EXPECT_EQ(past.status().message(), oracle_past.status().message());
  EXPECT_EQ(strikes(), std::vector<int>(4, 1));

  // Two requests, executed by each of the four replicas.
  EXPECT_EQ(cluster.obs().metrics.CounterValue("ext.invocations"), 8);
  EXPECT_EQ(cluster.obs().metrics.CounterValue("ext.vm_dispatches"), 8);
  EXPECT_EQ(cluster.obs().metrics.CounterValue("ext.certified"), 0);
}

TEST(EdsExtensionTest, BlockingExtensionDefersReply) {
  CoordFixture cluster(EdsGroup());
  cluster.Start();
  DsClient* waiter = AddGroupDsClient(cluster);
  DsClient* creator = AddGroupDsClient(cluster);
  ASSERT_TRUE(RegisterAndWait(cluster, waiter, "gate", R"(
    extension gate {
      on op block "/gate/*";
      fn block(oid) {
        block("/gate-open");
        return null;
      }
    })").ok());
  bool unblocked = false;
  waiter->Rd(ObjectTemplate("/gate/w1"), [&](Result<DsReply> r) { unblocked = r.ok(); });
  cluster.Settle(Millis(500));
  EXPECT_FALSE(unblocked);
  creator->Out(ObjectTuple("/gate-open", ""), [](Result<DsReply>) {});
  cluster.Settle(Millis(500));
  EXPECT_TRUE(unblocked);
}

TEST(EdsExtensionTest, EventExtensionReactsToLeaseExpiry) {
  CoordFixture cluster(EdsGroup());
  cluster.Start();
  DsClientOptions mortal_opts;
  mortal_opts.lease = Millis(400);
  mortal_opts.renew_interval = Millis(150);
  DsClient* mortal = AddGroupDsClient(cluster, mortal_opts);
  DsClient* observer = AddGroupDsClient(cluster);
  ASSERT_TRUE(RegisterAndWait(cluster, observer, "obituary", R"(
    extension obituary {
      on event deleted "/alive/*";
      fn on_deleted(oid) {
        create("/dead" + substr(oid, 6, len(oid) - 6), "");
        return null;
      }
    })").ok());
  mortal->OutLease(ObjectTuple("/alive/m", ""), [](Result<DsReply>) {});
  cluster.Settle(Seconds(1));
  mortal->Kill();
  // Observer polling drives deterministic expiry and the event extension.
  for (int i = 0; i < 10; ++i) {
    observer->Rdp(ObjectTemplate("/dead/m"), [](Result<DsReply>) {});
    cluster.Settle(Millis(200));
  }
  EXPECT_TRUE(cluster.ds_servers[0]->space().HasMatch(ObjectTemplate("/dead/m")));
  EXPECT_FALSE(cluster.ds_servers[0]->space().HasMatch(ObjectTemplate("/alive/m")));
}

TEST(EdsExtensionTest, UnblockedVetoReblocksOperation) {
  CoordFixture cluster(EdsGroup());
  cluster.Start();
  DsClient* waiter = AddGroupDsClient(cluster);
  DsClient* writer = AddGroupDsClient(cluster);
  // Veto unblocks while a /hold marker exists.
  ASSERT_TRUE(RegisterAndWait(cluster, waiter, "traffic_light", R"(
    extension traffic_light {
      on event unblocked "/work/*";
      fn on_unblocked(oid) {
        if (exists("/hold")) { return false; }
        return true;
      }
    })").ok());
  writer->Out(ObjectTuple("/hold", ""), [](Result<DsReply>) {});
  cluster.Settle(Millis(500));
  bool done = false;
  waiter->Rd(ObjectTemplate("/work/item"), [&](Result<DsReply> r) { done = r.ok(); });
  cluster.Settle(Millis(500));
  writer->Out(ObjectTuple("/work/item", ""), [](Result<DsReply>) {});
  cluster.Settle(Millis(500));
  EXPECT_FALSE(done);  // vetoed: /hold exists
  writer->Inp(ObjectTemplate("/hold"), [](Result<DsReply>) {});
  cluster.Settle(Millis(500));
  // Releasing the hold alone does not re-trigger; the next matching out does.
  writer->Out(ObjectTuple("/work/item", "2"), [](Result<DsReply>) {});
  cluster.Settle(Millis(500));
  EXPECT_TRUE(done);
}

TEST(EdsExtensionTest, ExtensionsReloadAfterFullClusterRestart) {
  CoordFixture cluster(EdsGroup());
  cluster.Start();
  DsClient* client = AddGroupDsClient(cluster);
  ASSERT_TRUE(RegisterAndWait(cluster, client, "ctr_increment", kCounterExt).ok());
  // Restarted replicas rejoin by state transfer, but with all four down at
  // once none kept any state: the ensemble restarts empty (OnStateReloaded
  // from an empty space), and the extension must be registered again.
  for (auto& server : cluster.ds_servers) {
    server->Crash();
  }
  for (auto& server : cluster.ds_servers) {
    server->Restart();
  }
  for (auto& mgr : cluster.ds_managers()) {
    EXPECT_FALSE(mgr->registry().Contains("ctr_increment"));
  }
  ASSERT_TRUE(RegisterAndWait(cluster, client, "ctr_increment", kCounterExt).ok());
  for (auto& mgr : cluster.ds_managers()) {
    EXPECT_TRUE(mgr->registry().Contains("ctr_increment"));
  }
}

// The /em rules for client writes (§5.2.2), with one replica rebuilding its
// registry by state transfer: every replica ends with the same registry, and
// the refused write changed none of it.
struct EdsEmClients {
  NodeId acker = 0;   // acknowledged the owner's extension
  NodeId victim = 0;  // never acknowledged it
};

struct EdsEmWriteCase {
  const char* name;
  // Issues the refused write from the attacker's client.
  void (*issue)(DsClient* attacker, const EdsEmClients& c, DsClient::ReplyCb done);
};

std::string CounterAck(NodeId client) { return kDsEmLayout.AckPath("ctr_increment", client); }

void PrintTo(const EdsEmWriteCase& c, std::ostream* os) { *os << c.name; }

const EdsEmWriteCase kEdsEmWriteCases[] = {
    {"AckNamingAnotherClient",
     [](DsClient* a, const EdsEmClients& c, DsClient::ReplyCb done) {
       a->Out(ObjectTuple(CounterAck(c.victim), ""), std::move(done));
     }},
    {"RegistrationWithLease",
     [](DsClient* a, const EdsEmClients&, DsClient::ReplyCb done) {
       DsOp op;
       op.type = DsOpType::kOut;
       op.tuple = ObjectTuple("/em/leased", kCounterExt);
       op.lease = Seconds(2);
       a->Call(std::move(op), std::move(done));
     }},
    {"DeleteOfAnotherClientsAck",
     [](DsClient* a, const EdsEmClients& c, DsClient::ReplyCb done) {
       a->Inp(ObjectTemplate(CounterAck(c.acker)), std::move(done));
     }},
    {"NonOwnerDeregistration",
     [](DsClient* a, const EdsEmClients&, DsClient::ReplyCb done) {
       a->DeregisterExtension("ctr_increment", std::move(done));
     }},
    // Removals through a first field that also matches /em paths.
    {"WildcardInp",
     [](DsClient* a, const EdsEmClients&, DsClient::ReplyCb done) {
       a->Inp(DsTemplate{DsTField::Any(), DsTField::Any()}, std::move(done));
     }},
    {"RootPrefixInp",
     [](DsClient* a, const EdsEmClients&, DsClient::ReplyCb done) {
       a->Inp(ObjectPrefixTemplate("/"), std::move(done));
     }},
    {"WildcardReplace",
     [](DsClient* a, const EdsEmClients&, DsClient::ReplyCb done) {
       a->Replace(DsTemplate{DsTField::Any(), DsTField::Any()}, ObjectTuple("/x", "y"),
                  std::move(done));
     }},
    {"WildcardIn",
     [](DsClient* a, const EdsEmClients&, DsClient::ReplyCb done) {
       a->In(DsTemplate{DsTField::Any(), DsTField::Any()}, std::move(done));
     }},
};

class EdsEmWriteTest : public ::testing::TestWithParam<EdsEmWriteCase> {};

TEST_P(EdsEmWriteTest, RefusedOnEveryReplica) {
  const EdsEmWriteCase& c = GetParam();
  CoordFixture cluster(EdsGroup());
  cluster.Start();
  DsClient* owner = AddGroupDsClient(cluster);
  DsClient* acker = AddGroupDsClient(cluster);
  DsClient* attacker = AddGroupDsClient(cluster);
  DsClient* victim = AddGroupDsClient(cluster);
  DsServer* restarted = cluster.ds_servers[3].get();
  restarted->Crash();
  ASSERT_TRUE(RegisterAndWait(cluster, owner, "ctr_increment", kCounterExt).ok());
  Status acked = Status(ErrorCode::kInternal);
  acker->AcknowledgeExtension("ctr_increment", [&](Result<DsReply> r) { acked = r.status(); });
  cluster.Settle(Millis(500));
  ASSERT_TRUE(acked.ok()) << acked.ToString();

  Status refused = Status(ErrorCode::kInternal);
  c.issue(attacker, EdsEmClients{acker->id(), victim->id()},
          [&](Result<DsReply> r) { refused = r.status(); });
  cluster.Settle(Millis(500));
  EXPECT_EQ(refused.code(), ErrorCode::kAccessDenied) << refused.ToString();

  restarted->Restart();
  cluster.Settle(Seconds(3));
  EXPECT_GT(restarted->bft().state_transfers(), 0);
  for (size_t i = 0; i < cluster.ds_managers().size(); ++i) {
    const ExtensionRegistry& registry = cluster.ds_managers()[i]->registry();
    EXPECT_EQ(registry.size(), 1u) << "replica " << i;
    const LoadedExtension* ext = registry.Find("ctr_increment");
    ASSERT_NE(ext, nullptr) << "replica " << i;
    EXPECT_EQ(ext->owner, owner->id());
    EXPECT_EQ(ext->acks, std::set<uint64_t>{acker->id()}) << "replica " << i;
  }
  EXPECT_EQ(Increment(cluster, victim).code(), ErrorCode::kNoNode);
}

INSTANTIATE_TEST_SUITE_P(EmRules, EdsEmWriteTest, ::testing::ValuesIn(kEdsEmWriteCases),
                         [](const ::testing::TestParamInfo<EdsEmWriteCase>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace edc
