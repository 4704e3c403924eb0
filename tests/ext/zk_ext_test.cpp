#include "edc/ext/zk_binding.h"

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "edc/obs/obs.h"
#include "tests/ext/over_budget_ext.h"
#include "tests/zk/zk_cluster.h"
#include "tools/lint/analyzer.h"

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

// Extensible cluster: every server gets a ZkExtensionManager.
class EzkCluster : public ZkCluster {
 public:
  explicit EzkCluster(ExtensionLimits limits = ExtensionLimits{}) {
    for (auto& server : servers) {
      managers.push_back(std::make_unique<ZkExtensionManager>(server.get(), limits));
    }
  }

  std::vector<std::unique_ptr<ZkExtensionManager>> managers;
};

Status RegisterAndWait(EzkCluster& cluster, ZkClient* client, const std::string& name,
                       const std::string& code) {
  Status status = Status(ErrorCode::kInternal);
  client->RegisterExtension(name, code, [&](Status s) { status = s; });
  cluster.Settle();
  return status;
}

// Sends the request the counter recipe sends and returns the extension
// result (the reply's value field).
Result<std::string> Increment(EzkCluster& cluster, ZkClient* client) {
  Result<std::string> result = Status(ErrorCode::kInternal);
  ZkOp op;
  op.type = ZkOpType::kGetData;
  op.path = "/ctr-increment";
  client->Submit(op, [&](const ZkReplyMsg& reply) {
    if (reply.code != ErrorCode::kOk) {
      result = Status(reply.code, reply.value);
    } else {
      result = reply.value;
    }
  });
  cluster.Settle();
  return result;
}

TEST(EzkExtensionTest, RegistersVerifiesAndExecutesCounter) {
  EzkCluster cluster;
  cluster.Start();
  ZkClient* client = cluster.AddClient();
  client->Create("/ctr", "0", false, false, [](Result<std::string>) {});
  cluster.Settle();
  ASSERT_TRUE(RegisterAndWait(cluster, client, "ctr_increment", kCounterExt).ok());
  // Registration is replicated: every replica's manager knows the extension.
  for (auto& mgr : cluster.managers) {
    EXPECT_TRUE(mgr->registry().Contains("ctr_increment"));
  }
  auto r1 = Increment(cluster, client);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(*r1, "1");
  auto r2 = Increment(cluster, client);
  EXPECT_EQ(*r2, "2");
  // The state change went through replication: all trees agree.
  for (auto& server : cluster.servers) {
    EXPECT_EQ(server->tree().Get("/ctr")->data, "2");
  }
}

TEST(EzkExtensionTest, SingleRpcPerIncrement) {
  EzkCluster cluster;
  cluster.Start();
  ZkClientOptions quiet;
  quiet.ping_interval = Seconds(100);  // keep pings out of the packet count
  ZkClient* client = cluster.AddClient(1, quiet);
  client->Create("/ctr", "0", false, false, [](Result<std::string>) {});
  cluster.Settle();
  ASSERT_TRUE(RegisterAndWait(cluster, client, "ctr_increment", kCounterExt).ok());
  cluster.net->ResetStats();
  ASSERT_TRUE(Increment(cluster, client).ok());
  // One request packet (plus the reply); pings are 1s apart so none land in
  // this window.
  EXPECT_EQ(cluster.net->StatsFor(client->id()).packets_sent, 1);
}

TEST(EzkExtensionTest, MalformedExtensionRejectedAtRegistration) {
  EzkCluster cluster;
  cluster.Start();
  ZkClient* client = cluster.AddClient();
  Status s = RegisterAndWait(cluster, client, "bad", "extension bad { fn read(o) {");
  EXPECT_EQ(s.code(), ErrorCode::kExtensionRejected);
  EXPECT_FALSE(cluster.Leader()->tree().Exists("/em/bad"));
  for (auto& mgr : cluster.managers) {
    EXPECT_FALSE(mgr->registry().Contains("bad"));
  }
}

TEST(EzkExtensionTest, WhitelistViolationRejected) {
  EzkCluster cluster;
  cluster.Start();
  ZkClient* client = cluster.AddClient();
  Status s = RegisterAndWait(cluster, client, "evil", R"(
    extension evil { on op read "/x"; fn read(o) { return open_socket("evil.com"); } })");
  EXPECT_EQ(s.code(), ErrorCode::kExtensionRejected);
}

TEST(EzkExtensionTest, NondeterministicFunctionsAllowedUnderPrimaryBackup) {
  EzkCluster cluster;
  cluster.Start();
  ZkClient* client = cluster.AddClient();
  Status s = RegisterAndWait(cluster, client, "stamps", R"(
    extension stamps {
      on op read "/stamp";
      fn read(oid) { return now(); }
    })");
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(EzkExtensionTest, EmSubscriptionsForbidden) {
  EzkCluster cluster;
  cluster.Start();
  ZkClient* client = cluster.AddClient();
  Status s = RegisterAndWait(cluster, client, "sneaky", R"(
    extension sneaky { on op read "/em/*"; fn read(o) { return read_object(o); } })");
  EXPECT_EQ(s.code(), ErrorCode::kExtensionRejected);
}

TEST(EzkExtensionTest, OnlyRegistrantTriggersUntilAcknowledged) {
  EzkCluster cluster;
  cluster.Start();
  ZkClient* owner = cluster.AddClient(1);
  ZkClient* other = cluster.AddClient(2);
  owner->Create("/ctr", "0", false, false, [](Result<std::string>) {});
  cluster.Settle();
  ASSERT_TRUE(RegisterAndWait(cluster, owner, "ctr_increment", kCounterExt).ok());

  // The other client's read is NOT intercepted: plain GetData -> kNoNode.
  auto miss = Increment(cluster, other);
  EXPECT_EQ(miss.code(), ErrorCode::kNoNode);

  // After acknowledging, the extension fires for it too (§3.6).
  Status ack = Status(ErrorCode::kInternal);
  other->AcknowledgeExtension("ctr_increment", [&](Status s) { ack = s; });
  cluster.Settle();
  ASSERT_TRUE(ack.ok()) << ack.ToString();
  auto hit = Increment(cluster, other);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_EQ(*hit, "1");
}

TEST(EzkExtensionTest, DeregistrationRestoresNormalBehavior) {
  EzkCluster cluster;
  cluster.Start();
  ZkClient* client = cluster.AddClient();
  client->Create("/ctr", "0", false, false, [](Result<std::string>) {});
  cluster.Settle();
  ASSERT_TRUE(RegisterAndWait(cluster, client, "ctr_increment", kCounterExt).ok());
  ASSERT_TRUE(Increment(cluster, client).ok());
  Status dereg = Status(ErrorCode::kInternal);
  client->DeregisterExtension("ctr_increment", [&](Status s) { dereg = s; });
  cluster.Settle();
  ASSERT_TRUE(dereg.ok()) << dereg.ToString();
  for (auto& mgr : cluster.managers) {
    EXPECT_FALSE(mgr->registry().Contains("ctr_increment"));
  }
  EXPECT_EQ(Increment(cluster, client).code(), ErrorCode::kNoNode);
}

TEST(EzkExtensionTest, OnlyOwnerMayDeregister) {
  EzkCluster cluster;
  cluster.Start();
  ZkClient* owner = cluster.AddClient();
  ZkClient* other = cluster.AddClient();
  ASSERT_TRUE(RegisterAndWait(cluster, owner, "ctr_increment", kCounterExt).ok());
  Status s = Status(ErrorCode::kInternal);
  other->Delete("/em/ctr_increment", -1, [&](Status st) { s = st; });
  cluster.Settle();
  EXPECT_EQ(s.code(), ErrorCode::kAccessDenied);
  EXPECT_TRUE(cluster.managers[0]->registry().Contains("ctr_increment"));
}

TEST(EzkExtensionTest, QueueExtensionRemovesHeadAtomically) {
  EzkCluster cluster;
  cluster.Start();
  ZkClient* client = cluster.AddClient();
  client->Create("/queue", "", false, false, [](Result<std::string>) {});
  cluster.Settle();
  ASSERT_TRUE(RegisterAndWait(cluster, client, "queue_remove", kQueueExt).ok());
  for (int i = 0; i < 3; ++i) {
    client->Create("/queue/e-", "payload" + std::to_string(i), false, true,
                   [](Result<std::string>) {});
  }
  cluster.Settle();
  for (int i = 0; i < 3; ++i) {
    std::string data;
    ZkOp op;
    op.type = ZkOpType::kGetData;
    op.path = "/queue-head";
    client->Submit(op, [&](const ZkReplyMsg& reply) {
      ASSERT_EQ(reply.code, ErrorCode::kOk);
      data = reply.value;
    });
    cluster.Settle();
    EXPECT_EQ(data, "payload" + std::to_string(i));  // FIFO
  }
  // Empty queue: the extension's error() surfaces as an extension error.
  ErrorCode code = ErrorCode::kOk;
  ZkOp op;
  op.type = ZkOpType::kGetData;
  op.path = "/queue-head";
  client->Submit(op, [&](const ZkReplyMsg& reply) { code = reply.code; });
  cluster.Settle();
  EXPECT_EQ(code, ErrorCode::kExtensionError);
  EXPECT_TRUE(cluster.Leader()->tree().GetChildren("/queue")->empty());
}

TEST(EzkExtensionTest, FailedExtensionLeavesNoPartialState) {
  EzkCluster cluster;
  cluster.Start();
  ZkClient* client = cluster.AddClient();
  ASSERT_TRUE(RegisterAndWait(cluster, client, "partial", R"(
    extension partial {
      on op read "/go";
      fn read(oid) {
        create("/half-done", "x");
        error("abort after first write");
        return 1;
      }
    })").ok());
  ErrorCode code = ErrorCode::kOk;
  ZkOp op;
  op.type = ZkOpType::kGetData;
  op.path = "/go";
  client->Submit(op, [&](const ZkReplyMsg& reply) { code = reply.code; });
  cluster.Settle();
  EXPECT_EQ(code, ErrorCode::kExtensionError);
  // Atomicity: the create before the failure was rolled up into a txn that
  // was never proposed.
  EXPECT_FALSE(cluster.Leader()->tree().Exists("/half-done"));
}

TEST(EzkExtensionTest, StateOpBudgetEnforced) {
  ExtensionLimits limits;
  limits.max_state_ops = 3;
  EzkCluster cluster(limits);
  cluster.Start();
  ZkClient* client = cluster.AddClient();
  ASSERT_TRUE(RegisterAndWait(cluster, client, "greedy", R"(
    extension greedy {
      on op read "/go";
      fn read(oid) {
        foreach (i in [1, 2, 3, 4, 5, 6]) { create("/greedy-" + i, ""); }
        return 1;
      }
    })").ok());
  ErrorCode code = ErrorCode::kOk;
  ZkOp op;
  op.type = ZkOpType::kGetData;
  op.path = "/go";
  client->Submit(op, [&](const ZkReplyMsg& reply) { code = reply.code; });
  cluster.Settle();
  EXPECT_EQ(code, ErrorCode::kExtensionLimit);
  EXPECT_FALSE(cluster.Leader()->tree().Exists("/greedy-1"));
}

TEST(EzkExtensionTest, StrikeLimitEvictsCrashLoopingExtension) {
  ExtensionLimits limits;
  limits.strike_limit = 3;
  EzkCluster cluster(limits);
  cluster.Start();
  ZkClient* client = cluster.AddClient();
  ASSERT_TRUE(RegisterAndWait(cluster, client, "crashy", R"(
    extension crashy {
      on op read "/boom";
      fn read(oid) { return error("always fails"); }
    })").ok());
  ZkOp op;
  op.type = ZkOpType::kGetData;
  op.path = "/boom";
  for (int i = 0; i < 3; ++i) {
    client->Submit(op, [](const ZkReplyMsg&) {});
    cluster.Settle();
  }
  cluster.Settle();
  for (auto& mgr : cluster.managers) {
    EXPECT_FALSE(mgr->registry().Contains("crashy"));
  }
  EXPECT_FALSE(cluster.Leader()->tree().Exists("/em/crashy"));
}

// strike_limit counts consecutive failures: the queue extension's normal
// "empty queue" errors, each followed by a successful removal, never add up
// to an eviction; two failures in a row still do.
TEST(EzkExtensionTest, StrikesResetOnSuccessfulInvocation) {
  ExtensionLimits limits;
  limits.strike_limit = 2;
  EzkCluster cluster(limits);
  cluster.Start();
  ZkClient* client = cluster.AddClient();
  client->Create("/queue", "", false, false, [](Result<std::string>) {});
  cluster.Settle();
  ASSERT_TRUE(RegisterAndWait(cluster, client, "queue_remove", kQueueExt).ok());
  auto remove_head = [&]() {
    ErrorCode code = ErrorCode::kInternal;
    ZkOp op;
    op.type = ZkOpType::kGetData;
    op.path = "/queue-head";
    client->Submit(op, [&](const ZkReplyMsg& reply) { code = reply.code; });
    cluster.Settle();
    return code;
  };
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(remove_head(), ErrorCode::kExtensionError);  // empty queue
    client->Create("/queue/e" + std::to_string(i), "x", false, false,
                   [](Result<std::string>) {});
    cluster.Settle();
    EXPECT_EQ(remove_head(), ErrorCode::kOk);
  }
  cluster.Settle();
  for (auto& mgr : cluster.managers) {
    EXPECT_TRUE(mgr->registry().Contains("queue_remove"));
  }
  EXPECT_EQ(remove_head(), ErrorCode::kExtensionError);
  EXPECT_EQ(remove_head(), ErrorCode::kExtensionError);
  cluster.Settle();
  for (auto& mgr : cluster.managers) {
    EXPECT_FALSE(mgr->registry().Contains("queue_remove"));
  }
}

// An uncertified handler (EDC-W006: its bound is over budget) is compiled at
// registration and runs on the VM, metered. Within the budget it answers
// what the oracle answers; past it the client gets the oracle's exact
// kExtensionLimit Status, and the primary, which ran it, records a strike.
TEST(EzkExtensionTest, UncertifiedHandlerRunsMeteredOnVm) {
  ExtensionLimits limits;
  limits.budget.max_steps = kOverBudgetMaxSteps;
  limits.strike_limit = 3;
  EzkCluster cluster(limits);
  Obs obs;
  for (auto& server : cluster.servers) {
    server->SetObs(&obs);
  }
  cluster.Start();
  ZkClient* client = cluster.AddClient();
  for (const char* path : {"/d", "/d/c0", "/d/c1"}) {
    client->Create(path, "", false, false, [](Result<std::string>) {});
  }
  cluster.Settle();
  ASSERT_TRUE(RegisterAndWait(cluster, client, "cube", kOverBudgetExt).ok());
  auto program = ParseProgram(kOverBudgetExt);
  ASSERT_TRUE(program.ok());
  AnalysisReport report = AnalyzeProgram(**program, cluster.managers[0]->verifier_config());
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].code, kDiagCostOverBudget);
  EXPECT_FALSE(report.handlers.at("read").certified);

  auto cube = [&]() {
    Result<std::string> result = Status(ErrorCode::kInternal);
    ZkOp op;
    op.type = ZkOpType::kGetData;
    op.path = "/cube";
    client->Submit(op, [&](const ZkReplyMsg& reply) {
      result = reply.code == ErrorCode::kOk ? Result<std::string>(reply.value)
                                            : Status(reply.code, reply.value);
    });
    cluster.Settle();
    return result;
  };
  const ExtensionRegistry& primary = cluster.managers[cluster.Leader()->id() - 1]->registry();

  Result<Value> oracle_within = OverBudgetOracleRun(2, limits);
  ASSERT_TRUE(oracle_within.ok());
  Result<std::string> within = cube();
  ASSERT_TRUE(within.ok()) << within.status().ToString();
  EXPECT_EQ(*within, oracle_within->ToString());
  EXPECT_EQ(primary.Find("cube")->strikes, 0);

  client->Create("/d/c2", "", false, false, [](Result<std::string>) {});
  cluster.Settle();
  Result<Value> oracle_past = OverBudgetOracleRun(3, limits);
  ASSERT_EQ(oracle_past.status().code(), ErrorCode::kExtensionLimit);
  Result<std::string> past = cube();
  EXPECT_EQ(past.status().code(), oracle_past.status().code());
  EXPECT_EQ(past.status().message(), oracle_past.status().message());
  EXPECT_EQ(primary.Find("cube")->strikes, 1);

  EXPECT_EQ(obs.metrics.CounterValue("ext.invocations"), 2);
  EXPECT_EQ(obs.metrics.CounterValue("ext.vm_dispatches"), 2);
  EXPECT_EQ(obs.metrics.CounterValue("ext.certified"), 0);
}

// An extension may not write under /em with any host function. monitor()
// used to skip the guard, so an unrelated client's extension could create
// the acknowledgment node of a victim session and make a third party's
// extension intercept the victim's requests.
TEST(EzkExtensionTest, MonitorCannotForgeAcknowledgment) {
  EzkCluster cluster;
  cluster.Start();
  ZkClient* owner = cluster.AddClient(1);
  ZkClient* attacker = cluster.AddClient(2);
  ZkClient* victim = cluster.AddClient(3);
  owner->Create("/ctr", "0", false, false, [](Result<std::string>) {});
  cluster.Settle();
  ASSERT_TRUE(RegisterAndWait(cluster, owner, "ctr_increment", kCounterExt).ok());
  const std::string ack = "/em/ctr_increment/ack-" + std::to_string(victim->session());
  ASSERT_TRUE(RegisterAndWait(cluster, attacker, "forger",
                              "extension forger { on op read \"/forge\"; fn read(p) { "
                              "return monitor(\"x\", \"" + ack + "\"); } }")
                  .ok());
  ZkReplyMsg forged;
  ZkOp op;
  op.type = ZkOpType::kGetData;
  op.path = "/forge";
  attacker->Submit(op, [&](const ZkReplyMsg& reply) { forged = reply; });
  cluster.Settle();
  EXPECT_EQ(forged.code, ErrorCode::kExtensionError);
  EXPECT_EQ(forged.value, "extensions may not touch the /em namespace");
  for (auto& server : cluster.servers) {
    EXPECT_FALSE(server->tree().Exists(ack));
  }
  // The victim never acknowledged, so its read is not intercepted.
  EXPECT_EQ(Increment(cluster, victim).code(), ErrorCode::kNoNode);
}

// cas() used to skip the /em guard too, so an extension could overwrite a
// registration blob that replicas decode when they reload from the tree.
TEST(EzkExtensionTest, CasCannotOverwriteRegistration) {
  EzkCluster cluster;
  cluster.Start();
  ZkClient* owner = cluster.AddClient(1);
  ZkClient* attacker = cluster.AddClient(2);
  ASSERT_TRUE(RegisterAndWait(cluster, owner, "ctr_increment", kCounterExt).ok());
  ASSERT_TRUE(RegisterAndWait(cluster, attacker, "smash", R"(
    extension smash {
      on op read "/smash";
      fn read(p) {
        let reg = read_object("/em/ctr_increment");
        return cas("/em/ctr_increment", get(reg, "data"), "junk");
      }
    })").ok());
  ZkReplyMsg smashed;
  ZkOp op;
  op.type = ZkOpType::kGetData;
  op.path = "/smash";
  attacker->Submit(op, [&](const ZkReplyMsg& reply) { smashed = reply; });
  cluster.Settle();
  EXPECT_EQ(smashed.code, ErrorCode::kExtensionError);
  EXPECT_EQ(smashed.value, "extensions may not touch the /em namespace");
  for (auto& server : cluster.servers) {
    auto reg = DecodeRegistration(server->tree().Get("/em/ctr_increment")->data);
    ASSERT_TRUE(reg.ok());
    EXPECT_EQ(reg->first, owner->session());
  }
}

TEST(EzkExtensionTest, ExtensionsSurviveReplicaRestart) {
  EzkCluster cluster;
  cluster.Start();
  ZkServer* follower = cluster.Follower();
  size_t follower_idx = 0;
  for (size_t i = 0; i < cluster.servers.size(); ++i) {
    if (cluster.servers[i].get() == follower) {
      follower_idx = i;
    }
  }
  ZkClient* client = cluster.AddClient(cluster.Leader()->id());
  client->Create("/ctr", "0", false, false, [](Result<std::string>) {});
  cluster.Settle();
  ASSERT_TRUE(RegisterAndWait(cluster, client, "ctr_increment", kCounterExt).ok());
  follower->Crash();
  cluster.Settle();
  follower->Restart();
  cluster.Settle(Seconds(3));
  // The restarted replica's manager reloaded the extension from the
  // replicated /em state (§3.8).
  EXPECT_TRUE(cluster.managers[follower_idx]->registry().Contains("ctr_increment"));
}

TEST(EzkExtensionTest, BlockHostFunctionDefersReplyUntilCreation) {
  EzkCluster cluster;
  cluster.Start();
  ZkClient* waiter = cluster.AddClient(1);
  ZkClient* creator = cluster.AddClient(2);
  ASSERT_TRUE(RegisterAndWait(cluster, waiter, "gate", R"(
    extension gate {
      on op block "/gate/*";
      fn block(oid) {
        block("/gate-open");
        return null;
      }
    })").ok());
  bool unblocked = false;
  ZkOp op;
  op.type = ZkOpType::kExists;
  op.path = "/gate/w1";
  op.watch = true;
  waiter->Submit(op, [&](const ZkReplyMsg& reply) {
    unblocked = reply.code == ErrorCode::kOk;
  });
  cluster.Settle();
  EXPECT_FALSE(unblocked);  // reply deferred server-side, zero extra RPCs
  creator->Create("/gate-open", "", false, false, [](Result<std::string>) {});
  cluster.Settle();
  EXPECT_TRUE(unblocked);
}

TEST(EzkExtensionTest, EventExtensionReactsToDeletions) {
  EzkCluster cluster;
  cluster.Start();
  ZkClient* client = cluster.AddClient();
  client->Create("/members", "", false, false, [](Result<std::string>) {});
  client->Create("/tomb", "", false, false, [](Result<std::string>) {});
  cluster.Settle();
  // On every deletion under /members, record a tombstone.
  ASSERT_TRUE(RegisterAndWait(cluster, client, "grave", R"(
    extension grave {
      on event deleted "/members/*";
      fn on_deleted(oid) {
        let objs = sub_objects("/members");
        create("/tomb/count-" + len(objs), oid);
        return null;
      }
    })").ok());
  client->Create("/members/a", "", false, false, [](Result<std::string>) {});
  client->Create("/members/b", "", false, false, [](Result<std::string>) {});
  cluster.Settle();
  client->Delete("/members/a", -1, [](Status) {});
  cluster.Settle();
  auto tombs = cluster.Leader()->tree().GetChildren("/tomb");
  ASSERT_TRUE(tombs.ok());
  ASSERT_EQ(tombs->size(), 1u);
  EXPECT_EQ((*tombs)[0], "count-1");
  EXPECT_EQ(cluster.Leader()->tree().Get("/tomb/count-1")->data, "/members/a");
}

TEST(EzkExtensionTest, EventChainDepthIsBounded) {
  EzkCluster cluster;
  cluster.Start();
  ZkClient* client = cluster.AddClient();
  client->Create("/chain", "", false, false, [](Result<std::string>) {});
  cluster.Settle();
  // Each created node under /chain creates another one: would run forever
  // without the depth cap.
  ASSERT_TRUE(RegisterAndWait(cluster, client, "runaway", R"(
    extension runaway {
      on event created "/chain/*";
      fn on_created(oid) {
        let objs = sub_objects("/chain");
        create("/chain/n-" + len(objs), "");
        return null;
      }
    })").ok());
  client->Create("/chain/seed", "", false, false, [](Result<std::string>) {});
  cluster.Settle(Seconds(2));
  auto children = cluster.Leader()->tree().GetChildren("/chain");
  ASSERT_TRUE(children.ok());
  EXPECT_LE(children->size(), ZkExtensionManager::kMaxEventDepth + 1u);
  EXPECT_GT(children->size(), 1u);  // the chain did run
}

TEST(EzkExtensionTest, NotificationSuppressedWhenEventExtensionMatches) {
  EzkCluster cluster;
  cluster.Start();
  ZkClient* client = cluster.AddClient();
  client->Create("/obs", "", false, false, [](Result<std::string>) {});
  cluster.Settle();
  ASSERT_TRUE(RegisterAndWait(cluster, client, "absorb", R"(
    extension absorb {
      on event deleted "/obs/*";
      fn on_deleted(oid) { return null; }
    })").ok());
  client->Create("/obs/x", "", false, false, [](Result<std::string>) {});
  cluster.Settle();
  int notifications = 0;
  client->SetWatchHandler([&](const ZkWatchEventMsg&) { ++notifications; });
  client->Exists("/obs/x", true, [](Result<ZkClient::ExistsResult>) {});
  cluster.Settle();
  client->Delete("/obs/x", -1, [](Status) {});
  cluster.Settle();
  // The event extension took responsibility: the raw notification to the
  // registrant was suppressed (§5.1.2).
  EXPECT_EQ(notifications, 0);
}

TEST(EzkExtensionTest, RegularClientsUnaffectedByOthersExtensions) {
  EzkCluster cluster;
  cluster.Start();
  ZkClient* power = cluster.AddClient(1);
  ZkClient* regular = cluster.AddClient(2);
  power->Create("/ctr", "0", false, false, [](Result<std::string>) {});
  cluster.Settle();
  ASSERT_TRUE(RegisterAndWait(cluster, power, "ctr_increment", kCounterExt).ok());
  // A regular client reading and writing unrelated nodes sees plain
  // ZooKeeper semantics.
  Result<std::string> created = Status(ErrorCode::kInternal);
  regular->Create("/plain", "v", false, false, [&](Result<std::string> r) { created = r; });
  cluster.Settle();
  ASSERT_TRUE(created.ok());
  Result<ZkClient::NodeResult> read = Status(ErrorCode::kInternal);
  regular->GetData("/plain", false, [&](Result<ZkClient::NodeResult> r) { read = r; });
  cluster.Settle();
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->data, "v");
}

// The /em rules for client writes (§5.2.2): a client may register, acknowledge
// as itself and deregister as owner; every other write under /em is refused
// and leaves the registry, the /em nodes and the victim's reads untouched.
struct EmSessions {
  uint64_t acker = 0;   // acknowledged the owner's extension
  uint64_t victim = 0;  // never acknowledged it
};

struct EmWriteCase {
  const char* name;
  // Issues the refused write from the attacker's client.
  void (*issue)(ZkClient* attacker, const EmSessions& s, ZkClient::VoidCb done);
};

ZkOp EmCreate(const std::string& path, bool sequential = false, bool ephemeral = false) {
  ZkOp op;
  op.type = ZkOpType::kCreate;
  op.path = path;
  op.sequential = sequential;
  op.ephemeral = ephemeral;
  return op;
}

std::string CounterAck(uint64_t session) { return kZkEmLayout.AckPath("ctr_increment", session); }

void PrintTo(const EmWriteCase& c, std::ostream* os) { *os << c.name; }

const EmWriteCase kEmWriteCases[] = {
    {"AckNamingAnotherSession",
     [](ZkClient* a, const EmSessions& s, ZkClient::VoidCb done) {
       a->Create(CounterAck(s.victim), "", false, false,
                 [done](Result<std::string> r) { done(r.status()); });
     }},
    {"SetDataOnRegistration",
     [](ZkClient* a, const EmSessions&, ZkClient::VoidCb done) {
       a->SetData("/em/ctr_increment", "junk", -1, done);
     }},
    {"NonOwnerDeregistration",
     [](ZkClient* a, const EmSessions&, ZkClient::VoidCb done) {
       a->DeregisterExtension("ctr_increment", done);
     }},
    {"SequentialCreateUnderRegistration",
     [](ZkClient* a, const EmSessions&, ZkClient::VoidCb done) {
       a->Create("/em/ctr_increment/ack-", "", false, true,
                 [done](Result<std::string> r) { done(r.status()); });
     }},
    {"EphemeralAckOfOwnSession",
     [](ZkClient* a, const EmSessions&, ZkClient::VoidCb done) {
       a->Create(CounterAck(a->session()), "", true, false,
                 [done](Result<std::string> r) { done(r.status()); });
     }},
    {"DeleteOfAnotherSessionsAck",
     [](ZkClient* a, const EmSessions& s, ZkClient::VoidCb done) {
       a->Delete(CounterAck(s.acker), -1, done);
     }},
    {"AckNamingAnotherSessionInsideMulti",
     [](ZkClient* a, const EmSessions& s, ZkClient::VoidCb done) {
       a->Multi({EmCreate("/plain"), EmCreate(CounterAck(s.victim))}, done);
     }},
};

class EzkEmWriteTest : public ::testing::TestWithParam<EmWriteCase> {};

TEST_P(EzkEmWriteTest, RefusedAndHarmless) {
  const EmWriteCase& c = GetParam();
  EzkCluster cluster;
  cluster.Start();
  ZkClient* owner = cluster.AddClient(1);
  ZkClient* acker = cluster.AddClient(2);
  ZkClient* attacker = cluster.AddClient(3);
  ZkClient* victim = cluster.AddClient(1);
  owner->Create("/ctr", "0", false, false, [](Result<std::string>) {});
  cluster.Settle();
  ASSERT_TRUE(RegisterAndWait(cluster, owner, "ctr_increment", kCounterExt).ok());
  Status acked = Status(ErrorCode::kInternal);
  acker->AcknowledgeExtension("ctr_increment", [&](Status s) { acked = s; });
  cluster.Settle();
  ASSERT_TRUE(acked.ok()) << acked.ToString();

  Status refused = Status(ErrorCode::kInternal);
  c.issue(attacker, EmSessions{acker->session(), victim->session()},
          [&](Status s) { refused = s; });
  cluster.Settle();
  EXPECT_EQ(refused.code(), ErrorCode::kAccessDenied) << refused.ToString();

  for (size_t i = 0; i < cluster.servers.size(); ++i) {
    const LoadedExtension* ext = cluster.managers[i]->registry().Find("ctr_increment");
    ASSERT_NE(ext, nullptr) << "replica " << i;
    EXPECT_EQ(ext->owner, owner->session());
    EXPECT_EQ(ext->acks, std::set<uint64_t>{acker->session()}) << "replica " << i;
    const DataTree& tree = cluster.servers[i]->tree();
    EXPECT_EQ(*tree.GetChildren("/em/ctr_increment"),
              std::vector<std::string>{"ack-" + std::to_string(acker->session())});
    auto reg = DecodeRegistration(tree.Get("/em/ctr_increment")->data);
    ASSERT_TRUE(reg.ok());
    EXPECT_EQ(reg->first, owner->session());
    EXPECT_FALSE(tree.Exists("/plain"));
  }
  EXPECT_EQ(Increment(cluster, victim).code(), ErrorCode::kNoNode);
}

INSTANTIATE_TEST_SUITE_P(EmRules, EzkEmWriteTest, ::testing::ValuesIn(kEmWriteCases),
                         [](const ::testing::TestParamInfo<EmWriteCase>& info) {
                           return std::string(info.param.name);
                         });

// A deregistration is one request: the leader deletes the acknowledgments
// with the registration, in one transaction.
TEST(EzkExtensionTest, DeregistrationTakesAcksInOneRequest) {
  EzkCluster cluster;
  cluster.Start();
  ZkClientOptions quiet;
  quiet.ping_interval = Seconds(100);  // keep pings out of the packet count
  ZkClient* owner = cluster.AddClient(1, quiet);
  ZkClient* other = cluster.AddClient(2);
  ASSERT_TRUE(RegisterAndWait(cluster, owner, "ctr_increment", kCounterExt).ok());
  other->AcknowledgeExtension("ctr_increment", [](Status) {});
  cluster.Settle();
  ASSERT_TRUE(cluster.servers[0]->tree().Exists(CounterAck(other->session())));
  cluster.net->ResetStats();
  Status dereg = Status(ErrorCode::kInternal);
  owner->DeregisterExtension("ctr_increment", [&](Status s) { dereg = s; });
  cluster.Settle();
  ASSERT_TRUE(dereg.ok()) << dereg.ToString();
  EXPECT_EQ(cluster.net->StatsFor(owner->id()).packets_sent, 1);
  for (size_t i = 0; i < cluster.servers.size(); ++i) {
    EXPECT_FALSE(cluster.servers[i]->tree().Exists("/em/ctr_increment"));
    EXPECT_FALSE(cluster.managers[i]->registry().Contains("ctr_increment"));
  }
}

}  // namespace
}  // namespace edc
