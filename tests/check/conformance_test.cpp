// Unit tests for the sequential models and the conformance checker itself,
// on hand-built histories (no fixture). The schedule sweeps that exercise
// the full record-replay-check loop live in explorer_zk_test.cpp /
// explorer_ds_test.cpp.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "edc/check/conformance.h"
#include "edc/check/ds_model.h"
#include "edc/check/history.h"
#include "edc/check/zk_model.h"

namespace edc {
namespace {

// --- ZkModel -------------------------------------------------------------

ZkTxn MakeCreateTxn(uint64_t session, uint64_t req_id, const std::string& path,
                    const std::string& data, const std::string& result) {
  ZkTxn txn;
  txn.session = session;
  txn.req_id = req_id;
  txn.time = 1000;
  txn.has_result = true;
  txn.result = result;
  ZkTxnOp op;
  op.type = ZkTxnOpType::kCreate;
  op.path = path;
  op.data = data;
  txn.ops.push_back(op);
  return txn;
}

TEST(ZkModelTest, CreateSetDeleteStatBookkeeping) {
  ZkModel model;
  EXPECT_TRUE(model.Exists("/"));
  EXPECT_TRUE(model.Exists("/em"));

  auto r1 = model.Apply(1, MakeCreateTxn(7, 1, "/a", "x", "/a"));
  EXPECT_TRUE(r1.failures.empty());
  const ZkModelNode* a = model.Get("/a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->data, "x");
  EXPECT_EQ(a->stat.czxid, 1u);
  EXPECT_EQ(a->stat.mzxid, 1u);
  EXPECT_EQ(a->stat.version, 0);
  const ZkModelNode* root = model.Get("/");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->stat.pzxid, 1u);
  EXPECT_EQ(root->stat.num_children, 2u);  // /em and /a

  ZkTxn set;
  set.session = 7;
  set.req_id = 2;
  set.time = 2000;
  ZkTxnOp sop;
  sop.type = ZkTxnOpType::kSetData;
  sop.path = "/a";
  sop.data = "y";
  set.ops.push_back(sop);
  auto r2 = model.Apply(2, set);
  EXPECT_TRUE(r2.failures.empty());
  EXPECT_EQ(model.Get("/a")->data, "y");
  EXPECT_EQ(model.Get("/a")->stat.version, 1);
  EXPECT_EQ(model.Get("/a")->stat.mzxid, 2u);

  ZkTxn del;
  del.session = 7;
  del.req_id = 3;
  ZkTxnOp dop;
  dop.type = ZkTxnOpType::kDelete;
  dop.path = "/a";
  del.ops.push_back(dop);
  auto r3 = model.Apply(3, del);
  EXPECT_TRUE(r3.failures.empty());
  EXPECT_FALSE(model.Exists("/a"));

  // A second delete of the same node must fail (attempt-and-skip surfaces
  // the failure to the checker).
  auto r4 = model.Apply(4, del);
  ASSERT_EQ(r4.failures.size(), 1u);
}

TEST(ZkModelTest, CloseSessionReapsEphemerals) {
  ZkModel model;
  ZkTxn create = MakeCreateTxn(9, 1, "/e", "d", "/e");
  create.ops[0].ephemeral_owner = 9;
  EXPECT_TRUE(model.Apply(1, create).failures.empty());

  ZkTxn session_txn;
  ZkTxnOp sess;
  sess.type = ZkTxnOpType::kCreateSession;
  sess.session = 9;
  sess.session_owner = 1;
  session_txn.ops.push_back(sess);
  model.Apply(2, session_txn);
  EXPECT_TRUE(model.SessionKnown(9));

  ZkTxn close_txn;
  ZkTxnOp close;
  close.type = ZkTxnOpType::kCloseSession;
  close.session = 9;
  close_txn.ops.push_back(close);
  auto r = model.Apply(3, close_txn);
  EXPECT_TRUE(r.failures.empty());
  EXPECT_FALSE(model.Exists("/e"));
  EXPECT_FALSE(model.SessionKnown(9));
}

// --- DsModel -------------------------------------------------------------

DsTuple Tup(const std::string& a, const std::string& b, int64_t c) {
  return DsTuple{DsField{a}, DsField{b}, DsField{c}};
}

DsTemplate Tmpl(const std::string& a, const std::string& b) {
  return DsTemplate{DsTField::Exact(a), DsTField::Exact(b), DsTField::Any()};
}

std::vector<uint8_t> EncodeOp(DsOpType type, DsTuple tuple, DsTemplate templ,
                              Duration lease = 0) {
  DsOp op;
  op.type = type;
  op.tuple = std::move(tuple);
  op.templ = std::move(templ);
  op.lease = lease;
  return EncodeMsg(op);
}

TEST(DsModelTest, OutRdpInpRoundTrip) {
  DsModel model;
  auto r1 = model.Execute(100, 100, 1, EncodeOp(DsOpType::kOut, Tup("/w", "k", 5), {}));
  ASSERT_EQ(r1.size(), 1u);
  EXPECT_EQ(r1[0].reply.code, ErrorCode::kOk);
  EXPECT_EQ(model.space_size(), 1u);

  auto r2 = model.Execute(200, 101, 1, EncodeOp(DsOpType::kRdp, {}, Tmpl("/w", "k")));
  ASSERT_EQ(r2.size(), 1u);
  ASSERT_EQ(r2[0].reply.tuples.size(), 1u);
  EXPECT_EQ(r2[0].reply.tuples[0], Tup("/w", "k", 5));

  auto r3 = model.Execute(300, 101, 2, EncodeOp(DsOpType::kInp, {}, Tmpl("/w", "k")));
  ASSERT_EQ(r3.size(), 1u);
  EXPECT_EQ(r3[0].reply.code, ErrorCode::kOk);
  EXPECT_EQ(model.space_size(), 0u);

  auto r4 = model.Execute(400, 101, 3, EncodeOp(DsOpType::kInp, {}, Tmpl("/w", "k")));
  ASSERT_EQ(r4.size(), 1u);
  EXPECT_EQ(r4[0].reply.code, ErrorCode::kNoNode);
}

TEST(DsModelTest, BlockingRdUnblockedByOut) {
  DsModel model;
  auto r1 = model.Execute(100, 100, 1, EncodeOp(DsOpType::kRd, {}, Tmpl("/w", "k")));
  EXPECT_TRUE(r1.empty());  // parked
  EXPECT_EQ(model.waiter_count(), 1u);

  auto r2 = model.Execute(200, 101, 1, EncodeOp(DsOpType::kOut, Tup("/w", "k", 7), {}));
  ASSERT_EQ(r2.size(), 2u);  // out's own OK, then the unblocked rd
  EXPECT_EQ(r2[0].client, 101u);
  EXPECT_EQ(r2[1].client, 100u);
  EXPECT_EQ(r2[1].req_id, 1u);
  ASSERT_EQ(r2[1].reply.tuples.size(), 1u);
  EXPECT_EQ(r2[1].reply.tuples[0], Tup("/w", "k", 7));
  EXPECT_EQ(model.waiter_count(), 0u);
  EXPECT_EQ(model.space_size(), 1u);  // rd does not consume
}

TEST(DsModelTest, LeaseExpiryAndRenew) {
  DsModel model;
  model.Execute(100, 100, 1,
                EncodeOp(DsOpType::kOut, Tup("/w", "k", 1), {}, /*lease=*/1000));
  auto renew = model.Execute(500, 100, 2,
                             EncodeOp(DsOpType::kRenew, {}, Tmpl("/w", "k"), 1000));
  ASSERT_EQ(renew.size(), 1u);
  EXPECT_EQ(renew[0].reply.value, "1");  // one entry renewed, deadline now 1500

  auto hit = model.Execute(1400, 100, 3, EncodeOp(DsOpType::kRdp, {}, Tmpl("/w", "k")));
  EXPECT_EQ(hit[0].reply.code, ErrorCode::kOk);
  auto miss = model.Execute(1600, 100, 4, EncodeOp(DsOpType::kRdp, {}, Tmpl("/w", "k")));
  EXPECT_EQ(miss[0].reply.code, ErrorCode::kNoNode);
}

TEST(DsModelTest, EmNamespaceDenied) {
  DsModel model;
  auto r = model.Execute(100, 100, 1, EncodeOp(DsOpType::kOut, Tup("/em/x", "k", 1), {}));
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].reply.code, ErrorCode::kAccessDenied);
}

// --- CheckZkHistory on synthetic records ---------------------------------

struct ZkHistoryBuilder {
  HistoryRecorder h;

  void Commit(NodeId replica, uint64_t zxid, const ZkTxn& txn, uint64_t hash) {
    ZkCommitRecord rec;
    rec.order = h.NextOrder();
    rec.replica = replica;
    rec.zxid = zxid;
    rec.txn = txn;
    rec.txn_hash = hash;
    h.zk_commits.push_back(std::move(rec));
  }
  void Call(NodeId client, uint64_t session, uint64_t req_id, const ZkOp& op) {
    ZkCallRecord rec;
    rec.order = h.NextOrder();
    rec.client = client;
    rec.session = session;
    rec.req_id = req_id;
    rec.op = op;
    h.zk_calls.push_back(std::move(rec));
  }
  void Respond(NodeId client, uint64_t req_id, const ZkReplyMsg& reply,
               bool synthetic = false) {
    ZkResponseRecord rec;
    rec.order = h.NextOrder();
    rec.client = client;
    rec.req_id = req_id;
    rec.reply = reply;
    rec.synthetic = synthetic;
    h.zk_responses.push_back(std::move(rec));
  }
  void Watch(NodeId client, ZkEventType type, const std::string& path) {
    ZkWatchRecord rec;
    rec.order = h.NextOrder();
    rec.client = client;
    rec.event.type = type;
    rec.event.path = path;
    h.zk_watches.push_back(std::move(rec));
  }
};

TEST(CheckZkHistoryTest, ConsistentWriteHistoryPasses) {
  ZkHistoryBuilder b;
  ZkTxn txn = MakeCreateTxn(42, 1, "/w", "d", "/w");
  b.Commit(1, 1, txn, 777);
  b.Commit(2, 1, txn, 777);  // second replica, same txn: fine

  ZkOp op;
  op.type = ZkOpType::kCreate;
  op.path = "/w";
  op.data = "d";
  b.Call(100, 42, 1, op);
  ZkReplyMsg reply;
  reply.req_id = 1;
  reply.code = ErrorCode::kOk;
  reply.value = "/w";
  b.Respond(100, 1, reply);

  CheckReport report = CheckZkHistory(b.h);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(CheckZkHistoryTest, DivergentCommitsFlagged) {
  ZkHistoryBuilder b;
  ZkTxn txn = MakeCreateTxn(42, 1, "/w", "d", "/w");
  b.Commit(1, 1, txn, 777);
  b.Commit(2, 1, txn, 778);  // same zxid, different txn hash
  CheckReport report = CheckZkHistory(b.h);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("different transactions"), std::string::npos);
}

TEST(CheckZkHistoryTest, OkWriteWithoutCommitFlagged) {
  ZkHistoryBuilder b;
  ZkOp op;
  op.type = ZkOpType::kCreate;
  op.path = "/w";
  b.Call(100, 42, 1, op);
  ZkReplyMsg reply;
  reply.req_id = 1;
  reply.code = ErrorCode::kOk;
  reply.value = "/w";
  b.Respond(100, 1, reply);
  CheckReport report = CheckZkHistory(b.h);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("no committed transaction"), std::string::npos);
}

TEST(CheckZkHistoryTest, ResponseValueMismatchFlagged) {
  ZkHistoryBuilder b;
  b.Commit(1, 1, MakeCreateTxn(42, 1, "/w", "d", "/w"), 777);
  ZkOp op;
  op.type = ZkOpType::kCreate;
  op.path = "/w";
  op.data = "d";
  b.Call(100, 42, 1, op);
  ZkReplyMsg reply;
  reply.req_id = 1;
  reply.code = ErrorCode::kOk;
  reply.value = "/wrong";
  b.Respond(100, 1, reply);
  CheckReport report = CheckZkHistory(b.h);
  ASSERT_FALSE(report.ok());
}

TEST(CheckZkHistoryTest, FailedWriteThatCommittedFlagged) {
  ZkHistoryBuilder b;
  b.Commit(1, 1, MakeCreateTxn(42, 1, "/w", "d", "/w"), 777);
  ZkOp op;
  op.type = ZkOpType::kCreate;
  op.path = "/w";
  op.data = "d";
  b.Call(100, 42, 1, op);
  ZkReplyMsg reply;
  reply.req_id = 1;
  reply.code = ErrorCode::kNodeExists;  // server said no, but it committed
  b.Respond(100, 1, reply);
  CheckReport report = CheckZkHistory(b.h);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("committed at zxid"), std::string::npos);
}

TEST(CheckZkHistoryTest, SyntheticFailureIsExempt) {
  ZkHistoryBuilder b;
  // The op committed, but the client saw a synthetic connection loss —
  // legitimate (owner replica crashed between commit and reply).
  b.Commit(1, 1, MakeCreateTxn(42, 1, "/w", "d", "/w"), 777);
  ZkOp op;
  op.type = ZkOpType::kCreate;
  op.path = "/w";
  op.data = "d";
  b.Call(100, 42, 1, op);
  ZkReplyMsg reply;
  reply.req_id = 1;
  reply.code = ErrorCode::kConnectionLoss;
  b.Respond(100, 1, reply, /*synthetic=*/true);
  CheckReport report = CheckZkHistory(b.h);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(CheckZkHistoryTest, UnarmedWatchEventFlagged) {
  ZkHistoryBuilder b;
  b.Watch(100, ZkEventType::kNodeCreated, "/w/flag");
  CheckReport report = CheckZkHistory(b.h);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("one-shot violated"), std::string::npos);
}

TEST(CheckZkHistoryTest, SingleFirePassesDoubleFireFails) {
  auto build = [](int fires) {
    ZkHistoryBuilder b;
    // Arm: exists("/w/flag", watch) answered OK exists=0.
    ZkOp op;
    op.type = ZkOpType::kExists;
    op.path = "/w/flag";
    op.watch = true;
    b.Call(100, 42, 1, op);
    ZkReplyMsg reply;
    reply.req_id = 1;
    reply.code = ErrorCode::kOk;
    reply.value = "0";
    b.Respond(100, 1, reply);
    for (int i = 0; i < fires; ++i) {
      b.Watch(100, ZkEventType::kNodeCreated, "/w/flag");
    }
    return CheckZkHistory(b.h);
  };
  EXPECT_TRUE(build(1).ok()) << build(1).ToString();
  EXPECT_FALSE(build(2).ok());
}

TEST(CheckZkHistoryTest, StaleReadOkButTimeTravelFlagged) {
  ZkHistoryBuilder b;
  b.Commit(1, 1, MakeCreateTxn(42, 1, "/x", "a", "/x"), 777);
  ZkTxn set;
  set.session = 42;
  set.req_id = 2;
  set.time = 2000;
  ZkTxnOp sop;
  sop.type = ZkTxnOpType::kSetData;
  sop.path = "/x";
  sop.data = "b";
  set.ops.push_back(sop);
  b.Commit(1, 2, set, 778);

  ZkOp read;
  read.type = ZkOpType::kGetData;
  read.path = "/x";
  auto read_reply = [](uint64_t req, const std::string& data, uint64_t mzxid,
                       int32_t version, SimTime mtime) {
    ZkReplyMsg r;
    r.req_id = req;
    r.code = ErrorCode::kOk;
    r.value = data;
    r.has_stat = true;
    r.stat.czxid = 1;
    r.stat.mzxid = mzxid;
    r.stat.ctime = 1000;
    r.stat.mtime = mtime;
    r.stat.version = version;
    return r;
  };
  // New value first (session saw zxid 2)...
  b.Call(100, 42, 10, read);
  b.Respond(100, 10, read_reply(10, "b", 2, 1, 2000));
  // ...then the old value again on the SAME session: time travel.
  b.Call(100, 42, 11, read);
  b.Respond(100, 11, read_reply(11, "a", 1, 0, 1000));
  CheckReport report = CheckZkHistory(b.h);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("time went backwards"), std::string::npos);

  // The same stale answer on a DIFFERENT session is legitimate.
  ZkHistoryBuilder b2;
  b2.Commit(1, 1, MakeCreateTxn(42, 1, "/x", "a", "/x"), 777);
  b2.Commit(1, 2, set, 778);
  b2.Call(100, 42, 10, read);
  b2.Respond(100, 10, read_reply(10, "b", 2, 1, 2000));
  b2.Call(101, 43, 1, read);
  b2.Respond(101, 1, read_reply(1, "a", 1, 0, 1000));
  EXPECT_TRUE(CheckZkHistory(b2.h).ok()) << CheckZkHistory(b2.h).ToString();
}

TEST(CheckZkHistoryTest, FabricatedReadFlagged) {
  ZkHistoryBuilder b;
  b.Commit(1, 1, MakeCreateTxn(42, 1, "/x", "a", "/x"), 777);
  ZkOp read;
  read.type = ZkOpType::kGetData;
  read.path = "/x";
  b.Call(100, 42, 10, read);
  ZkReplyMsg r;
  r.req_id = 10;
  r.code = ErrorCode::kOk;
  r.value = "never-written";  // no state ever held this
  r.has_stat = true;
  r.stat.czxid = 1;
  r.stat.mzxid = 1;
  r.stat.ctime = 1000;
  r.stat.mtime = 1000;
  b.Respond(100, 10, r);
  CheckReport report = CheckZkHistory(b.h);
  ASSERT_FALSE(report.ok());
}

// --- CheckDsHistory on synthetic records ---------------------------------

struct DsHistoryBuilder {
  HistoryRecorder h;

  void Exec(NodeId replica, uint64_t seq, SimTime ts, NodeId client, uint64_t req_id,
            std::vector<uint8_t> payload) {
    DsExecRecord rec;
    rec.order = h.NextOrder();
    rec.replica = replica;
    rec.seq = seq;
    rec.ts = ts;
    rec.client = client;
    rec.req_id = req_id;
    rec.payload = std::move(payload);
    h.ds_execs.push_back(std::move(rec));
  }
  void Call(NodeId client, uint64_t req_id, const DsOp& op) {
    DsCallRecord rec;
    rec.order = h.NextOrder();
    rec.client = client;
    rec.req_id = req_id;
    rec.op = op;
    h.ds_calls.push_back(std::move(rec));
  }
  void Respond(NodeId client, uint64_t req_id, Result<DsReply> result) {
    DsResponseRecord rec;
    rec.order = h.NextOrder();
    rec.client = client;
    rec.req_id = req_id;
    rec.result = std::move(result);
    h.ds_responses.push_back(std::move(rec));
  }
};

TEST(CheckDsHistoryTest, ConsistentHistoryPasses) {
  DsHistoryBuilder b;
  auto out = EncodeOp(DsOpType::kOut, Tup("/w", "k", 5), {});
  auto rdp = EncodeOp(DsOpType::kRdp, {}, Tmpl("/w", "k"));
  for (NodeId rep = 1; rep <= 2; ++rep) {
    b.Exec(rep, 1, 100, 100, 1, out);
    b.Exec(rep, 2, 200, 101, 1, rdp);
  }
  DsOp out_op;
  out_op.type = DsOpType::kOut;
  out_op.tuple = Tup("/w", "k", 5);
  b.Call(100, 1, out_op);
  DsOp rdp_op;
  rdp_op.type = DsOpType::kRdp;
  rdp_op.templ = Tmpl("/w", "k");
  b.Call(101, 1, rdp_op);
  b.Respond(100, 1, Result<DsReply>(DsReply{}));
  DsReply hit;
  hit.tuples.push_back(Tup("/w", "k", 5));
  b.Respond(101, 1, Result<DsReply>(hit));
  CheckReport report = CheckDsHistory(b.h);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(CheckDsHistoryTest, ExecDivergenceFlagged) {
  DsHistoryBuilder b;
  b.Exec(1, 1, 100, 100, 1, EncodeOp(DsOpType::kOut, Tup("/w", "k", 5), {}));
  b.Exec(2, 1, 100, 100, 1, EncodeOp(DsOpType::kOut, Tup("/w", "k", 6), {}));
  CheckReport report = CheckDsHistory(b.h);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("executed different requests"), std::string::npos);
}

TEST(CheckDsHistoryTest, WrongReplyPayloadFlagged) {
  DsHistoryBuilder b;
  b.Exec(1, 1, 100, 100, 1, EncodeOp(DsOpType::kOut, Tup("/w", "k", 5), {}));
  b.Exec(1, 2, 200, 101, 1, EncodeOp(DsOpType::kRdp, {}, Tmpl("/w", "k")));
  DsOp out_op;
  out_op.type = DsOpType::kOut;
  out_op.tuple = Tup("/w", "k", 5);
  b.Call(100, 1, out_op);
  DsOp rdp_op;
  rdp_op.type = DsOpType::kRdp;
  rdp_op.templ = Tmpl("/w", "k");
  b.Call(101, 1, rdp_op);
  DsReply wrong;
  wrong.tuples.push_back(Tup("/w", "k", 999));  // not what execution produced
  b.Respond(101, 1, Result<DsReply>(wrong));
  CheckReport report = CheckDsHistory(b.h);
  ASSERT_FALSE(report.ok());
}

TEST(CheckDsHistoryTest, ReplyWithoutExecutionFlagged) {
  DsHistoryBuilder b;
  DsOp rdp_op;
  rdp_op.type = DsOpType::kRdp;
  rdp_op.templ = Tmpl("/w", "k");
  b.Call(101, 1, rdp_op);
  DsReply hit;
  hit.tuples.push_back(Tup("/w", "k", 5));
  b.Respond(101, 1, Result<DsReply>(hit));
  CheckReport report = CheckDsHistory(b.h);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("never produced"), std::string::npos);
}

}  // namespace
}  // namespace edc
