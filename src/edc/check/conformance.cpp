#include "edc/check/conformance.h"

#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "edc/check/ds_model.h"
#include "edc/check/zk_model.h"
#include "edc/common/strings.h"

namespace edc {

namespace {

bool StatEq(const ZkStat& a, const ZkStat& b) {
  return a.czxid == b.czxid && a.mzxid == b.mzxid && a.pzxid == b.pzxid &&
         a.ctime == b.ctime && a.mtime == b.mtime && a.version == b.version &&
         a.cversion == b.cversion && a.ephemeral_owner == b.ephemeral_owner &&
         a.num_children == b.num_children;
}

// One state a path passed through, as projected from the model after a
// committed transaction touched it.
struct PathState {
  bool exists = false;
  std::string data;
  ZkStat stat;
  std::vector<std::string> children;
};

bool PathStateEq(const PathState& a, const PathState& b) {
  return a.exists == b.exists && a.data == b.data && StatEq(a.stat, b.stat) &&
         a.children == b.children;
}

bool IsTreeOp(ZkTxnOpType t) {
  return t == ZkTxnOpType::kCreate || t == ZkTxnOpType::kDelete ||
         t == ZkTxnOpType::kSetData;
}

bool IsWriteOp(ZkOpType t) {
  return t == ZkOpType::kCreate || t == ZkOpType::kDelete ||
         t == ZkOpType::kSetData || t == ZkOpType::kMulti;
}

// Validates that the committed transaction is the prepped image of the
// client's operation: same tree ops in order, sequential creates resolving to
// a name under the requested prefix.
void CheckWriteTxnShape(NodeId client, uint64_t req_id, const ZkOp& op, const ZkTxn& txn,
                        std::vector<std::string>* violations) {
  auto fail = [&](const std::string& why) {
    std::ostringstream os;
    os << "client " << client << " req " << req_id << ": committed txn does not match call ("
       << why << ")";
    violations->push_back(os.str());
  };
  std::vector<const ZkTxnOp*> tree;
  for (const ZkTxnOp& t : txn.ops) {
    if (IsTreeOp(t.type)) {
      tree.push_back(&t);
    }
  }
  std::vector<const ZkOp*> body;
  if (op.type == ZkOpType::kMulti) {
    for (const ZkOp& o : op.ops) {
      body.push_back(&o);
    }
  } else {
    body.push_back(&op);
  }
  if (tree.size() != body.size()) {
    fail("op count " + std::to_string(tree.size()) + " != " + std::to_string(body.size()));
    return;
  }
  for (size_t i = 0; i < body.size(); ++i) {
    const ZkOp& o = *body[i];
    const ZkTxnOp& t = *tree[i];
    switch (o.type) {
      case ZkOpType::kCreate:
        if (t.type != ZkTxnOpType::kCreate) {
          fail("op " + std::to_string(i) + " type");
        } else if (o.sequential ? t.path.compare(0, o.path.size(), o.path) != 0
                                : t.path != o.path) {
          fail("create path " + t.path + " vs " + o.path);
        } else if (t.data != o.data) {
          fail("create data for " + o.path);
        }
        break;
      case ZkOpType::kDelete:
        if (t.type != ZkTxnOpType::kDelete || t.path != o.path) {
          fail("delete path " + o.path);
        }
        break;
      case ZkOpType::kSetData:
        if (t.type != ZkTxnOpType::kSetData || t.path != o.path) {
          fail("setData path " + o.path);
        } else if (t.data != o.data) {
          fail("setData data for " + o.path);
        }
        break;
      default:
        fail("op " + std::to_string(i) + " is not a tree op");
        break;
    }
  }
}

}  // namespace

std::string CheckReport::ToString() const {
  std::string out;
  for (const std::string& v : violations) {
    if (!out.empty()) {
      out += '\n';
    }
    out += v;
  }
  return out;
}

CheckReport CheckZkHistory(const HistoryRecorder& history) {
  CheckReport report;
  auto violation = [&report](const std::string& v) { report.violations.push_back(v); };

  // --- 1. Merge per-replica commit streams into one total order by zxid. ---
  std::map<uint64_t, const ZkCommitRecord*> commits;
  for (const ZkCommitRecord& c : history.zk_commits) {
    auto [it, inserted] = commits.emplace(c.zxid, &c);
    if (!inserted && it->second->txn_hash != c.txn_hash) {
      std::ostringstream os;
      os << "zxid " << c.zxid << ": replicas " << it->second->replica << " and " << c.replica
         << " committed different transactions";
      violation(os.str());
    }
  }

  // --- 2. Replay through the sequential model, building per-path state
  //        histories and the (session, req_id) -> commit index. ---
  ZkModel model;
  std::map<std::string, std::vector<PathState>> path_histories;
  auto snapshot = [&model](const std::string& path) {
    PathState st;
    const ZkModelNode* node = model.Get(path);
    if (node != nullptr) {
      st.exists = true;
      st.data = node->data;
      st.stat = node->stat;
      st.children = model.Children(path);
    }
    return st;
  };
  auto record_path = [&](const std::string& path) {
    PathState st = snapshot(path);
    auto& states = path_histories[path];
    if (states.empty() || !PathStateEq(states.back(), st)) {
      states.push_back(std::move(st));
    }
  };
  record_path("/");
  record_path(kEmRoot);

  struct CommitInfo {
    uint64_t zxid = 0;
    const ZkTxn* txn = nullptr;
  };
  std::map<std::pair<uint64_t, uint64_t>, CommitInfo> client_commits;
  for (const auto& [zxid, rec] : commits) {
    ZkModelApplyResult applied = model.Apply(zxid, rec->txn);
    for (const std::string& f : applied.failures) {
      std::ostringstream os;
      os << "zxid " << zxid << ": committed op failed to apply (" << f << ")";
      violation(os.str());
    }
    for (const std::string& p : applied.touched) {
      record_path(p);
    }
    bool has_tree_op = false;
    bool internal = false;
    for (const ZkTxnOp& op : rec->txn.ops) {
      has_tree_op = has_tree_op || IsTreeOp(op.type);
      internal = internal || op.type == ZkTxnOpType::kCreateSession ||
                 op.type == ZkTxnOpType::kCloseSession;
    }
    if (!has_tree_op || internal || rec->txn.session == 0) {
      continue;  // session bookkeeping / ephemeral cleanup, not a client write
    }
    std::pair<uint64_t, uint64_t> key{rec->txn.session, rec->txn.req_id};
    auto [it, inserted] = client_commits.emplace(key, CommitInfo{zxid, &rec->txn});
    if (!inserted) {
      std::ostringstream os;
      os << "session " << key.first << " req " << key.second << ": committed twice (zxid "
         << it->second.zxid << " and " << zxid << ")";
      violation(os.str());
    }
  }

  // --- 3. Index calls; validate the response stream in receive order. ---
  std::map<std::pair<NodeId, uint64_t>, const ZkCallRecord*> calls;
  for (const ZkCallRecord& c : history.zk_calls) {
    calls.emplace(std::make_pair(c.client, c.req_id), &c);
  }

  auto absence_plausible = [&path_histories](const std::string& path) {
    auto it = path_histories.find(path);
    if (it == path_histories.end()) {
      return true;  // never existed during the run
    }
    if (path != "/" && path != kEmRoot) {
      return true;  // initial state of every run-created path is "absent"
    }
    for (const PathState& st : it->second) {
      if (!st.exists) {
        return true;
      }
    }
    return false;
  };
  auto match_state = [&path_histories](const std::string& path, auto&& pred) {
    auto it = path_histories.find(path);
    if (it == path_histories.end()) {
      return false;
    }
    for (const PathState& st : it->second) {
      if (st.exists && pred(st)) {
        return true;
      }
    }
    return false;
  };

  std::set<std::pair<NodeId, uint64_t>> responded;
  std::map<uint64_t, uint64_t> last_commit_zxid;                       // session -> zxid
  std::map<std::pair<uint64_t, std::string>, uint64_t> last_mzxid;     // (session, path)
  std::map<std::pair<NodeId, std::string>, uint64_t> data_watch_arms;  // (client, path)
  std::map<std::pair<NodeId, std::string>, uint64_t> child_watch_arms;

  for (const ZkResponseRecord& r : history.zk_responses) {
    auto call_it = calls.find({r.client, r.req_id});
    if (call_it == calls.end()) {
      std::ostringstream os;
      os << "client " << r.client << " req " << r.req_id << ": response without a call";
      violation(os.str());
      continue;
    }
    if (!responded.insert({r.client, r.req_id}).second) {
      std::ostringstream os;
      os << "client " << r.client << " req " << r.req_id << ": duplicate response";
      violation(os.str());
      continue;
    }
    const ZkCallRecord& call = *call_it->second;
    const ZkOp& op = call.op;
    auto fail = [&](const std::string& why) {
      std::ostringstream os;
      os << "client " << r.client << " req " << r.req_id << " ("
         << static_cast<int>(op.type) << " " << op.path << "): " << why;
      violation(os.str());
    };

    if (r.synthetic) {
      if (r.reply.code == ErrorCode::kOk) {
        fail("synthetic response with OK code");
      }
      continue;  // no commit-existence claim either way
    }
    if (op.type == ZkOpType::kPing || op.type == ZkOpType::kCloseSession ||
        op.type == ZkOpType::kSessionCreate) {
      continue;
    }
    // Map-version protocol (docs/sharding.md): a kShardMapStale rejection is
    // an admission bounce that claims nothing about node state, so reads are
    // exempt from the state-matching checks. Writes need no carve-out — an
    // error reply without a commit is already accepted below, and a stale
    // reply WITH a commit stays a violation (that is exactly the duplicated-
    // op bug the chaos test hunts).
    if (IsReadOp(op.type) && r.reply.code == ErrorCode::kShardMapStale) {
      continue;
    }

    if (IsReadOp(op.type)) {
      if (op.type == ZkOpType::kExists) {
        if (r.reply.code != ErrorCode::kOk) {
          fail("exists returned error " + std::to_string(static_cast<int>(r.reply.code)));
        } else if (r.reply.value == "1") {
          if (!r.reply.has_stat) {
            fail("exists=1 without stat");
          } else if (!match_state(op.path, [&](const PathState& st) {
                       return StatEq(st.stat, r.reply.stat);
                     })) {
            fail("exists stat matches no state the node passed through");
          }
        } else if (!absence_plausible(op.path)) {
          fail("exists=0 for a node that always existed");
        }
      } else if (op.type == ZkOpType::kGetData) {
        if (r.reply.code == ErrorCode::kNoNode) {
          if (!absence_plausible(op.path)) {
            fail("getData NoNode for a node that always existed");
          }
        } else if (r.reply.code != ErrorCode::kOk) {
          fail("getData returned error " + std::to_string(static_cast<int>(r.reply.code)));
        } else if (!r.reply.has_stat) {
          fail("getData without stat");
        } else if (!match_state(op.path, [&](const PathState& st) {
                     return st.data == r.reply.value && StatEq(st.stat, r.reply.stat);
                   })) {
          fail("getData (data, stat) matches no state the node passed through");
        }
      } else {  // kGetChildren
        if (r.reply.code == ErrorCode::kNoNode) {
          if (!absence_plausible(op.path)) {
            fail("getChildren NoNode for a node that always existed");
          }
        } else if (r.reply.code != ErrorCode::kOk) {
          fail("getChildren returned error " +
               std::to_string(static_cast<int>(r.reply.code)));
        } else if (!match_state(op.path, [&](const PathState& st) {
                     return st.children == r.reply.children;
                   })) {
          fail("getChildren matches no state the node passed through");
        }
      }
      // Per-(session, path) read monotonicity: one session is pinned to one
      // replica whose applied state only moves forward, so the node's mzxid
      // as observed by that session must never decrease.
      if (r.reply.code == ErrorCode::kOk && r.reply.has_stat) {
        uint64_t& last = last_mzxid[{call.session, op.path}];
        if (r.reply.stat.mzxid < last) {
          std::ostringstream os;
          os << "time went backwards: mzxid " << r.reply.stat.mzxid << " after " << last;
          fail(os.str());
        } else {
          last = r.reply.stat.mzxid;
        }
      }
      // Watch arming happens when the replica serves the read (exists arms
      // on either outcome; getData/getChildren only on success — and they
      // only succeed with kOk here).
      if (op.watch && r.reply.code == ErrorCode::kOk) {
        if (op.type == ZkOpType::kGetChildren) {
          child_watch_arms[{r.client, op.path}] += 1;
        } else {
          data_watch_arms[{r.client, op.path}] += 1;
        }
      }
      continue;
    }

    if (!IsWriteOp(op.type)) {
      continue;
    }
    auto commit_it = client_commits.find({call.session, r.req_id});
    if (r.reply.code == ErrorCode::kOk) {
      if (commit_it == client_commits.end()) {
        fail("OK response but no committed transaction");
        continue;
      }
      const CommitInfo& info = commit_it->second;
      if (info.txn->has_result && r.reply.value != info.txn->result) {
        fail("response value '" + r.reply.value + "' != committed result '" +
             info.txn->result + "'");
      }
      CheckWriteTxnShape(r.client, r.req_id, op, *info.txn, &report.violations);
      uint64_t& last = last_commit_zxid[call.session];
      if (info.zxid <= last) {
        std::ostringstream os;
        os << "session FIFO broken: commit zxid " << info.zxid
           << " acknowledged after zxid " << last;
        fail(os.str());
      } else {
        last = info.zxid;
      }
    } else if (commit_it != client_commits.end()) {
      std::ostringstream os;
      os << "error response (code " << static_cast<int>(r.reply.code)
         << ") but the operation committed at zxid " << commit_it->second.zxid;
      fail(os.str());
    }
  }

  // --- 4. One-shot watch accounting: fires never exceed arms. A deletion
  //        pops BOTH the data and the child watch on the deleted path
  //        (WatchManager::Trigger), so deleted events draw from either
  //        budget; the other event kinds draw from exactly one. ---
  struct Fires {
    uint64_t created_or_changed = 0;  // data watches only
    uint64_t children = 0;            // child watches only
    uint64_t deleted = 0;             // either kind
  };
  std::map<std::pair<NodeId, std::string>, Fires> fires;
  for (const ZkWatchRecord& w : history.zk_watches) {
    Fires& f = fires[{w.client, w.event.path}];
    switch (w.event.type) {
      case ZkEventType::kNodeChildrenChanged:
        f.children += 1;
        break;
      case ZkEventType::kNodeDeleted:
        f.deleted += 1;
        break;
      default:
        f.created_or_changed += 1;
        break;
    }
  }
  for (const auto& [key, f] : fires) {
    uint64_t data_armed = 0;
    uint64_t child_armed = 0;
    if (auto it = data_watch_arms.find(key); it != data_watch_arms.end()) {
      data_armed = it->second;
    }
    if (auto it = child_watch_arms.find(key); it != child_watch_arms.end()) {
      child_armed = it->second;
    }
    bool over = f.created_or_changed > data_armed || f.children > child_armed ||
                f.created_or_changed + f.children + f.deleted > data_armed + child_armed;
    if (over) {
      std::ostringstream os;
      os << "client " << key.first << " path " << key.second << ": "
         << (f.created_or_changed + f.children + f.deleted)
         << " watch events delivered (" << f.created_or_changed << " data, " << f.children
         << " child, " << f.deleted << " deleted) but only " << data_armed
         << " data + " << child_armed << " child watches armed (one-shot violated)";
      violation(os.str());
    }
  }

  return report;
}

CheckReport CheckDsHistory(const HistoryRecorder& history) {
  CheckReport report;
  auto violation = [&report](const std::string& v) { report.violations.push_back(v); };

  // --- 1. Merge per-replica execution streams into one total order. ---
  std::map<uint64_t, const DsExecRecord*> execs;
  for (const DsExecRecord& e : history.ds_execs) {
    auto [it, inserted] = execs.emplace(e.seq, &e);
    if (!inserted) {
      const DsExecRecord& first = *it->second;
      if (first.ts != e.ts || first.client != e.client || first.req_id != e.req_id ||
          first.payload != e.payload) {
        std::ostringstream os;
        os << "seq " << e.seq << ": replicas " << first.replica << " and " << e.replica
           << " executed different requests";
        violation(os.str());
      }
    }
  }

  // --- 2. Replay through the sequential model. ---
  DsModel model;
  std::map<std::pair<NodeId, uint64_t>, DsReply> model_replies;
  for (const auto& [seq, e] : execs) {
    for (DsModelReply& mr : model.Execute(e->ts, e->client, e->req_id, e->payload)) {
      auto [it, inserted] =
          model_replies.emplace(std::make_pair(mr.client, mr.req_id), std::move(mr.reply));
      if (!inserted) {
        std::ostringstream os;
        os << "client " << mr.client << " req " << mr.req_id
           << ": executed stream produces two replies";
        violation(os.str());
      }
    }
  }

  // --- 3. Validate accepted client responses against the model's replies. ---
  std::map<std::pair<NodeId, uint64_t>, const DsCallRecord*> calls;
  for (const DsCallRecord& c : history.ds_calls) {
    calls.emplace(std::make_pair(c.client, c.req_id), &c);
  }
  std::set<std::pair<NodeId, uint64_t>> responded;
  for (const DsResponseRecord& r : history.ds_responses) {
    std::pair<NodeId, uint64_t> key{r.client, r.req_id};
    auto fail = [&](const std::string& why) {
      std::ostringstream os;
      os << "client " << r.client << " req " << r.req_id << ": " << why;
      violation(os.str());
    };
    if (calls.find(key) == calls.end()) {
      fail("response without a call");
      continue;
    }
    if (!responded.insert(key).second) {
      fail("duplicate response");
      continue;
    }
    if (!r.result.ok() && r.result.code() == ErrorCode::kConnectionLoss) {
      continue;  // synthetic client-side failure (retransmit exhaustion)
    }
    auto mit = model_replies.find(key);
    if (mit == model_replies.end()) {
      fail("client accepted a reply the ordered execution never produced");
      continue;
    }
    const DsReply& m = mit->second;
    if (r.result.ok()) {
      if (m.code != ErrorCode::kOk) {
        fail("client got OK but the model replies error code " +
             std::to_string(static_cast<int>(m.code)));
      } else if (r.result->tuples != m.tuples || r.result->value != m.value) {
        fail("reply payload differs from the model's reply");
      }
    } else {
      if (m.code != r.result.code()) {
        fail("error code " + std::to_string(static_cast<int>(r.result.code())) +
             " but the model replies code " + std::to_string(static_cast<int>(m.code)));
      } else if (m.value != r.result.status().message()) {
        fail("error message '" + r.result.status().message() + "' != model's '" + m.value +
             "'");
      }
    }
  }

  return report;
}

}  // namespace edc
