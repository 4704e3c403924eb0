#include "edc/zk/server.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "edc/common/hash.h"
#include "edc/common/logging.h"
#include "edc/common/strings.h"

namespace edc {

ZkServer::ZkServer(EventLoop* loop, Network* net, NodeId id, std::vector<NodeId> members,
                   const CostModel& costs, ZkServerOptions options,
                   std::shared_ptr<RecordPool> log_pool)
    : loop_(loop),
      net_(net),
      id_(id),
      costs_(costs),
      options_(options),
      cpu_(loop, kReplicaCores, id),
      log_(loop, options.log, std::move(log_pool), id) {
  zab_ = std::make_unique<ZabNode>(loop, net, &cpu_, &log_, costs, id, std::move(members),
                                   options.zab, this);
}

// Boot and reboot alike: every volatile member starts empty and the
// replicated state is rebuilt from the durable log (zab_->Start() replays
// it and begins the host's next incarnation). What survives a crash is the
// LogStore (log and snapshot), shard_id_/expected_map_version_, and the
// session and internal request-id counters.
void ZkServer::Start() {
  running_ = true;
  sessions_.clear();
  block_table_.clear();
  outstanding_.clear();
  watch_mgr_.Clear();
  client_nodes_.clear();
  pending_connects_.clear();
  expiring_sessions_.clear();
  pending_reconfig_ = PendingReconfig{};
  applied_log_.clear();
  tree_.Load({});  // empty tree
  // The extension-manager data object (§3.5) exists from the start on every
  // replica.
  (void)tree_.Create(kEmRoot, "", 0, false, 0, 0);
  if (hooks_ != nullptr) {
    hooks_->OnStateReloaded();
  }
  zab_->Start();
  StartSessionTimer();
}

void ZkServer::Crash() {
  running_ = false;
  zab_->Crash();
  loop_->Cancel(session_timer_);
  session_timer_ = kInvalidTimer;
  net_->SetNodeUp(id_, false);
}

void ZkServer::Restart() {
  net_->SetNodeUp(id_, true);
  Start();
}

void ZkServer::StartSessionTimer() {
  session_timer_ = loop_->Schedule(options_.session_check_interval, cpu_.Guard([this]() {
    CheckSessions();
    StartSessionTimer();
  }));
}

bool ZkServer::OwnerReplicaDead(const SessionInfo& info) const {
  // Leader-side liveness judgment for the replica owning a session: acks and
  // heartbeat-acks keep PeerLastSeen fresh on a live follower, so silence for
  // a whole session timeout means the owner is down (or partitioned away —
  // indistinguishable, and either way its clients cannot be pinging it from
  // inside our partition). leader_since_ grounds the judgment right after an
  // election, before any ack has arrived.
  SimTime heard = std::max(zab_->PeerLastSeen(info.owner), leader_since_);
  return heard + info.timeout < loop_->now();
}

void ZkServer::CheckSessions() {
  for (const auto& [session, info] : sessions_) {
    if (info.timeout <= 0 || expiring_sessions_.count(session) > 0) {
      continue;
    }
    bool expire = false;
    if (info.owner == id_) {
      expire = info.last_seen + info.timeout < loop_->now();
    } else if (zab_->is_leader()) {
      // §5.1: sessions owned by a crashed replica must still expire so their
      // ephemerals and extension registrations are cleaned up; the owner will
      // never do it, so the leader does.
      expire = OwnerReplicaDead(info);
    }
    if (expire) {
      expiring_sessions_.insert(session);
      ZkRequestMsg msg;
      msg.session = session;
      msg.req_id = AllocInternalReqId();
      msg.op.type = ZkOpType::kCloseSession;
      EDC_LOG(kDebug) << "server " << id_ << " expiring session " << session
                      << (info.owner == id_ ? "" : " (dead owner)");
      RouteToLeader(id_, msg);
    }
  }
}

void ZkServer::SendPacket(NodeId dst, ZkMsgType type, std::vector<uint8_t> payload) {
  Packet pkt;
  pkt.src = id_;
  pkt.dst = dst;
  pkt.type = static_cast<uint32_t>(type);
  pkt.payload = std::move(payload);
  net_->Send(std::move(pkt));
}

void ZkServer::HandlePacket(Packet&& pkt) {
  if (!running_) {
    return;
  }
  if (IsZabPacket(pkt.type)) {
    zab_->HandlePacket(std::move(pkt));
    return;
  }
  if (!IsZkPacket(pkt.type)) {
    return;
  }
  auto shared = std::make_shared<Packet>(std::move(pkt));
  cpu_.Submit(costs_.rpc_decode_cpu,
              [this, shared]() { ProcessClientPacket(std::move(*shared)); });
}

void ZkServer::ProcessClientPacket(Packet&& pkt) {
  switch (static_cast<ZkMsgType>(pkt.type)) {
    case ZkMsgType::kConnect:
      OnConnect(std::move(pkt));
      break;
    case ZkMsgType::kRequest:
      OnClientRequest(std::move(pkt));
      break;
    case ZkMsgType::kForward: {
      auto m = DecodeMsg<ZkForwardMsg>(pkt.payload);
      if (m.ok()) {
        PrepAndPropose(m->origin, std::move(m->request));
      }
      break;
    }
    case ZkMsgType::kForwardReply: {
      auto m = DecodeMsg<ZkForwardReplyMsg>(pkt.payload);
      if (m.ok()) {
        SendReplyToClient(m->session, m->reply);
      }
      break;
    }
    default:
      break;
  }
}

void ZkServer::OnConnect(Packet&& pkt) {
  auto m = DecodeMsg<ZkConnectMsg>(pkt.payload);
  if (!m.ok()) {
    return;
  }
  uint64_t session = (static_cast<uint64_t>(id_) << 40) | ++session_counter_;
  pending_connects_[session] = PendingConnect{pkt.src, m->old_session};
  client_nodes_[session] = pkt.src;
  ZkRequestMsg msg;
  msg.session = session;
  msg.req_id = 0;
  msg.op.type = ZkOpType::kSessionCreate;
  msg.op.data = std::to_string(m->session_timeout);
  RouteToLeader(id_, msg);
}

void ZkServer::OnClientRequest(Packet&& pkt) {
  auto m = DecodeMsg<ZkRequestMsg>(pkt.payload);
  if (!m.ok()) {
    return;
  }
  ZkRequestMsg& msg = *m;
  auto session_it = sessions_.find(msg.session);
  if (session_it == sessions_.end()) {
    ZkReplyMsg reply;
    reply.req_id = msg.req_id;
    reply.code = ErrorCode::kSessionExpired;
    SendPacket(pkt.src, ZkMsgType::kReply, EncodeMsg(reply));
    return;
  }
  client_nodes_[msg.session] = pkt.src;
  if (session_it->second.owner == id_) {
    session_it->second.last_seen = loop_->now();
  }

  if (msg.op.type == ZkOpType::kPing) {
    ZkReplyMsg reply;
    reply.req_id = msg.req_id;
    SendPacket(pkt.src, ZkMsgType::kReply, EncodeMsg(reply));
    return;
  }

  // Map-version protocol (docs/sharding.md): reject clients routing with a
  // stale shard map before the request touches the tree or the ordering
  // pipeline. The expected version rides back in `value` so the client can
  // tell how far behind it is. Session closes stay admissible — a stale
  // client must still be able to leave cleanly.
  if (expected_map_version_ > 0 && msg.map_version < expected_map_version_ &&
      msg.op.type != ZkOpType::kCloseSession) {
    ZkReplyMsg reply;
    reply.req_id = msg.req_id;
    reply.code = ErrorCode::kShardMapStale;
    reply.value = std::to_string(expected_map_version_);
    SendPacket(pkt.src, ZkMsgType::kReply, EncodeMsg(reply));
    return;
  }

  // Extension-subscribed operations take the leader path even when they are
  // reads; the subscription check itself is the §6.2 "overhead" hot path.
  bool matched = false;
  if (hooks_ != nullptr) {
    cpu_.Charge(costs_.ext_match_cpu);
    matched = hooks_->MatchesOperation(msg.session, msg.op);
  }
  if (!matched && IsReadOp(msg.op.type)) {
    NodeId client = pkt.src;
    auto shared = std::make_shared<ZkRequestMsg>(std::move(msg));
    cpu_.Submit(costs_.read_cpu,
                [this, shared, client]() { ServeRead(shared->session, *shared, client); });
    return;
  }
  RouteToLeader(id_, msg);
}

void ZkServer::ServeRead(uint64_t session, const ZkRequestMsg& msg, NodeId client) {
  ZkReplyMsg reply;
  reply.req_id = msg.req_id;
  switch (msg.op.type) {
    case ZkOpType::kExists: {
      bool exists = tree_.Exists(msg.op.path);
      reply.value = exists ? "1" : "0";
      if (exists) {
        auto node = tree_.Get(msg.op.path);
        reply.has_stat = true;
        reply.stat = node->stat;
      }
      if (msg.op.watch) {
        watch_mgr_.AddDataWatch(msg.op.path, session);
      }
      break;
    }
    case ZkOpType::kGetData: {
      auto node = tree_.Get(msg.op.path);
      if (!node.ok()) {
        reply.code = node.status().code();
        break;
      }
      reply.value = node->data;
      reply.has_stat = true;
      reply.stat = node->stat;
      if (msg.op.watch) {
        watch_mgr_.AddDataWatch(msg.op.path, session);
      }
      break;
    }
    case ZkOpType::kGetChildren: {
      auto children = tree_.GetChildren(msg.op.path);
      if (!children.ok()) {
        reply.code = children.status().code();
        break;
      }
      reply.children = std::move(*children);
      if (msg.op.watch) {
        watch_mgr_.AddChildWatch(msg.op.path, session);
      }
      break;
    }
    default:
      reply.code = ErrorCode::kInvalidArgument;
      break;
  }
  SendPacket(client, ZkMsgType::kReply, EncodeMsg(reply));
}

void ZkServer::RouteToLeader(uint32_t origin, const ZkRequestMsg& msg) {
  if (zab_->is_leader()) {
    PrepAndPropose(origin, msg);
    return;
  }
  NodeId leader = zab_->leader();
  if (leader == 0 || leader == id_) {
    ZkReplyMsg reply;
    reply.req_id = msg.req_id;
    reply.code = ErrorCode::kNotReady;
    RouteReply(origin, msg.session, std::move(reply));
    return;
  }
  ZkForwardMsg fwd;
  fwd.origin = origin;
  fwd.request = msg;
  SendPacket(leader, ZkMsgType::kForward, EncodeMsg(fwd));
}

void ZkServer::PrepAndPropose(uint32_t origin, ZkRequestMsg msg) {
  auto shared = std::make_shared<ZkRequestMsg>(std::move(msg));
  cpu_.Submit(costs_.prep_cpu,
              [this, origin, shared]() { DoPrep(origin, std::move(*shared)); });
}

void ZkServer::DoPrep(uint32_t origin, ZkRequestMsg msg) {
  auto fail = [&](const Status& status) {
    ZkReplyMsg reply;
    reply.req_id = msg.req_id;
    reply.code = status.code();
    reply.value = status.message();
    RouteReply(origin, msg.session, std::move(reply));
  };

  if (!zab_->is_leader()) {
    fail(Status(ErrorCode::kNotReady, "not leader"));
    return;
  }

  // Ensemble reconfiguration is an administrative operation that bypasses the
  // prep pipeline: it is replicated as a flagged Zab entry, never becomes a
  // ZkTxn, and its reply is sent at activation (OnMembershipChange).
  if (msg.op.type == ZkOpType::kReconfig) {
    DoReconfig(origin, msg);
    return;
  }

  PrepSession prep(&tree_, &outstanding_, msg.session, msg.req_id, loop_->now());
  bool has_result = false;
  std::string result;
  bool handled = false;

  if (hooks_ != nullptr) {
    ZkPrepOutcome outcome = hooks_->HandleOperation(&prep, msg.session, msg.op);
    if (outcome.extra_cpu > 0) {
      cpu_.Charge(outcome.extra_cpu);
    }
    handled = outcome.handled;
    if (handled) {
      if (!outcome.status.ok()) {
        fail(outcome.status);
        return;
      }
      has_result = outcome.has_result;
      result = std::move(outcome.result);
    }
  }

  if (!handled) {
    switch (msg.op.type) {
      case ZkOpType::kCreate:
      case ZkOpType::kDelete:
      case ZkOpType::kSetData:
        if (Status s = prep.Apply(msg.op, &result); !s.ok()) {
          fail(s);
          return;
        }
        has_result = msg.op.type == ZkOpType::kCreate;
        break;
      case ZkOpType::kMulti:
        for (const ZkOp& sub : msg.op.ops) {
          if (Status s = prep.Apply(sub, nullptr); !s.ok()) {
            fail(s);
            return;
          }
        }
        break;
      case ZkOpType::kCloseSession:
        prep.CloseSession(msg.session);
        break;
      case ZkOpType::kSessionCreate: {
        auto timeout = ParseInt64(msg.op.data);
        prep.CreateSession(msg.session, origin, timeout.value_or(0));
        break;
      }
      case ZkOpType::kExists:
      case ZkOpType::kGetData:
      case ZkOpType::kGetChildren: {
        // An extension-routed read that no extension ultimately handled:
        // serve it linearizably from the leader's view.
        ZkReplyMsg reply;
        reply.req_id = msg.req_id;
        auto node = prep.Get(msg.op.path);
        if (msg.op.type == ZkOpType::kExists) {
          reply.value = node.ok() ? "1" : "0";
        } else if (msg.op.type == ZkOpType::kGetData) {
          if (!node.ok()) {
            reply.code = node.status().code();
          } else {
            reply.value = node->data;
          }
        } else {
          auto children = prep.Children(msg.op.path);
          if (!children.ok()) {
            reply.code = children.status().code();
          } else {
            reply.children = std::move(*children);
          }
        }
        RouteReply(origin, msg.session, std::move(reply));
        return;
      }
      default:
        fail(Status(ErrorCode::kInvalidArgument, "unsupported op"));
        return;
    }
  }

  if (prep.ops().empty()) {
    // Read-only extension execution: reply directly from the leader.
    ZkReplyMsg reply;
    reply.req_id = msg.req_id;
    reply.value = std::move(result);
    RouteReply(origin, msg.session, std::move(reply));
    return;
  }

  if (!ProposeFromPrep(&prep, has_result, std::move(result), /*extra_cpu=*/0)) {
    fail(Status(ErrorCode::kNotReady, "broadcast failed"));
  }
}

Status ZkServer::ParseReconfigSpec(const std::string& spec, ZabMembership* next) const {
  size_t space = spec.find(' ');
  if (space == std::string::npos) {
    return Status(ErrorCode::kInvalidArgument, "reconfig spec: '<verb> <node>'");
  }
  std::string verb = spec.substr(0, space);
  auto id = ParseInt64(spec.substr(space + 1));
  if (!id.ok() || *id <= 0) {
    return Status(ErrorCode::kInvalidArgument, "reconfig spec: bad node id");
  }
  NodeId node = static_cast<NodeId>(*id);
  const ZabMembership& cur = zab_->membership();
  next->voters = cur.voters;
  next->observers = cur.observers;
  auto erase = [](std::vector<NodeId>& v, NodeId n) {
    v.erase(std::remove(v.begin(), v.end(), n), v.end());
  };
  if (verb == "add_observer") {
    if (cur.Contains(node)) {
      return Status(ErrorCode::kInvalidArgument, "already a member");
    }
    next->observers.push_back(node);
  } else if (verb == "add_voter") {
    if (cur.IsVoter(node)) {
      return Status(ErrorCode::kInvalidArgument, "already a voter");
    }
    erase(next->observers, node);
    next->voters.push_back(node);
  } else if (verb == "promote") {
    if (!cur.IsObserver(node)) {
      return Status(ErrorCode::kInvalidArgument, "not an observer");
    }
    erase(next->observers, node);
    next->voters.push_back(node);
  } else if (verb == "remove") {
    if (!cur.Contains(node)) {
      return Status(ErrorCode::kInvalidArgument, "not a member");
    }
    erase(next->voters, node);
    erase(next->observers, node);
  } else {
    return Status(ErrorCode::kInvalidArgument, "unknown reconfig verb: " + verb);
  }
  return Status::Ok();
}

void ZkServer::DoReconfig(uint32_t origin, const ZkRequestMsg& msg) {
  auto fail = [&](const Status& status) {
    ZkReplyMsg reply;
    reply.req_id = msg.req_id;
    reply.code = status.code();
    reply.value = status.message();
    RouteReply(origin, msg.session, std::move(reply));
  };
  if (pending_reconfig_.active) {
    fail(Status(ErrorCode::kNotReady, "a reconfiguration is already in flight"));
    return;
  }
  ZabMembership next;
  if (auto s = ParseReconfigSpec(msg.op.data, &next); !s.ok()) {
    fail(s);
    return;
  }
  if (auto s = zab_->ProposeReconfig(std::move(next)); !s.ok()) {
    fail(s);
    return;
  }
  pending_reconfig_ = PendingReconfig{true, origin, msg.session, msg.req_id};
}

bool ZkServer::ProposeFromPrep(PrepSession* prep, bool has_result, std::string result,
                               Duration extra_cpu, uint8_t ext_depth) {
  if (!zab_->is_leader()) {
    return false;
  }
  if (extra_cpu > 0) {
    cpu_.Charge(extra_cpu);
  }
  if (prep->ops().empty()) {
    return true;
  }
  ZkTxn txn;
  txn.session = prep->session();
  txn.req_id = prep->req_id();
  txn.time = loop_->now();
  txn.ops = std::move(prep->ops());
  txn.has_result = has_result;
  txn.result = std::move(result);
  txn.ext_depth = ext_depth;
  outstanding_.push_back(prep->TakeDelta());
  if (!zab_->Broadcast(EncodeMsg(txn))) {
    outstanding_.pop_back();
    return false;
  }
  return true;
}

std::unique_ptr<PrepSession> ZkServer::BeginInternalPrep(uint64_t session) {
  return std::make_unique<PrepSession>(&tree_, &outstanding_, session, AllocInternalReqId(),
                                       loop_->now());
}

bool ZkServer::TxnIsDeferred(const ZkTxn& txn) {
  for (const ZkTxnOp& op : txn.ops) {
    if (op.type == ZkTxnOpType::kBlock && op.session == txn.session &&
        op.req_id == txn.req_id) {
      return true;
    }
  }
  return false;
}

void ZkServer::OnDeliver(uint64_t zxid, std::span<const uint8_t> txn_bytes) {
  uint64_t txn_hash = Fnv1a64(txn_bytes.data(), txn_bytes.size());
  applied_log_.emplace_back(zxid, txn_hash);
  auto txn = DecodeMsg<ZkTxn>(txn_bytes);
  if (!txn.ok()) {
    EDC_LOG(kError) << "server " << id_ << ": undecodable txn at zxid " << zxid;
    return;
  }
  if (commit_observer_) {
    commit_observer_(zxid, *txn, txn_hash);
  }
  if (!outstanding_.empty() && outstanding_.front().session == txn->session &&
      outstanding_.front().req_id == txn->req_id) {
    outstanding_.pop_front();
  }
  ApplyTxn(zxid, *txn);
}

void ZkServer::ApplyTxn(uint64_t zxid, const ZkTxn& txn) {
  std::vector<ZkEvent> events;
  std::vector<std::string> block_candidates;

  for (const ZkTxnOp& op : txn.ops) {
    switch (op.type) {
      case ZkTxnOpType::kCreate: {
        auto r = tree_.Create(op.path, op.data, op.ephemeral_owner, false, zxid, txn.time);
        if (!r.ok()) {
          EDC_LOG(kError) << "server " << id_ << ": apply create failed: "
                          << r.status().ToString();
          break;
        }
        events.push_back(ZkEvent{ZkEventType::kNodeCreated, op.path});
        events.push_back(ZkEvent{ZkEventType::kNodeChildrenChanged, ParentPath(op.path)});
        block_candidates.push_back(op.path);
        break;
      }
      case ZkTxnOpType::kDelete: {
        auto s = tree_.Delete(op.path, -1, zxid);
        if (!s.ok()) {
          EDC_LOG(kError) << "server " << id_ << ": apply delete failed: " << s.ToString();
          break;
        }
        events.push_back(ZkEvent{ZkEventType::kNodeDeleted, op.path});
        events.push_back(ZkEvent{ZkEventType::kNodeChildrenChanged, ParentPath(op.path)});
        break;
      }
      case ZkTxnOpType::kSetData: {
        auto s = tree_.SetData(op.path, op.data, -1, zxid, txn.time);
        if (!s.ok()) {
          EDC_LOG(kError) << "server " << id_ << ": apply setData failed: " << s.ToString();
          break;
        }
        events.push_back(ZkEvent{ZkEventType::kNodeDataChanged, op.path});
        break;
      }
      case ZkTxnOpType::kCreateSession: {
        SessionInfo info;
        info.owner = op.session_owner;
        info.timeout = static_cast<Duration>(op.req_id);
        info.last_seen = loop_->now();
        sessions_[op.session] = info;
        if (op.session_owner == id_) {
          session_counter_ =
              std::max(session_counter_, op.session & ((uint64_t{1} << 40) - 1));
          auto it = pending_connects_.find(op.session);
          if (it != pending_connects_.end()) {
            ZkConnectReplyMsg reply{op.session, ErrorCode::kOk};
            // The session table at this zxid is replicated state: the old
            // session being gone means a close/expiry already committed, so
            // the client's parked calls can never complete.
            reply.old_session_expired = it->second.old_session != 0 &&
                                        sessions_.count(it->second.old_session) == 0;
            SendPacket(it->second.client, ZkMsgType::kConnectReply,
                       EncodeMsg(reply));
            pending_connects_.erase(it);
          }
        }
        break;
      }
      case ZkTxnOpType::kCloseSession: {
        for (const std::string& path : tree_.EphemeralsOf(op.session)) {
          if (tree_.Delete(path, -1, zxid).ok()) {
            events.push_back(ZkEvent{ZkEventType::kNodeDeleted, path});
            events.push_back(
                ZkEvent{ZkEventType::kNodeChildrenChanged, ParentPath(path)});
          }
        }
        sessions_.erase(op.session);
        expiring_sessions_.erase(op.session);
        watch_mgr_.RemoveSession(op.session);
        client_nodes_.erase(op.session);
        for (auto& [path, waiters] : block_table_) {
          waiters.erase(std::remove_if(waiters.begin(), waiters.end(),
                                       [&op](const std::pair<uint64_t, uint64_t>& w) {
                                         return w.first == op.session;
                                       }),
                        waiters.end());
        }
        break;
      }
      case ZkTxnOpType::kBlock: {
        block_table_[op.path].emplace_back(op.session, op.req_id);
        block_candidates.push_back(op.path);
        break;
      }
    }
  }

  cpu_.Charge(static_cast<Duration>(txn.ops.size()) * costs_.apply_txn_cpu);

  // Reply to the originating client at its owner replica (results are
  // piggybacked on the transaction, §5.1.2). Deferred if the client now
  // waits on a server-side block.
  if (txn.session != 0 && txn.req_id != 0 && !TxnIsDeferred(txn)) {
    auto it = sessions_.find(txn.session);
    if (it != sessions_.end() && it->second.owner == id_) {
      ZkReplyMsg reply;
      reply.req_id = txn.req_id;
      reply.value = txn.result;
      SendReplyToClient(txn.session, reply);
    }
  }

  // Server-side unblocks: any block entry whose path now exists fires. This
  // runs after all ops so a transaction that both registers a block and
  // creates the node (barrier's last participant) resolves consistently.
  for (const std::string& path : block_candidates) {
    auto waiters = block_table_.find(path);
    if (waiters == block_table_.end() || !tree_.Exists(path)) {
      continue;
    }
    auto node = tree_.Get(path);
    for (const auto& [session, req_id] : waiters->second) {
      auto owner = sessions_.find(session);
      if (owner != sessions_.end() && owner->second.owner == id_) {
        ZkReplyMsg reply;
        reply.req_id = req_id;
        reply.value = node.ok() ? node->data : "";
        SendReplyToClient(session, reply);
      }
    }
    block_table_.erase(waiters);
  }

  // Watches (volatile, connection-local) and notification suppression.
  for (const ZkEvent& event : events) {
    std::vector<uint64_t> watchers = watch_mgr_.Trigger(event.type, event.path);
    for (uint64_t session : watchers) {
      if (hooks_ != nullptr && hooks_->SuppressNotification(session, event)) {
        continue;
      }
      auto it = client_nodes_.find(session);
      if (it != client_nodes_.end()) {
        cpu_.Charge(costs_.watch_fire_cpu);
        ZkWatchEventMsg ev{event.type, event.path};
        int copies = options_.test_double_fire_watches ? 2 : 1;
        for (int c = 0; c < copies; ++c) {
          SendPacket(it->second, ZkMsgType::kWatchEvent, EncodeMsg(ev));
        }
      }
    }
  }

  if (hooks_ != nullptr) {
    hooks_->AfterApply(txn, events, zab_->is_leader());
  }
}

void ZkServer::OnRoleChange(bool leader, NodeId leader_id, uint32_t epoch) {
  (void)leader_id;
  (void)epoch;
  outstanding_.clear();
  if (pending_reconfig_.active) {
    // The proposal may still commit under the next leader, but this replica
    // can no longer promise activation; the admin retries idempotently.
    ZkReplyMsg reply;
    reply.req_id = pending_reconfig_.req_id;
    reply.code = ErrorCode::kNotReady;
    reply.value = "leadership changed during reconfig";
    RouteReply(pending_reconfig_.origin, pending_reconfig_.session, std::move(reply));
    pending_reconfig_ = PendingReconfig{};
  }
  if (leader) {
    leader_since_ = loop_->now();
  }
  EDC_LOG(kDebug) << "server " << id_ << (leader ? " is now leader" : " follows")
                  << " epoch " << epoch;
}

std::vector<uint8_t> ZkServer::TakeSnapshot() {
  Encoder enc;
  // The tree section is itself framed (length + FNV) so truncation or
  // corruption anywhere inside it is detected before a byte is applied.
  enc.Bytes(tree_.SerializeImage());
  SessionTable(enc, sessions_);
  BlockTable(enc, block_table_);
  return enc.Release();
}

bool ZkServer::InstallSnapshot(uint64_t zxid, const std::vector<uint8_t>& snapshot) {
  // Decode every section into temporaries first: a snapshot that fails
  // anywhere — truncated tree image, torn session table, trailing garbage —
  // must leave the replica exactly as it was so the Zab layer can re-request
  // state transfer (the joiner re-sends FollowerInfo and the leader re-offers
  // the snapshot).
  Decoder dec(snapshot);
  std::span<const uint8_t> tree_bytes;
  dec.Bytes(tree_bytes);
  if (!dec.ok()) {
    EDC_LOG(kError) << "server " << id_ << ": snapshot tree section missing";
    return false;
  }
  std::map<uint64_t, SessionInfo> fresh_sessions;
  SessionTable(dec, fresh_sessions);
  if (!dec.ok()) {
    EDC_LOG(kError) << "server " << id_ << ": snapshot session table truncated";
    return false;
  }
  for (auto& [session, info] : fresh_sessions) {
    info.last_seen = loop_->now();
  }
  BlockTableMap fresh_blocks;
  BlockTable(dec, fresh_blocks);
  if (!dec.ok()) {
    EDC_LOG(kError) << "server " << id_ << ": snapshot block table truncated";
    return false;
  }
  if (!dec.AtEnd()) {
    EDC_LOG(kError) << "server " << id_ << ": snapshot has trailing bytes";
    return false;
  }
  // The framed tree image is validated (length + checksum + structure) and
  // swapped in atomically by RestoreImage; it is the last fallible step.
  if (auto s = tree_.RestoreImage(tree_bytes); !s.ok()) {
    EDC_LOG(kError) << "server " << id_ << ": snapshot tree load failed: " << s.ToString();
    return false;
  }
  sessions_ = std::move(fresh_sessions);
  block_table_ = std::move(fresh_blocks);
  for (const auto& [session, info] : sessions_) {
    if (info.owner == id_) {
      session_counter_ = std::max(session_counter_, session & ((uint64_t{1} << 40) - 1));
    }
  }
  applied_log_.clear();  // state is now the snapshot at `zxid`, not per-txn application
  (void)zxid;
  watch_mgr_.Clear();
  if (hooks_ != nullptr) {
    hooks_->OnStateReloaded();
  }
  return true;
}

void ZkServer::OnMembershipChange(uint64_t zxid, const ZabMembership& membership) {
  // Push the new ensemble to every connected client so failover lists stay
  // live (satellite: clients historically kept the boot-time ServerList
  // forever and could fail over into removed replicas).
  ZkMembershipEventMsg ev;
  ev.version = zxid;
  ev.voters = membership.voters;
  ev.observers = membership.observers;
  std::set<NodeId> clients;
  for (const auto& [session, node] : client_nodes_) {
    clients.insert(node);
  }
  for (NodeId c : clients) {
    SendPacket(c, ZkMsgType::kMembershipEvent, EncodeMsg(ev));
  }
  if (pending_reconfig_.active) {
    ZkReplyMsg reply;
    reply.req_id = pending_reconfig_.req_id;
    reply.value = "ok";
    RouteReply(pending_reconfig_.origin, pending_reconfig_.session, std::move(reply));
    pending_reconfig_ = PendingReconfig{};
  }
  if (!membership.Contains(id_) && zab_->admitted()) {
    // Removed from the ensemble: the Zab node retires itself right after this
    // callback, which begins the host's next incarnation; stop serving
    // clients too. The durable log is kept. A joiner
    // that was never admitted is just replaying configs that predate its own
    // add — it keeps running and waits for the entry that admits it.
    EDC_LOG(kInfo) << "server " << id_ << " removed from ensemble at zxid " << zxid
                   << "; retiring";
    running_ = false;
    loop_->Cancel(session_timer_);
    session_timer_ = kInvalidTimer;
  }
}

void ZkServer::RouteReply(uint32_t origin, uint64_t session, ZkReplyMsg reply) {
  if (origin == id_) {
    SendReplyToClient(session, reply);
    return;
  }
  ZkForwardReplyMsg msg;
  msg.session = session;
  msg.reply = std::move(reply);
  SendPacket(origin, ZkMsgType::kForwardReply, EncodeMsg(msg));
}

void ZkServer::SendReplyToClient(uint64_t session, const ZkReplyMsg& reply) {
  auto it = client_nodes_.find(session);
  if (it == client_nodes_.end()) {
    auto pending = pending_connects_.find(session);
    if (pending == pending_connects_.end()) {
      return;
    }
    SendPacket(pending->second.client, ZkMsgType::kReply, EncodeMsg(reply));
    return;
  }
  SendPacket(it->second, ZkMsgType::kReply, EncodeMsg(reply));
}

}  // namespace edc
