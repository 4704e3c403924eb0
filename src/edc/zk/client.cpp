#include "edc/zk/client.h"

#include <algorithm>
#include <utility>

#include "edc/common/logging.h"

namespace edc {

ZkClient::ZkClient(EventLoop* loop, Network* net, NodeId id, ShardView view,
                   ZkClientOptions options)
    : loop_(loop),
      net_(net),
      id_(id),
      servers_(std::move(view.ensemble)),
      shard_id_(view.shard_id),
      map_version_(view.map_version),
      options_(options),
      jitter_rng_(JitterSeedFor(id)),
      m_failovers_(loop->obs().metrics.GetCounter("client.zk.failovers")),
      m_reconnects_(loop->obs().metrics.GetCounter("client.zk.reconnect_attempts")),
      m_expired_(loop->obs().metrics.GetCounter("client.zk.sessions_expired")) {
  server_idx_ = servers_.preferred;
  server_ = servers_.at(server_idx_);
  net_->Register(id_, this);
}

void ZkClient::Connect(VoidCb done) {
  connect_cb_ = std::move(done);
  SendConnect();
}

void ZkClient::SendConnect() {
  Packet pkt;
  pkt.src = id_;
  pkt.dst = server_;
  pkt.type = static_cast<uint32_t>(ZkMsgType::kConnect);
  pkt.payload = EncodeMsg(ZkConnectMsg{options_.session_timeout, lost_session_});
  net_->Send(std::move(pkt));
}

void ZkClient::SendPing() {
  if (session_ == 0 || closing_) {
    return;
  }
  // Silence from the replica for a whole session timeout means it is dead or
  // unreachable: fail over instead of pinging a black hole forever.
  if (last_rx_ + options_.session_timeout < loop_->now()) {
    OnConnectionLoss();
    return;
  }
  ZkOp op;
  op.type = ZkOpType::kPing;
  Submit(std::move(op), [](const ZkReplyMsg&) {});
  ping_timer_ = loop_->Schedule(options_.ping_interval, [this]() { SendPing(); });
}

void ZkClient::Submit(ZkOp op, ReplyCb done) {
  ZkRequestMsg msg;
  msg.session = session_;
  msg.req_id = ++next_req_;
  msg.map_version = map_version_;
  msg.op = std::move(op);
  pending_[msg.req_id] = std::move(done);
  if (observer_.on_call) {
    observer_.on_call(msg.session, msg.req_id, msg.op);
  }
  Packet pkt;
  pkt.src = id_;
  pkt.dst = server_;
  pkt.type = static_cast<uint32_t>(ZkMsgType::kRequest);
  pkt.payload = EncodeMsg(msg);
  net_->Send(std::move(pkt));
}

void ZkClient::Emit(SessionEvent event) {
  if (session_cb_) {
    session_cb_(event);
  }
}

void ZkClient::Fail(std::map<uint64_t, ReplyCb>* calls, ErrorCode code) {
  std::map<uint64_t, ReplyCb> failed = std::move(*calls);
  calls->clear();
  for (auto& [req_id, cb] : failed) {
    ZkReplyMsg reply;
    reply.req_id = req_id;
    reply.code = code;
    if (observer_.on_reply) {
      observer_.on_reply(req_id, reply, /*synthetic=*/true);
    }
    cb(reply);
  }
}

void ZkClient::ParkPending() {
  for (auto& [req_id, cb] : pending_) {
    parked_.emplace(req_id, std::move(cb));
  }
  pending_.clear();
}

void ZkClient::OnConnectionLoss() {
  EDC_LOG(kDebug) << "client " << id_ << " lost replica " << server_;
  if (loop_->obs().enabled()) {
    m_failovers_->Increment();
  }
  loop_->Cancel(ping_timer_);
  lost_session_ = session_;
  session_ = 0;
  // Calls in flight cannot be failed accurately yet: if the replicated
  // session table has already expired the session, they must fail with
  // kSessionExpired, and only the replica we reconnect to can tell us. Park
  // them until the connect reply (or reconnect exhaustion) resolves it.
  ParkPending();
  Emit(SessionEvent::kDisconnected);
  // The old session is volatile server-side state we cannot resume (watches
  // and session identity die with it); the reconnect below creates a new one.
  Emit(SessionEvent::kSessionLost);
  ScheduleReconnect();
}

void ZkClient::OnSessionExpired() {
  EDC_LOG(kDebug) << "client " << id_ << " session expired";
  if (loop_->obs().enabled()) {
    m_expired_->Increment();
  }
  loop_->Cancel(ping_timer_);
  session_ = 0;
  lost_session_ = 0;
  Fail(&pending_, ErrorCode::kSessionExpired);
  Fail(&parked_, ErrorCode::kSessionExpired);
  Emit(SessionEvent::kSessionLost);
  ScheduleReconnect();
}

void ZkClient::ScheduleReconnect() {
  if (closing_) {
    return;
  }
  if (options_.reconnect.max_attempts > 0 &&
      reconnect_attempts_ >= options_.reconnect.max_attempts) {
    Fail(&parked_, ErrorCode::kConnectionLoss);
    if (connect_cb_) {
      auto cb = std::move(connect_cb_);
      connect_cb_ = nullptr;
      cb(Status(ErrorCode::kConnectionLoss, "reconnect attempts exhausted"));
    }
    return;
  }
  ++reconnect_attempts_;
  if (loop_->obs().enabled()) {
    m_reconnects_->Increment();
  }
  // Jittered so clients disconnected by the same fault don't reconnect in
  // lockstep.
  Duration delay = NextBackoff(options_.reconnect, &backoff_, &jitter_rng_);
  loop_->Cancel(reconnect_timer_);
  reconnect_timer_ = loop_->Schedule(delay, [this]() {
    if (closing_ || session_ != 0) {
      return;
    }
    // Rotate to the next replica; a dead one stays silent and the re-armed
    // chain below moves past it after the backoff.
    server_idx_ = (server_idx_ + 1) % std::max<size_t>(servers_.size(), 1);
    server_ = servers_.at(server_idx_);
    SendConnect();
    ScheduleReconnect();
  });
}

void ZkClient::HandlePacket(Packet&& pkt) {
  last_rx_ = loop_->now();
  switch (static_cast<ZkMsgType>(pkt.type)) {
    case ZkMsgType::kConnectReply: {
      auto m = DecodeMsg<ZkConnectReplyMsg>(pkt.payload);
      if (!m.ok() || session_ != 0) {
        return;  // duplicate/stale connect reply
      }
      session_ = m->session;
      loop_->Cancel(reconnect_timer_);
      backoff_ = 0;
      reconnect_attempts_ = 0;
      lost_session_ = 0;
      // Calls parked at connection loss resolve now: the replica reports
      // whether the old session was already expired out of the replicated
      // state (its writes can never complete) or merely detached.
      Fail(&parked_, m->old_session_expired ? ErrorCode::kSessionExpired
                                            : ErrorCode::kConnectionLoss);
      bool first = !ever_connected_;
      ever_connected_ = true;
      Emit(first ? SessionEvent::kConnected : SessionEvent::kReconnected);
      if (connect_cb_) {
        auto cb = std::move(connect_cb_);
        connect_cb_ = nullptr;
        cb(Status::Ok());
      }
      ping_timer_ = loop_->Schedule(options_.ping_interval, [this]() { SendPing(); });
      break;
    }
    case ZkMsgType::kReply: {
      auto m = DecodeMsg<ZkReplyMsg>(pkt.payload);
      if (!m.ok()) {
        return;
      }
      if (m->req_id == 0) {
        // Failed connect (e.g. no leader yet): retry.
        if (session_ == 0 && connect_cb_ && !closing_) {
          loop_->Schedule(kConnectRetry, [this]() {
            if (session_ == 0 && connect_cb_ && !closing_) {
              SendConnect();
            }
          });
        }
        return;
      }
      auto it = pending_.find(m->req_id);
      if (it == pending_.end()) {
        return;
      }
      ReplyCb cb = std::move(it->second);
      pending_.erase(it);
      if (observer_.on_reply) {
        observer_.on_reply(m->req_id, *m, /*synthetic=*/false);
      }
      cb(*m);
      // The server no longer knows this session (it expired, or the replica
      // restarted and replayed a close): everything session-scoped is gone.
      if (m->code == ErrorCode::kSessionExpired && session_ != 0 && !closing_) {
        OnSessionExpired();
      }
      break;
    }
    case ZkMsgType::kMembershipEvent: {
      auto m = DecodeMsg<ZkMembershipEventMsg>(pkt.payload);
      if (!m.ok() || m->version <= membership_version_) {
        break;  // stale or reordered push
      }
      membership_version_ = m->version;
      // Failover targets: voters first, then observers (both serve clients).
      std::vector<NodeId> fresh = m->voters;
      fresh.insert(fresh.end(), m->observers.begin(), m->observers.end());
      size_t idx = 0;
      bool still_member = false;
      for (size_t i = 0; i < fresh.size(); ++i) {
        if (fresh[i] == server_) {
          idx = i;
          still_member = true;
          break;
        }
      }
      servers_ = ServerList(std::move(fresh), idx);
      server_idx_ = idx;
      EDC_LOG(kDebug) << "client " << id_ << " refreshed ensemble (version "
                      << m->version << ", " << servers_.size() << " servers)";
      Emit(SessionEvent::kMembershipChanged);
      if (!still_member && session_ != 0 && !closing_) {
        // Our replica was removed and is about to stop serving; fail over now
        // instead of waiting out the session timeout on a black hole.
        OnConnectionLoss();
      }
      break;
    }
    case ZkMsgType::kWatchEvent: {
      auto m = DecodeMsg<ZkWatchEventMsg>(pkt.payload);
      if (!m.ok()) {
        break;
      }
      if (observer_.on_watch) {
        observer_.on_watch(session_, *m);
      }
      if (watch_handler_) {
        watch_handler_(*m);
      }
      break;
    }
    default:
      break;
  }
}

void ZkClient::Reconfig(const std::string& spec, VoidCb done) {
  ZkOp op;
  op.type = ZkOpType::kReconfig;
  op.data = spec;
  Submit(std::move(op),
         [done = std::move(done)](const ZkReplyMsg& reply) { done(StatusOf(reply)); });
}

void ZkClient::RegisterExtension(const std::string& name, const std::string& code,
                                 VoidCb done) {
  Create(EmLayout::RegistrationPath(name), code, false, false,
         [done = std::move(done)](Result<std::string> r) { done(r.status()); });
}

// One delete: the leader removes the acknowledgments with the registration.
void ZkClient::DeregisterExtension(const std::string& name, VoidCb done) {
  Delete(EmLayout::RegistrationPath(name), -1, std::move(done));
}

void ZkClient::AcknowledgeExtension(const std::string& name, VoidCb done) {
  Create(kZkEmLayout.AckPath(name, session_), "", false, false,
         [done = std::move(done)](Result<std::string> r) { done(r.status()); });
}

void ZkClient::Close(VoidCb done) {
  closing_ = true;
  loop_->Cancel(ping_timer_);
  loop_->Cancel(reconnect_timer_);
  Fail(&parked_, ErrorCode::kConnectionLoss);
  if (session_ == 0) {
    done(Status::Ok());  // nothing to close server-side
    return;
  }
  ZkOp op;
  op.type = ZkOpType::kCloseSession;
  Submit(std::move(op), [this, done = std::move(done)](const ZkReplyMsg& reply) {
    session_ = 0;
    done(StatusOf(reply));
  });
}

}  // namespace edc
