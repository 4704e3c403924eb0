#include "edc/ds/client.h"

#include <utility>

namespace edc {

DsClient::DsClient(EventLoop* loop, Network* net, NodeId id, ShardView view,
                   DsClientOptions options)
    : loop_(loop),
      net_(net),
      id_(id),
      replicas_(std::move(view.ensemble)),
      f_(BftFaultThreshold(replicas_.size())),
      shard_id_(view.shard_id),
      map_version_(view.map_version),
      options_(options),
      jitter_rng_(JitterSeedFor(id)),
      m_retransmits_(loop->obs().metrics.GetCounter("client.ds.retransmits")),
      m_give_ups_(loop->obs().metrics.GetCounter("client.ds.give_ups")) {
  net_->Register(id_, this);
}

void DsClient::Call(DsOp op, ReplyCb done) {
  if (!alive_) {
    return;
  }
  uint64_t req_id = ++next_req_;
  PendingCall call;
  call.op = std::move(op);
  if (call.op.type != DsOpType::kSetMapVersion) {
    // Stamp the routing version; kSetMapVersion carries the TARGET version in
    // the same field and must pass through untouched.
    call.op.map_version = map_version_;
  }
  call.done = std::move(done);
  call.backoff = options_.reconnect.initial_backoff;
  auto it = calls_.emplace(req_id, std::move(call)).first;
  if (observer_.on_call) {
    observer_.on_call(req_id, it->second.op);
  }
  Transmit(req_id);
  ArmRetry(req_id);
}

void DsClient::Transmit(uint64_t req_id) {
  auto it = calls_.find(req_id);
  if (it == calls_.end()) {
    return;
  }
  BftRequest req;
  req.client = id_;
  req.req_id = req_id;
  req.payload = EncodeMsg(it->second.op);
  std::vector<uint8_t> encoded = EncodeMsg(req);
  for (NodeId replica : replicas_.servers) {
    Packet pkt;
    pkt.src = id_;
    pkt.dst = replica;
    pkt.type = static_cast<uint32_t>(BftMsgType::kRequest);
    pkt.payload = encoded;
    net_->Send(std::move(pkt));
  }
}

void DsClient::ArmRetry(uint64_t req_id) {
  auto arm = calls_.find(req_id);
  if (arm == calls_.end()) {
    return;
  }
  // Jittered so clients hit by the same fault don't retransmit in lockstep.
  Duration delay = NextBackoff(options_.reconnect, &arm->second.backoff, &jitter_rng_);
  arm->second.retry_timer = loop_->Schedule(delay, [this, req_id]() {
    auto it = calls_.find(req_id);
    if (!alive_ || it == calls_.end()) {
      return;
    }
    if (options_.reconnect.max_attempts > 0 &&
        it->second.attempts >= options_.reconnect.max_attempts) {
      ReplyCb done = std::move(it->second.done);
      calls_.erase(it);
      if (loop_->obs().enabled()) {
        m_give_ups_->Increment();
      }
      Result<DsReply> result{Status(ErrorCode::kConnectionLoss, "retransmit attempts exhausted")};
      if (observer_.on_reply) {
        observer_.on_reply(req_id, result);
      }
      done(std::move(result));
      return;
    }
    // Blocking rd/in legitimately wait; retransmissions are deduplicated by
    // the replicas, so retrying is harmless and covers lost packets and
    // primary failover.
    ++it->second.attempts;
    if (loop_->obs().enabled()) {
      m_retransmits_->Increment();
    }
    Transmit(req_id);
    ArmRetry(req_id);
  });
}

void DsClient::HandlePacket(Packet&& pkt) {
  if (!alive_ || pkt.type != static_cast<uint32_t>(BftMsgType::kReply)) {
    return;
  }
  auto reply = DecodeMsg<ReplyMsg>(pkt.payload);
  if (!reply.ok()) {
    return;
  }
  auto it = calls_.find(reply->req_id);
  if (it == calls_.end()) {
    return;
  }
  std::string key(reply->payload.begin(), reply->payload.end());
  size_t votes = ++it->second.votes[key];
  if (votes < f_ + 1) {
    return;
  }
  ReplyCb done = std::move(it->second.done);
  uint64_t req_id = reply->req_id;
  loop_->Cancel(it->second.retry_timer);
  calls_.erase(it);
  Result<DsReply> result{Status(ErrorCode::kInternal, "")};
  auto decoded = DecodeMsg<DsReply>(reply->payload);
  if (!decoded.ok()) {
    result = decoded.status();
  } else if (decoded->code != ErrorCode::kOk) {
    result = Status(decoded->code, decoded->value);
  } else {
    result = std::move(*decoded);
  }
  if (observer_.on_reply) {
    observer_.on_reply(req_id, result);
  }
  done(std::move(result));
}

void DsClient::OutLease(DsTuple tuple, ReplyCb done) {
  DsOp op;
  op.type = DsOpType::kOut;
  op.tuple = tuple;
  op.lease = options_.lease;
  // Remember an exact template for renewals.
  DsTemplate templ;
  for (const DsField& f : tuple) {
    templ.push_back(DsTField::Exact(f));
  }
  leases_.push_back(std::move(templ));
  if (renew_timer_ == kInvalidTimer) {
    renew_timer_ = loop_->Schedule(options_.renew_interval, [this]() { RenewTick(); });
  }
  Call(std::move(op), std::move(done));
}

void DsClient::ReleaseLease(const DsTemplate& templ) {
  for (auto it = leases_.begin(); it != leases_.end(); ++it) {
    if (it->size() == templ.size()) {
      bool same = true;
      for (size_t i = 0; i < templ.size(); ++i) {
        same = same && (*it)[i].kind == templ[i].kind && (*it)[i].value == templ[i].value;
      }
      if (same) {
        leases_.erase(it);
        return;
      }
    }
  }
}

void DsClient::EnableAutoRenewAll() {
  if (auto_renew_all_) {
    return;
  }
  auto_renew_all_ = true;
  if (renew_timer_ == kInvalidTimer) {
    renew_timer_ = loop_->Schedule(options_.renew_interval, [this]() { RenewTick(); });
  }
}

void DsClient::RenewTick() {
  renew_timer_ = kInvalidTimer;
  if (!alive_ || (leases_.empty() && !auto_renew_all_)) {
    return;
  }
  if (auto_renew_all_) {
    DsOp op;
    op.type = DsOpType::kRenew;
    op.templ = DsTemplate{DsTField::Any(), DsTField::Any()};
    op.lease = options_.lease;
    Call(op, [](Result<DsReply>) {});
  } else {
    for (const DsTemplate& templ : leases_) {
      DsOp op;
      op.type = DsOpType::kRenew;
      op.templ = templ;
      op.lease = options_.lease;
      Call(op, [](Result<DsReply>) {});
    }
  }
  renew_timer_ = loop_->Schedule(options_.renew_interval, [this]() { RenewTick(); });
}

void DsClient::RegisterExtension(const std::string& name, const std::string& code,
                                 ReplyCb done) {
  Out(ObjectTuple(EmLayout::RegistrationPath(name), code), std::move(done));
}

void DsClient::DeregisterExtension(const std::string& name, ReplyCb done) {
  Inp(ObjectTemplate(EmLayout::RegistrationPath(name)), std::move(done));
}

void DsClient::AcknowledgeExtension(const std::string& name, ReplyCb done) {
  Out(ObjectTuple(kDsEmLayout.AckPath(name, id_), ""), std::move(done));
}

void DsClient::Kill() {
  alive_ = false;
  for (const auto& [req_id, call] : calls_) {
    loop_->Cancel(call.retry_timer);
  }
  calls_.clear();
  leases_.clear();
  loop_->Cancel(renew_timer_);
}

}  // namespace edc
