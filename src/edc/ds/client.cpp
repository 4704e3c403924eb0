#include "edc/ds/client.h"

#include <utility>

namespace edc {

DsClient::DsClient(EventLoop* loop, Network* net, NodeId id, ShardView view,
                   DsClientOptions options)
    : loop_(loop),
      net_(net),
      id_(id),
      replicas_(std::move(view.ensemble)),
      shard_id_(view.shard_id),
      map_version_(view.map_version),
      options_(options),
      jitter_rng_(JitterSeedFor(options.reconnect, id)) {
  net_->Register(id_, this);
}

void DsClient::SetObs(Obs* obs) {
  obs_ = obs;
  if (obs_ != nullptr) {
    m_retransmits_ = obs_->metrics.GetCounter("client.ds.retransmits");
    m_give_ups_ = obs_->metrics.GetCounter("client.ds.give_ups");
  } else {
    m_retransmits_ = m_give_ups_ = nullptr;
  }
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
  req.payload = it->second.op.Encode();
  std::vector<uint8_t> encoded = EncodeBftRequest(req);
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
  Duration delay = arm->second.backoff;
  // Seeded jitter: shorten each retransmit delay by up to backoff_jitter of
  // itself so clients hit by the same fault don't retransmit in lockstep.
  if (options_.reconnect.backoff_jitter > 0.0 && delay > 0) {
    auto span = static_cast<uint64_t>(options_.reconnect.backoff_jitter *
                                      static_cast<double>(delay));
    if (span > 0) {
      delay -= static_cast<Duration>(jitter_rng_.UniformU64(span + 1));
    }
  }
  arm->second.retry_timer = loop_->Schedule(delay, [this, req_id]() {
    auto it = calls_.find(req_id);
    if (!alive_ || it == calls_.end()) {
      return;
    }
    if (options_.reconnect.max_attempts > 0 &&
        it->second.attempts >= options_.reconnect.max_attempts) {
      ReplyCb done = std::move(it->second.done);
      calls_.erase(it);
      if (m_give_ups_ != nullptr) {
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
    it->second.backoff = std::min(it->second.backoff * 2, options_.reconnect.max_backoff);
    if (m_retransmits_ != nullptr) {
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
  auto reply = DecodeReplyMsg(pkt.payload);
  if (!reply.ok()) {
    return;
  }
  auto it = calls_.find(reply->req_id);
  if (it == calls_.end()) {
    return;
  }
  std::string key(reply->payload.begin(), reply->payload.end());
  int votes = ++it->second.votes[key];
  if (votes < options_.f + 1) {
    return;
  }
  ReplyCb done = std::move(it->second.done);
  uint64_t req_id = reply->req_id;
  loop_->Cancel(it->second.retry_timer);
  calls_.erase(it);
  Result<DsReply> result{Status(ErrorCode::kInternal, "")};
  auto decoded = DsReply::Decode(reply->payload);
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

void DsClient::Out(DsTuple tuple, ReplyCb done) {
  DsOp op;
  op.type = DsOpType::kOut;
  op.tuple = std::move(tuple);
  Call(std::move(op), std::move(done));
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

void DsClient::Rdp(DsTemplate templ, ReplyCb done) {
  DsOp op;
  op.type = DsOpType::kRdp;
  op.templ = std::move(templ);
  Call(std::move(op), std::move(done));
}

void DsClient::Inp(DsTemplate templ, ReplyCb done) {
  DsOp op;
  op.type = DsOpType::kInp;
  op.templ = std::move(templ);
  Call(std::move(op), std::move(done));
}

void DsClient::Rd(DsTemplate templ, ReplyCb done) {
  DsOp op;
  op.type = DsOpType::kRd;
  op.templ = std::move(templ);
  Call(std::move(op), std::move(done));
}

void DsClient::In(DsTemplate templ, ReplyCb done) {
  DsOp op;
  op.type = DsOpType::kIn;
  op.templ = std::move(templ);
  Call(std::move(op), std::move(done));
}

void DsClient::Cas(DsTemplate templ, DsTuple tuple, ReplyCb done) {
  DsOp op;
  op.type = DsOpType::kCas;
  op.templ = std::move(templ);
  op.tuple = std::move(tuple);
  Call(std::move(op), std::move(done));
}

void DsClient::Replace(DsTemplate templ, DsTuple tuple, ReplyCb done) {
  DsOp op;
  op.type = DsOpType::kReplace;
  op.templ = std::move(templ);
  op.tuple = std::move(tuple);
  Call(std::move(op), std::move(done));
}

void DsClient::RdAll(DsTemplate templ, ReplyCb done) {
  DsOp op;
  op.type = DsOpType::kRdAll;
  op.templ = std::move(templ);
  Call(std::move(op), std::move(done));
}

void DsClient::CallExtension(const std::string& trigger_path, const std::string& args,
                             ExtensionCb done) {
  (void)args;  // DepSpace extensions take their arguments from the tuple space
  Rd(ObjectTemplate(trigger_path), [done = std::move(done)](Result<DsReply> r) {
    if (!r.ok()) {
      done(r.status());
      return;
    }
    ExtensionResult result;
    result.intercepted = true;  // rd returned: extension result or the object
    result.exists = true;
    if (!r->tuples.empty() && r->tuples[0].size() > 1) {
      result.value = FieldToString(r->tuples[0][1]);
    } else {
      result.value = r->value;
    }
    done(result);
  });
}

void DsClient::RegisterExtension(const std::string& name, const std::string& code,
                                 ReplyCb done) {
  Out(ObjectTuple("/em/" + name, code), std::move(done));
}

void DsClient::DeregisterExtension(const std::string& name, ReplyCb done) {
  Inp(ObjectTemplate("/em/" + name), std::move(done));
}

void DsClient::AcknowledgeExtension(const std::string& name, ReplyCb done) {
  Out(ObjectTuple("/em/" + name + "/ack/" + std::to_string(id_), ""), std::move(done));
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
