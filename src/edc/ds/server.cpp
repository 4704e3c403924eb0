#include "edc/ds/server.h"

#include <algorithm>
#include <utility>

#include "edc/common/logging.h"

namespace edc {

// ------------------------------------------------------------ exec context

DsExecContext::DsExecContext(DsServer* server, NodeId client, uint64_t req_id, SimTime ts)
    : server_(server), client_(client), req_id_(req_id), ts_(ts) {}

Status DsExecContext::Out(DsTuple tuple, Duration lease) {
  ++state_ops_;
  if (auto s = server_->CheckAccess(client_, DsOpType::kOut, &tuple, nullptr); !s.ok()) {
    return s;
  }
  events_.push_back(DsEvent{DsEvent::Type::kCreated, tuple});
  server_->space_.Out(std::move(tuple), ts_, client_, lease);
  return Status::Ok();
}

Result<DsTuple> DsExecContext::Rdp(const DsTemplate& templ) {
  ++state_ops_;
  if (auto s = server_->CheckAccess(client_, DsOpType::kRdp, nullptr, &templ); !s.ok()) {
    return s;
  }
  return server_->space_.Rdp(templ);
}

Result<DsTuple> DsExecContext::Inp(const DsTemplate& templ) {
  ++state_ops_;
  if (auto s = server_->CheckAccess(client_, DsOpType::kInp, nullptr, &templ); !s.ok()) {
    return s;
  }
  auto removed = server_->space_.Inp(templ);
  if (removed.ok()) {
    events_.push_back(DsEvent{DsEvent::Type::kDeleted, *removed});
  }
  return removed;
}

std::vector<DsEntry> DsExecContext::RdAll(const DsTemplate& templ) {
  ++state_ops_;
  if (auto s = server_->CheckAccess(client_, DsOpType::kRdAll, nullptr, &templ); !s.ok()) {
    return {};
  }
  return server_->space_.RdAll(templ);
}

Status DsExecContext::Cas(const DsTemplate& templ, DsTuple tuple, Duration lease) {
  ++state_ops_;
  if (auto s = server_->CheckAccess(client_, DsOpType::kCas, &tuple, &templ); !s.ok()) {
    return s;
  }
  DsTuple copy = tuple;
  Status s = server_->space_.Cas(templ, std::move(tuple), ts_, client_, lease);
  if (s.ok()) {
    events_.push_back(DsEvent{DsEvent::Type::kCreated, std::move(copy)});
  }
  return s;
}

Status DsExecContext::Replace(const DsTemplate& templ, DsTuple tuple) {
  ++state_ops_;
  if (auto s = server_->CheckAccess(client_, DsOpType::kReplace, &tuple, &templ); !s.ok()) {
    return s;
  }
  DsTuple copy = tuple;
  DsTuple removed;
  Status s = server_->space_.Replace(templ, std::move(tuple), ts_, client_, &removed);
  if (s.ok()) {
    events_.push_back(DsEvent{DsEvent::Type::kChanged, std::move(copy)});
  }
  return s;
}

size_t DsExecContext::Renew(const DsTemplate& templ, Duration lease) {
  ++state_ops_;
  return server_->space_.Renew(templ, client_, ts_, lease);
}

void DsExecContext::Block(DsTemplate templ, bool consume) {
  DsServer::Waiter waiter;
  waiter.templ = std::move(templ);
  waiter.client = client_;
  waiter.req_id = req_id_;
  waiter.consume = consume;
  waiter.order = server_->next_waiter_order_++;
  server_->waiters_.push_back(std::move(waiter));
}

Status DsExecContext::PrivilegedOut(DsTuple tuple) {
  events_.push_back(DsEvent{DsEvent::Type::kCreated, tuple});
  server_->space_.Out(std::move(tuple), ts_, client_, 0);
  return Status::Ok();
}

Result<DsTuple> DsExecContext::PrivilegedInp(const DsTemplate& templ) {
  auto removed = server_->space_.Inp(templ);
  if (removed.ok()) {
    events_.push_back(DsEvent{DsEvent::Type::kDeleted, *removed});
  }
  return removed;
}

// ------------------------------------------------------------------ server

DsServer::DsServer(EventLoop* loop, Network* net, NodeId id, std::vector<NodeId> members,
                   const CostModel& costs, DsServerOptions options)
    : loop_(loop),
      net_(net),
      id_(id),
      costs_(costs),
      options_(std::move(options)),
      cpu_(loop, kReplicaCores, id) {
  bft_ = std::make_unique<BftReplica>(loop, net, &cpu_, costs, id, std::move(members), this);
  space_.SetRemovalListener([this](const DsEntry& e) {
    if (hooks_ != nullptr) {
      hooks_->OnTupleRemoved(e.seq);
    }
  });
}

void DsServer::Start() { Boot(/*rejoin=*/false); }

void DsServer::Crash() {
  running_ = false;
  bft_->Crash();
  net_->SetNodeUp(id_, false);
}

void DsServer::Restart() {
  net_->SetNodeUp(id_, true);
  Boot(/*rejoin=*/true);
}

// Boot and reboot alike: the replicated state starts empty and is rebuilt by
// state transfer (bft_->Start()/Restart() begins the host's next
// incarnation). DS replicas keep no durable log; next_waiter_order_ is left
// as it was until a transferred snapshot overwrites it.
void DsServer::Boot(bool rejoin) {
  running_ = true;
  space_.Load({});
  waiters_.clear();
  map_version_ = 0;  // rebuilt by state transfer
  if (hooks_ != nullptr) {
    hooks_->OnStateReloaded();
  }
  if (rejoin) {
    bft_->Restart();
  } else {
    bft_->Start();
  }
}

void DsServer::HandlePacket(Packet&& pkt) {
  if (!running_) {
    return;
  }
  if (IsBftPacket(pkt.type)) {
    bft_->HandlePacket(std::move(pkt));
  }
}

std::vector<uint8_t> DsServer::TakeSnapshot() {
  Encoder enc;
  enc.Bytes(space_.Serialize());
  enc.U64(next_waiter_order_);
  enc.List(waiters_);
  enc.Varint(map_version_);
  return enc.Release();
}

Status DsServer::RestoreSnapshot(const std::vector<uint8_t>& snapshot) {
  Decoder dec(snapshot);
  std::span<const uint8_t> image;
  uint64_t order = 0;
  std::vector<Waiter> waiters;
  uint64_t map_version = 0;
  dec.Bytes(image);
  dec.U64(order);
  dec.List(waiters);
  dec.Varint(map_version);
  if (!dec.ok()) {
    return dec.status();
  }
  if (auto s = space_.Load(image); !s.ok()) {
    return s;
  }
  next_waiter_order_ = order;
  waiters_ = std::move(waiters);
  map_version_ = map_version;
  if (hooks_ != nullptr) {
    hooks_->OnStateReloaded();  // rebuild the extension registry from /em tuples
  }
  return Status::Ok();
}

Status DsServer::CheckAccess(NodeId client, DsOpType type, const DsTuple* tuple,
                             const DsTemplate* templ) const {
  if (options_.access.check) {
    return options_.access.check(client, type, tuple, templ);
  }
  return CheckEmAccess(type, tuple, templ);
}

Status DsServer::CheckPolicy(const DsOp& op) const {
  if (options_.policy.check) {
    return options_.policy.check(op, space_.size());
  }
  return Status::Ok();
}

void DsServer::Reply(NodeId client, uint64_t req_id, const DsReply& reply) {
  bft_->SendReply(client, req_id, EncodeMsg(reply));
}

BftExecOutcome DsServer::Execute(uint64_t seq, SimTime ts, const BftRequest& request) {
  if (exec_observer_) {
    exec_observer_(seq, ts, request);
  }
  Duration extra_cpu = costs_.bft_execute_cpu;

  DsExecContext ctx(this, request.client, request.req_id, ts);

  // Deterministic lease expiry against the ordered timestamp.
  for (DsTuple& expired : space_.Expire(ts)) {
    ctx.events().push_back(DsEvent{DsEvent::Type::kDeleted, std::move(expired)});
  }

  auto op = DecodeMsg<DsOp>(request.payload);
  if (!op.ok()) {
    DsReply reply;
    reply.code = ErrorCode::kDecodeError;
    Reply(request.client, request.req_id, reply);
    ProcessEvents(&ctx, &extra_cpu);
    return BftExecOutcome{extra_cpu};
  }

  // Map-version protocol (docs/sharding.md). Both branches are part of the
  // replicated state machine: the version only changes at an ordered
  // kSetMapVersion and the staleness check reads that replicated version, so
  // all correct replicas accept/reject the same requests and vote
  // identically. The current version rides back in `value` either way.
  if (op->type == DsOpType::kSetMapVersion) {
    if (op->map_version > map_version_) {
      map_version_ = op->map_version;
    }
    DsReply reply;
    reply.value = std::to_string(map_version_);
    Reply(request.client, request.req_id, reply);
    ProcessEvents(&ctx, &extra_cpu);
    return BftExecOutcome{extra_cpu};
  }
  if (map_version_ > 0 && op->map_version < map_version_) {
    DsReply reply;
    reply.code = ErrorCode::kShardMapStale;
    reply.value = std::to_string(map_version_);
    Reply(request.client, request.req_id, reply);
    ProcessEvents(&ctx, &extra_cpu);
    return BftExecOutcome{extra_cpu};
  }

  DsExecOutcome outcome;
  if (hooks_ != nullptr) {
    outcome = hooks_->HandleOperation(&ctx, request.client, *op);
    extra_cpu += outcome.cpu_cost;
  }
  if (!outcome.handled) {
    // Policy enforcement sits above the extension layer (Fig. 4).
    Status policy = CheckPolicy(*op);
    if (!policy.ok()) {
      outcome.handled = true;
      outcome.status = policy;
    } else {
      outcome = ExecuteNormal(&ctx, *op);
    }
  }

  if (!outcome.status.ok()) {
    DsReply reply;
    reply.code = outcome.status.code();
    reply.value = outcome.status.message();
    Reply(request.client, request.req_id, reply);
  } else if (!outcome.deferred) {
    DsReply reply;
    reply.value = outcome.result;
    Reply(request.client, request.req_id, reply);
  }

  ProcessEvents(&ctx, &extra_cpu);
  return BftExecOutcome{extra_cpu};
}

DsExecOutcome DsServer::ExecuteNormal(DsExecContext* ctx, const DsOp& op) {
  DsExecOutcome outcome;
  outcome.handled = true;
  outcome.has_result = true;
  switch (op.type) {
    case DsOpType::kOut:
      outcome.status = ctx->Out(op.tuple, op.lease);
      break;
    case DsOpType::kRdp: {
      auto t = ctx->Rdp(op.templ);
      if (!t.ok()) {
        outcome.status = t.status();  // kNoNode = client-visible miss
        break;
      }
      DsReply reply;
      reply.tuples.push_back(*t);
      Reply(ctx->client(), ctx->req_id(), reply);
      outcome.deferred = true;  // reply already sent, with payload
      break;
    }
    case DsOpType::kInp: {
      auto t = ctx->Inp(op.templ);
      if (t.ok()) {
        DsReply reply;
        reply.tuples.push_back(*t);
        Reply(ctx->client(), ctx->req_id(), reply);
        outcome.deferred = true;
        outcome.status = Status::Ok();
      } else {
        outcome.status = t.status();
      }
      break;
    }
    case DsOpType::kRd:
    case DsOpType::kIn: {
      bool consume = op.type == DsOpType::kIn;
      // ACL check up front so a denied client cannot park waiters.
      if (auto s = CheckAccess(ctx->client(), op.type, nullptr, &op.templ); !s.ok()) {
        outcome.status = s;
        break;
      }
      auto existing = space_.Rdp(op.templ);
      if (existing.ok() &&
          (hooks_ == nullptr ||
           hooks_->AllowUnblock(ctx->client(), op.templ, *existing))) {
        DsTuple t = *existing;
        if (consume) {
          auto removed = ctx->Inp(op.templ);
          if (removed.ok()) {
            t = *removed;
          }
        }
        DsReply reply;
        reply.tuples.push_back(t);
        Reply(ctx->client(), ctx->req_id(), reply);
      } else {
        ctx->Block(op.templ, consume);
      }
      outcome.deferred = true;
      break;
    }
    case DsOpType::kCas:
      outcome.status = ctx->Cas(op.templ, op.tuple, op.lease);
      break;
    case DsOpType::kReplace:
      outcome.status = ctx->Replace(op.templ, op.tuple);
      break;
    case DsOpType::kRdAll: {
      auto entries = ctx->RdAll(op.templ);
      DsReply reply;
      for (DsEntry& e : entries) {
        reply.tuples.push_back(std::move(e.tuple));
      }
      Reply(ctx->client(), ctx->req_id(), reply);
      outcome.deferred = true;
      break;
    }
    case DsOpType::kRenew: {
      size_t n = ctx->Renew(op.templ, op.lease);
      outcome.result = std::to_string(n);
      break;
    }
    case DsOpType::kSetMapVersion:
      // Handled before the extension/policy layers in Execute().
      outcome.status = Status(ErrorCode::kInternal, "unreachable");
      break;
  }
  return outcome;
}

void DsServer::ProcessEvents(DsExecContext* ctx, Duration* extra_cpu) {
  for (size_t round = 0; round < kMaxEventRounds; ++round) {
    if (ctx->events().empty()) {
      return;
    }
    std::vector<DsEvent> events = std::move(ctx->events());
    ctx->events().clear();

    // Unblock waiters on created tuples.
    for (const DsEvent& event : events) {
      if (event.type != DsEvent::Type::kCreated) {
        continue;
      }
      // rd waiters: all whose template matches (and the tuple still exists).
      auto it = waiters_.begin();
      while (it != waiters_.end()) {
        if (it->consume || !TupleMatches(it->templ, event.tuple) ||
            !space_.HasMatch(it->templ)) {
          ++it;
          continue;
        }
        if (hooks_ != nullptr && !hooks_->AllowUnblock(it->client, it->templ, event.tuple)) {
          ++it;
          continue;
        }
        DsReply reply;
        reply.tuples.push_back(event.tuple);
        Reply(it->client, it->req_id, reply);
        *extra_cpu += costs_.bft_msg_cpu;
        it = waiters_.erase(it);
      }
      // in waiter: the oldest matching one consumes the tuple.
      DsServer::Waiter* best = nullptr;
      for (Waiter& w : waiters_) {
        if (w.consume && TupleMatches(w.templ, event.tuple) &&
            (best == nullptr || w.order < best->order)) {
          best = &w;
        }
      }
      if (best != nullptr && space_.HasMatch(best->templ)) {
        if (hooks_ == nullptr || hooks_->AllowUnblock(best->client, best->templ, event.tuple)) {
          auto removed = space_.Inp(best->templ);
          if (removed.ok()) {
            ctx->events().push_back(DsEvent{DsEvent::Type::kDeleted, *removed});
            DsReply reply;
            reply.tuples.push_back(*removed);
            Reply(best->client, best->req_id, reply);
            uint64_t order = best->order;
            waiters_.erase(std::remove_if(waiters_.begin(), waiters_.end(),
                                          [order](const Waiter& w) {
                                            return w.order == order;
                                          }),
                           waiters_.end());
          }
        }
      }
    }

    // Event extensions may add further events through ctx.
    if (hooks_ != nullptr) {
      hooks_->DispatchEvents(ctx, events);
    }
  }
  if (!ctx->events().empty()) {
    EDC_LOG(kWarn) << "ds server " << id_ << ": event cascade cap reached, dropping "
                   << ctx->events().size() << " events";
    ctx->events().clear();
  }
}

}  // namespace edc
