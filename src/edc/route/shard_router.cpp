#include "edc/route/shard_router.h"

#include <memory>
#include <utility>

namespace edc {

// ------------------------------------------------------------- ZkShardRouter

ZkShardRouter::ZkShardRouter(EventLoop* loop, Network* net, NodeId base_id, ShardMap map,
                             ShardMapSource source, ZkClientOptions options)
    : ShardRouterCore(loop, net, base_id, std::move(map), std::move(source),
                      std::move(options)) {}

void ZkShardRouter::OnNewSub(uint32_t shard_id, ZkClient* client) {
  if (watch_handler_) {
    client->SetWatchHandler(watch_handler_);
  }
  if (session_cb_) {
    client->SetSessionEventHandler(session_cb_);
  }
  client->Connect(
      [this, shard_id, client](Status) { Flush(shard_id, client->connected()); });
}

void ZkShardRouter::Connect(VoidCb done) {
  WhenReady(0, [done](ZkClient* c) {
    if (done) {
      done(c->connected() ? Status() : Status(ErrorCode::kConnectionLoss, "connect failed"));
    }
  });
}

void ZkShardRouter::Close(VoidCb done) {
  auto remaining = std::make_shared<size_t>(subs_.size());
  if (*remaining == 0) {
    if (done) {
      done(Status());
    }
    return;
  }
  ForEachSub([remaining, done](ZkClient* c) {
    c->Close([remaining, done](Status) {
      if (--*remaining == 0 && done) {
        done(Status());
      }
    });
  });
}

void ZkShardRouter::Submit(ZkOp op, ReplyCb done) {
  auto reject = [&done](const char* why) {
    ZkReplyMsg reply;
    reply.code = ErrorCode::kInvalidArgument;
    reply.value = why;
    if (done) {
      done(reply);
    }
  };
  CoordKey key = CoordKey::ForPath(op.path);
  if (op.type == ZkOpType::kMulti) {
    if (op.ops.empty()) {
      reject("empty multi");
      return;
    }
    key = CoordKey::ForPath(op.ops[0].path);
    size_t shard = map_.IndexFor(key);
    for (const ZkOp& sub : op.ops) {
      if (map_.IndexFor(CoordKey::ForPath(sub.path)) != shard) {
        reject("multi spans shards; use the TwoPhaseMulti recipe");
        return;
      }
    }
  }
  auto shared = std::make_shared<const ZkOp>(std::move(op));
  Issue(
      key, [shared](ZkClient* c, ReplyCb cb) { c->Submit(*shared, std::move(cb)); },
      std::move(done));
}

void ZkShardRouter::Reconfig(size_t entry_idx, const std::string& spec, VoidCb done) {
  if (entry_idx >= map_.size()) {
    if (done) {
      done(Status(ErrorCode::kInvalidArgument, "no such shard"));
    }
    return;
  }
  WhenReady(entry_idx, [spec, done = std::move(done)](ZkClient* c) {
    c->Reconfig(spec, done);
  });
}

void ZkShardRouter::RegisterExtension(const std::string& name, const std::string& code,
                                      VoidCb done) {
  FanOut<Status>(
      [name, code](ZkClient* c, VoidCb cb) {
        c->RegisterExtension(name, code, std::move(cb));
      },
      std::move(done));
}

void ZkShardRouter::DeregisterExtension(const std::string& name, VoidCb done) {
  FanOut<Status>(
      [name](ZkClient* c, VoidCb cb) { c->DeregisterExtension(name, std::move(cb)); },
      std::move(done));
}

void ZkShardRouter::AcknowledgeExtension(const std::string& name, VoidCb done) {
  FanOut<Status>(
      [name](ZkClient* c, VoidCb cb) { c->AcknowledgeExtension(name, std::move(cb)); },
      std::move(done));
}

void ZkShardRouter::SetWatchHandler(WatchCb handler) {
  watch_handler_ = std::move(handler);
  ForEachSub([this](ZkClient* c) { c->SetWatchHandler(watch_handler_); });
}

void ZkShardRouter::SetSessionEventHandler(SessionEventCb handler) {
  session_cb_ = std::move(handler);
  ForEachSub([this](ZkClient* c) { c->SetSessionEventHandler(session_cb_); });
}

bool ZkShardRouter::connected() const {
  ZkClient* primary = shard_client(map_.entry(0).shard_id);
  return primary != nullptr && primary->connected();
}

uint64_t ZkShardRouter::session() const {
  ZkClient* primary = shard_client(map_.entry(0).shard_id);
  return primary == nullptr ? 0 : primary->session();
}

// ------------------------------------------------------------- DsShardRouter

DsShardRouter::DsShardRouter(EventLoop* loop, Network* net, NodeId base_id, ShardMap map,
                             ShardMapSource source, DsClientOptions options)
    : ShardRouterCore(loop, net, base_id, std::move(map), std::move(source),
                      std::move(options)) {}

void DsShardRouter::OnNewSub(uint32_t, DsClient* client) {
  if (auto_renew_all_) {
    client->EnableAutoRenewAll();
  }
}

CoordKey DsShardRouter::KeyOf(const DsTuple& tuple) {
  if (tuple.empty()) {
    return CoordKey::Unroutable();
  }
  return CoordKey::ForField(FieldToString(tuple[0]));
}

CoordKey DsShardRouter::KeyOf(const DsTemplate& templ) {
  if (templ.empty() || templ[0].kind == DsTField::Kind::kAny) {
    return CoordKey::Unroutable();
  }
  // kPrefix first fields are path prefixes; ForField reduces paths to their
  // subtree key, so a prefix template colocates with every tuple it matches.
  return CoordKey::ForField(FieldToString(templ[0].value));
}

void DsShardRouter::Route(const CoordKey& key, std::function<void(DsClient*, ReplyCb)> issue,
                          ReplyCb done) {
  if (!key.routable()) {
    if (done) {
      done(Status(ErrorCode::kInvalidArgument,
                  "wildcard first field cannot be routed to one shard; "
                  "pin the first field (RdAll scatter-gathers)"));
    }
    return;
  }
  Issue(key, std::move(issue), std::move(done));
}

void DsShardRouter::Call(DsOp op, ReplyCb done) {
  CoordKey key = op.type == DsOpType::kOut ? KeyOf(op.tuple) : KeyOf(op.templ);
  if (op.type == DsOpType::kCas || op.type == DsOpType::kReplace) {
    CoordKey tuple_key = KeyOf(op.tuple);
    if (key.routable() && tuple_key.routable() &&
        map_.IndexFor(key) != map_.IndexFor(tuple_key)) {
      if (done) {
        done(Status(ErrorCode::kInvalidArgument,
                    "template and tuple route to different shards"));
      }
      return;
    }
  }
  auto shared = std::make_shared<const DsOp>(std::move(op));
  if (!key.routable() && shared->type == DsOpType::kRdAll) {
    Gather(std::move(shared), std::move(done));
    return;
  }
  Route(
      key, [shared](DsClient* c, ReplyCb cb) { c->Call(*shared, std::move(cb)); },
      std::move(done));
}

void DsShardRouter::OutLease(DsTuple tuple, ReplyCb done) {
  CoordKey key = KeyOf(tuple);
  auto shared = std::make_shared<DsTuple>(std::move(tuple));
  Route(
      key, [shared](DsClient* c, ReplyCb cb) { c->OutLease(*shared, std::move(cb)); },
      std::move(done));
}

void DsShardRouter::ReleaseLease(const DsTemplate& templ) {
  CoordKey key = KeyOf(templ);
  if (key.routable()) {
    EnsureSub(map_.IndexFor(key)).client->ReleaseLease(templ);
    return;
  }
  // Wildcard release: leases only live on shards this router has touched.
  ForEachSub([&templ](DsClient* c) { c->ReleaseLease(templ); });
}

void DsShardRouter::Gather(std::shared_ptr<const DsOp> op, ReplyCb done) {
  // Merged tuples come back in shard-index order so same-seed runs stay
  // byte-identical.
  size_t n = map_.size();
  auto legs = std::make_shared<std::vector<Result<DsReply>>>(n, Result<DsReply>(DsReply{}));
  auto remaining = std::make_shared<size_t>(n);
  for (size_t i = 0; i < n; ++i) {
    EnsureSub(i).client->Call(*op, [i, legs, remaining, done](Result<DsReply> r) {
      (*legs)[i] = std::move(r);
      if (--*remaining != 0) {
        return;
      }
      DsReply merged;
      for (Result<DsReply>& leg : *legs) {
        if (!leg.ok()) {
          if (done) {
            done(std::move(leg));
          }
          return;
        }
        if (leg->code != ErrorCode::kOk && merged.code == ErrorCode::kOk) {
          merged.code = leg->code;
          merged.value = leg->value;
        }
        for (DsTuple& t : leg->tuples) {
          merged.tuples.push_back(std::move(t));
        }
      }
      if (done) {
        done(std::move(merged));
      }
    });
  }
}

void DsShardRouter::RegisterExtension(const std::string& name, const std::string& code,
                                      ReplyCb done) {
  FanOut<Result<DsReply>>(
      [name, code](DsClient* c, ReplyCb cb) {
        c->RegisterExtension(name, code, std::move(cb));
      },
      std::move(done));
}

void DsShardRouter::DeregisterExtension(const std::string& name, ReplyCb done) {
  FanOut<Result<DsReply>>(
      [name](DsClient* c, ReplyCb cb) { c->DeregisterExtension(name, std::move(cb)); },
      std::move(done));
}

void DsShardRouter::AcknowledgeExtension(const std::string& name, ReplyCb done) {
  FanOut<Result<DsReply>>(
      [name](DsClient* c, ReplyCb cb) { c->AcknowledgeExtension(name, std::move(cb)); },
      std::move(done));
}

void DsShardRouter::EnableAutoRenewAll() {
  auto_renew_all_ = true;
  ForEachSub([](DsClient* c) { c->EnableAutoRenewAll(); });
}

void DsShardRouter::Kill() {
  ForEachSub([](DsClient* c) { c->Kill(); });
}

}  // namespace edc
