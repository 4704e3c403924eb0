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

void ZkShardRouter::Create(const std::string& path, const std::string& data,
                           bool ephemeral, bool sequential, StringCb done) {
  Issue<Result<std::string>>(
      CoordKey::ForPath(path),
      [path, data, ephemeral, sequential](ZkClient* c, StringCb cb) {
        c->Create(path, data, ephemeral, sequential, std::move(cb));
      },
      std::move(done));
}

void ZkShardRouter::Delete(const std::string& path, int32_t version, VoidCb done) {
  Issue<Status>(
      CoordKey::ForPath(path),
      [path, version](ZkClient* c, VoidCb cb) { c->Delete(path, version, std::move(cb)); },
      std::move(done));
}

void ZkShardRouter::Exists(const std::string& path, bool watch, ExistsCb done) {
  Issue<Result<ExistsResult>>(
      CoordKey::ForPath(path),
      [path, watch](ZkClient* c, ExistsCb cb) { c->Exists(path, watch, std::move(cb)); },
      std::move(done));
}

void ZkShardRouter::GetData(const std::string& path, bool watch, NodeCb done) {
  Issue<Result<NodeResult>>(
      CoordKey::ForPath(path),
      [path, watch](ZkClient* c, NodeCb cb) { c->GetData(path, watch, std::move(cb)); },
      std::move(done));
}

void ZkShardRouter::SetData(const std::string& path, const std::string& data,
                            int32_t version, VoidCb done) {
  Issue<Status>(
      CoordKey::ForPath(path),
      [path, data, version](ZkClient* c, VoidCb cb) {
        c->SetData(path, data, version, std::move(cb));
      },
      std::move(done));
}

void ZkShardRouter::GetChildren(const std::string& path, bool watch, ChildrenCb done) {
  Issue<Result<std::vector<std::string>>>(
      CoordKey::ForPath(path),
      [path, watch](ZkClient* c, ChildrenCb cb) {
        c->GetChildren(path, watch, std::move(cb));
      },
      std::move(done));
}

void ZkShardRouter::Multi(std::vector<ZkOp> ops, VoidCb done) {
  if (ops.empty()) {
    if (done) {
      done(Status(ErrorCode::kInvalidArgument, "empty multi"));
    }
    return;
  }
  CoordKey key = CoordKey::ForPath(ops[0].path);
  size_t shard = map_.IndexFor(key);
  for (const ZkOp& op : ops) {
    if (map_.IndexFor(CoordKey::ForPath(op.path)) != shard) {
      if (done) {
        done(Status(ErrorCode::kInvalidArgument,
                    "multi spans shards; use the TwoPhaseMulti recipe"));
      }
      return;
    }
  }
  auto shared_ops = std::make_shared<std::vector<ZkOp>>(std::move(ops));
  Issue<Status>(
      key,
      [shared_ops](ZkClient* c, VoidCb cb) { c->Multi(*shared_ops, std::move(cb)); },
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

void ZkShardRouter::CallExtension(const std::string& trigger_path, const std::string& args,
                                  ExtensionCb done) {
  Issue<Result<ExtensionResult>>(
      CoordKey::ForPath(trigger_path),
      [trigger_path, args](ZkClient* c, ExtensionCb cb) {
        c->CallExtension(trigger_path, args, std::move(cb));
      },
      std::move(done));
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

void DsShardRouter::Route(const CoordKey& key, const char* op,
                          std::function<void(DsClient*, ReplyCb)> issue, ReplyCb done) {
  if (!key.routable()) {
    if (done) {
      done(Status(ErrorCode::kInvalidArgument,
                  std::string(op) +
                      ": wildcard first field cannot be routed to one shard; "
                      "pin the first field (RdAll scatter-gathers)"));
    }
    return;
  }
  Issue<Result<DsReply>>(key, std::move(issue), std::move(done));
}

void DsShardRouter::Out(DsTuple tuple, ReplyCb done) {
  CoordKey key = KeyOf(tuple);
  auto shared = std::make_shared<DsTuple>(std::move(tuple));
  Route(key, "out", [shared](DsClient* c, ReplyCb cb) { c->Out(*shared, std::move(cb)); },
        std::move(done));
}

void DsShardRouter::OutLease(DsTuple tuple, ReplyCb done) {
  CoordKey key = KeyOf(tuple);
  auto shared = std::make_shared<DsTuple>(std::move(tuple));
  Route(key, "outLease",
        [shared](DsClient* c, ReplyCb cb) { c->OutLease(*shared, std::move(cb)); },
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

void DsShardRouter::Rdp(DsTemplate templ, ReplyCb done) {
  CoordKey key = KeyOf(templ);
  auto shared = std::make_shared<DsTemplate>(std::move(templ));
  Route(key, "rdp", [shared](DsClient* c, ReplyCb cb) { c->Rdp(*shared, std::move(cb)); },
        std::move(done));
}

void DsShardRouter::Inp(DsTemplate templ, ReplyCb done) {
  CoordKey key = KeyOf(templ);
  auto shared = std::make_shared<DsTemplate>(std::move(templ));
  Route(key, "inp", [shared](DsClient* c, ReplyCb cb) { c->Inp(*shared, std::move(cb)); },
        std::move(done));
}

void DsShardRouter::Rd(DsTemplate templ, ReplyCb done) {
  CoordKey key = KeyOf(templ);
  auto shared = std::make_shared<DsTemplate>(std::move(templ));
  Route(key, "rd", [shared](DsClient* c, ReplyCb cb) { c->Rd(*shared, std::move(cb)); },
        std::move(done));
}

void DsShardRouter::In(DsTemplate templ, ReplyCb done) {
  CoordKey key = KeyOf(templ);
  auto shared = std::make_shared<DsTemplate>(std::move(templ));
  Route(key, "in", [shared](DsClient* c, ReplyCb cb) { c->In(*shared, std::move(cb)); },
        std::move(done));
}

void DsShardRouter::RoutePair(const CoordKey& templ_key, const CoordKey& tuple_key,
                              const char* op, std::function<void(DsClient*, ReplyCb)> issue,
                              ReplyCb done) {
  if (templ_key.routable() && tuple_key.routable() &&
      map_.IndexFor(templ_key) != map_.IndexFor(tuple_key)) {
    if (done) {
      done(Status(ErrorCode::kInvalidArgument,
                  std::string(op) + " template and tuple route to different shards"));
    }
    return;
  }
  Route(templ_key.routable() ? templ_key : tuple_key, op, std::move(issue), std::move(done));
}

void DsShardRouter::Cas(DsTemplate templ, DsTuple tuple, ReplyCb done) {
  auto st = std::make_shared<DsTemplate>(std::move(templ));
  auto sv = std::make_shared<DsTuple>(std::move(tuple));
  RoutePair(KeyOf(*st), KeyOf(*sv), "cas",
            [st, sv](DsClient* c, ReplyCb cb) { c->Cas(*st, *sv, std::move(cb)); },
            std::move(done));
}

void DsShardRouter::Replace(DsTemplate templ, DsTuple tuple, ReplyCb done) {
  auto st = std::make_shared<DsTemplate>(std::move(templ));
  auto sv = std::make_shared<DsTuple>(std::move(tuple));
  RoutePair(KeyOf(*st), KeyOf(*sv), "replace",
            [st, sv](DsClient* c, ReplyCb cb) { c->Replace(*st, *sv, std::move(cb)); },
            std::move(done));
}

void DsShardRouter::RdAll(DsTemplate templ, ReplyCb done) {
  CoordKey key = KeyOf(templ);
  auto shared = std::make_shared<DsTemplate>(std::move(templ));
  if (key.routable()) {
    Issue<Result<DsReply>>(
        key, [shared](DsClient* c, ReplyCb cb) { c->RdAll(*shared, std::move(cb)); },
        std::move(done));
    return;
  }
  // Scatter-gather over every shard; merged tuples come back in shard-index
  // order so same-seed runs stay byte-identical.
  size_t n = map_.size();
  auto legs = std::make_shared<std::vector<Result<DsReply>>>(n, Result<DsReply>(DsReply{}));
  auto remaining = std::make_shared<size_t>(n);
  for (size_t i = 0; i < n; ++i) {
    EnsureSub(i).client->RdAll(*shared, [i, legs, remaining, done](Result<DsReply> r) {
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

void DsShardRouter::CallExtension(const std::string& trigger_path, const std::string& args,
                                  ExtensionCb done) {
  Issue<Result<ExtensionResult>>(
      CoordKey::ForPath(trigger_path),
      [trigger_path, args](DsClient* c, ExtensionCb cb) {
        c->CallExtension(trigger_path, args, std::move(cb));
      },
      std::move(done));
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
