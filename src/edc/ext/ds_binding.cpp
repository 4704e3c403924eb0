#include "edc/ext/ds_binding.h"

#include <algorithm>
#include <utility>

#include "edc/common/logging.h"
#include "edc/common/strings.h"

namespace edc {

namespace {

constexpr Duration kMonitorLease = Seconds(2);

std::string TuplePath(const DsTuple& tuple) {
  if (!tuple.empty() && std::holds_alternative<std::string>(tuple[0])) {
    return std::get<std::string>(tuple[0]);
  }
  return "";
}

std::string TupleData(const DsTuple& tuple) {
  return tuple.size() > 1 ? FieldToString(tuple[1]) : "";
}

Value EntryToValue(const DsEntry& entry) {
  return Value::Map({{"path", Value(TuplePath(entry.tuple))},
                     {"data", Value(TupleData(entry.tuple))},
                     {"ctime", Value(entry.ctime)},
                     {"owner", Value(static_cast<int64_t>(entry.owner))}});
}

// The EDS state proxy over <path, data> object tuples: every access goes
// through the DsExecContext, so the access-control and policy layers above
// the extension manager still apply (Fig. 4). Reads visit the matching
// tuples in place and stop as soon as the answer is known; objects come
// from the manager's view cache.
class DsStateProxy : public StateProxy {
 public:
  DsStateProxy(DsExecContext* ctx, ObjectViews* views, size_t max_items)
      : ctx_(ctx), views_(views), max_items_(max_items) {}

  uint64_t client() const override { return ctx_->client(); }
  size_t state_ops() const override { return ctx_->state_ops(); }
  Value Read(const std::string& path) override {
    Value obj;
    ctx_->ForEachMatch(ObjectTemplate(path), [this, &obj](const DsEntry& e) {
      obj = views_->Get(e);
      return false;
    });
    return obj;
  }
  bool Exists(const std::string& path) override {
    bool found = false;
    ctx_->ForEachMatch(ObjectTemplate(path), [&found](const DsEntry&) {
      found = true;
      return false;
    });
    return found;
  }
  // Collections stop at the sandbox's cap, which keeps the first items.
  Result<ValueList> Children(const std::string& parent) override {
    ValueList names;
    ctx_->ForEachMatch(ObjectPrefixTemplate(parent), [this, &parent, &names](const DsEntry& e) {
      std::string path = TuplePath(e.tuple);
      if (ParentPath(path) == parent) {
        names.emplace_back(BaseName(path));
      }
      return names.size() < max_items_;
    });
    return names;
  }
  Result<ValueList> SubObjects(const std::string& parent) override {
    ValueList objs;
    // Queue-sized lists fit without growing; larger ones grow from here.
    objs.reserve(std::min<size_t>(max_items_, 64));
    ctx_->ForEachMatch(ObjectPrefixTemplate(parent), [this, &objs](const DsEntry& e) {
      objs.push_back(views_->Get(e));
      return objs.size() < max_items_;
    });
    return objs;
  }
  // Ephemerals and monitors are lease tuples the client keeps renewing.
  Result<std::string> Create(const std::string& path, const std::string& data, bool ephemeral,
                             bool /*sequential*/) override {
    Status s = ctx_->Cas(ObjectTemplate(path), ObjectTuple(path, data),
                         ephemeral ? kMonitorLease : Duration{0});
    if (!s.ok()) {
      return s;
    }
    return path;
  }
  Status Delete(const std::string& path) override {
    return ctx_->Inp(ObjectTemplate(path)).status();
  }
  Status Update(const std::string& path, const std::string& data) override {
    return ctx_->Replace(ObjectTemplate(path), ObjectTuple(path, data));
  }
  Result<bool> Cas(const std::string& path, const std::string& expected,
                   const std::string& next) override {
    DsTemplate expect{DsTField::Exact(DsField{path}), DsTField::Exact(DsField{expected})};
    return ctx_->Replace(expect, ObjectTuple(path, next)).ok();
  }
  Value Block(const std::string& path) override {
    Value obj = Read(path);
    if (obj.is_null()) {
      ctx_->Block(ObjectTemplate(path), /*consume=*/false);
      blocked_ = true;
    }
    return obj;
  }

 private:
  DsExecContext* ctx_;
  ObjectViews* views_;
  size_t max_items_;
};

std::string KindOf(const DsOp& op) {
  switch (op.type) {
    case DsOpType::kRdp:
    case DsOpType::kRdAll:
      return "read";
    case DsOpType::kRd:
    case DsOpType::kIn:
      return "block";
    case DsOpType::kOut:
    case DsOpType::kCas:
      return "create";
    case DsOpType::kInp:
      return "delete";
    case DsOpType::kReplace: {
      // A replace whose template pins the old content is the conditional
      // update (Table 2's cas); otherwise it is a plain update.
      if (op.templ.size() > 1 && op.templ[1].kind == DsTField::Kind::kExact) {
        return "cas";
      }
      return "update";
    }
    case DsOpType::kRenew:
    case DsOpType::kSetMapVersion:
      return "";
  }
  return "";
}

// Target path of the operation in the object model (<path, data> tuples).
std::string PathOf(const DsOp& op) {
  std::string path = TuplePath(op.tuple);
  if (!path.empty()) {
    return path;
  }
  if (!op.templ.empty() && op.templ[0].kind != DsTField::Kind::kAny &&
      std::holds_alternative<std::string>(op.templ[0].value)) {
    return std::get<std::string>(op.templ[0].value);
  }
  return "";
}

// The kind of a client write under /em: only a plain out or an inp of one
// exact path can be one of the three /em operations.
EmWrite WriteOf(const DsOp& op) {
  if (op.type == DsOpType::kOut && op.lease == 0) {
    return EmWrite::kCreate;
  }
  if (op.type == DsOpType::kInp && !op.templ.empty() &&
      op.templ[0].kind == DsTField::Kind::kExact) {
    return EmWrite::kDelete;
  }
  return EmWrite::kOther;
}

const char* EventKindOf(DsEvent::Type type) {
  switch (type) {
    case DsEvent::Type::kCreated:
      return "created";
    case DsEvent::Type::kDeleted:
      return "deleted";
    case DsEvent::Type::kChanged:
      return "changed";
  }
  return "";
}

}  // namespace

DsExtensionManager::DsExtensionManager(DsServer* server, ExtensionLimits limits)
    : server_(server), core_(limits, server->costs(), kEdsHost, kDsEmLayout) {
  server_->SetHooks(this);
}

DsExecOutcome DsExtensionManager::HandleOperation(DsExecContext* ctx, NodeId client,
                                                  const DsOp& op) {
  std::string path = PathOf(op);
  if (PathIsUnder(path, kEmRoot)) {
    return HandleEmTraffic(ctx, client, op);
  }
  DsExecOutcome outcome;
  std::string kind = KindOf(op);
  if (kind.empty() || path.empty()) {
    return outcome;
  }
  const LoadedExtension* ext = core_.registry().MatchOperation(client, kind, path);
  if (ext == nullptr) {
    return outcome;
  }
  outcome.handled = true;
  DsStateProxy proxy(ctx, &views_, core_.limits().budget.max_collection_items);
  Invocation inv =
      core_.RunOperation(*ext, kind, path, TupleData(op.tuple), &proxy, server_->obs());
  outcome.cpu_cost = inv.cpu;
  if (!inv.result.ok()) {
    outcome.status = inv.result.status();
    if (inv.evict) {
      Deregister(ctx, ext->name);
    }
  } else if (proxy.blocked()) {
    outcome.deferred = true;
  } else {
    outcome.has_result = true;
    outcome.result = inv.result->is_null() ? "" : inv.result->ToString();
  }
  return outcome;
}

DsExecOutcome DsExtensionManager::HandleEmTraffic(DsExecContext* ctx, NodeId client,
                                                  const DsOp& op) {
  DsExecOutcome outcome;
  outcome.handled = true;
  std::string path = PathOf(op);
  auto request = core_.AdmitClientWrite(WriteOf(op), path, client, TupleData(op.tuple),
                                        &outcome.cpu_cost);
  if (!request.ok()) {
    outcome.status = request.status();
    return outcome;
  }
  const bool registering = request->kind == EmRequest::Kind::kRegister;
  if (request->kind == EmRequest::Kind::kDeregister) {
    Deregister(ctx, request->name);
  } else if (registering && server_->space().HasMatch(ObjectTemplate(path))) {
    outcome.status = Status(ErrorCode::kNodeExists, path);
    return outcome;
  } else {
    // A registration tuple holds its owner and source, an acknowledgment its client.
    std::string data = registering ? request->registration : std::to_string(client);
    ctx->PrivilegedOut(ObjectTuple(path, data));
    core_.Created(path, data, server_->obs());
  }
  outcome.has_result = true;
  return outcome;
}

void DsExtensionManager::Deregister(DsExecContext* ctx, const std::string& name) {
  std::string path = EmLayout::RegistrationPath(name);
  (void)ctx->PrivilegedInp(ObjectTemplate(path));
  while (ctx->PrivilegedInp(ObjectPrefixTemplate(path)).ok()) {
  }
  core_.Removed(path);
}

void DsExtensionManager::DispatchEvents(DsExecContext* ctx,
                                        const std::vector<DsEvent>& events) {
  for (const DsEvent& event : events) {
    std::string path = TuplePath(event.tuple);
    if (path.empty() || PathIsUnder(path, kEmRoot)) {
      continue;
    }
    const char* kind = EventKindOf(event.type);
    for (LoadedExtension* ext : core_.registry().MatchEvent(kind, path)) {
      const char* handler = ExtensionManagerCore::EventHandler(*ext, kind);
      if (handler == nullptr) {
        continue;
      }
      // Event handlers run inline on every replica; the hook has no CPU
      // charge to report, so their steps are counted but not charged.
      DsStateProxy proxy(ctx, &views_, core_.limits().budget.max_collection_items);
      Invocation inv = core_.RunEvent(*ext, handler, path, &proxy, server_->obs());
      if (!inv.result.ok()) {
        EDC_LOG(kDebug) << "event extension '" << ext->name
                        << "' failed: " << inv.result.status().ToString();
        if (inv.evict) {
          Deregister(ctx, ext->name);
        }
      }
    }
  }
}

bool DsExtensionManager::AllowUnblock(NodeId client, const DsTemplate& /*templ*/,
                                      const DsTuple& tuple) {
  std::string path = TuplePath(tuple);
  if (path.empty()) {
    return true;
  }
  for (LoadedExtension* ext : core_.registry().MatchEvent("unblocked", path)) {
    const EntryPoint& veto = EntryPointFor(*ext->program, /*is_event=*/true, "unblocked");
    if (veto.kind == nullptr) {
      continue;  // handle_event does not veto
    }
    // A read-only veto: the sandbox exposes only reads, issued through a
    // scratch context with the waiting client's access rights.
    DsExecContext scratch(server_, client, 0, 0);
    DsStateProxy proxy(&scratch, &views_, core_.limits().budget.max_collection_items);
    Invocation inv = core_.Invoke(*ext, veto.handler, {Value(path)}, &proxy, kReadOnlyHost,
                                  server_->obs());
    // Convention: a falsy return re-blocks the operation (§5.2.2).
    if (inv.result.ok() && !inv.result->Truthy()) {
      return false;
    }
  }
  return true;
}

void DsExtensionManager::OnTupleRemoved(uint64_t seq) { views_.Drop(seq); }

void DsExtensionManager::OnStateReloaded() {
  views_.Clear();
  core_.Clear();
  // The tuple space lists in insertion order: registrations in the order
  // they were made, each before its acknowledgments.
  for (const DsEntry& e : server_->space().RdAll(ObjectPrefixTemplate(kEmRoot))) {
    core_.Created(TuplePath(e.tuple), TupleData(e.tuple), nullptr);
  }
}

Value ObjectViews::Get(const DsEntry& entry) {
  auto [it, inserted] = views_.try_emplace(entry.seq);
  if (inserted) {
    it->second = EntryToValue(entry);
  }
  return it->second;
}

}  // namespace edc
