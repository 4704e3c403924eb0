#include "edc/ext/zk_binding.h"

#include <map>
#include <memory>
#include <utility>

#include "edc/common/logging.h"
#include "edc/common/strings.h"

namespace edc {

namespace {

Value NodeToValue(const std::string& path, const PrepNode& node) {
  return Value::Map({{"path", Value(path)},
                     {"data", Value(node.data)},
                     {"version", Value(static_cast<int64_t>(node.version))},
                     {"ctime", Value(node.ctime)},
                     {"owner", Value(static_cast<int64_t>(node.ephemeral_owner))}});
}

// The EZK state proxy (§5.1.2): every access goes through the leader's
// PrepSession, so all writes of one invocation land in one multi-txn.
class ZkStateProxy : public StateProxy {
 public:
  ZkStateProxy(PrepSession* prep, uint64_t session, SimTime now, Rng* rng)
      : prep_(prep), session_(session), now_(now), rng_(rng) {}

  uint64_t client() const override { return session_; }
  size_t state_ops() const override { return prep_->state_ops_performed(); }
  Value Read(const std::string& path) override {
    auto node = prep_->Get(path);
    return node.ok() ? NodeToValue(path, *node) : Value();
  }
  bool Exists(const std::string& path) override { return prep_->Exists(path); }
  Result<ValueList> Children(const std::string& path) override {
    auto children = prep_->Children(path);
    if (!children.ok()) {
      return children.status();
    }
    return ValueList(children->begin(), children->end());
  }
  Result<ValueList> SubObjects(const std::string& parent) override {
    auto children = prep_->Children(parent);
    if (!children.ok()) {
      return children.status();
    }
    ValueList objs;
    for (const std::string& c : *children) {
      std::string path = parent == "/" ? "/" + c : parent + "/" + c;
      auto node = prep_->Get(path);
      if (node.ok()) {
        objs.push_back(NodeToValue(path, *node));
      }
    }
    return objs;
  }
  // Ephemerals are owned by the invoking session: the service deletes them
  // when that client terminates or fails (Table 2).
  Result<std::string> Create(const std::string& path, const std::string& data, bool ephemeral,
                             bool sequential) override {
    return prep_->Create(path, data, ephemeral, sequential);
  }
  Status Delete(const std::string& path) override { return prep_->Delete(path, -1); }
  Status Update(const std::string& path, const std::string& data) override {
    return prep_->SetData(path, data, -1);
  }
  Result<bool> Cas(const std::string& path, const std::string& expected,
                   const std::string& next) override {
    auto node = prep_->Get(path);
    if (!node.ok()) {
      return node.status();
    }
    return node->data == expected && prep_->SetData(path, next, node->version).ok();
  }
  Value Block(const std::string& path) override {
    if (prep_->Exists(path)) {
      return Read(path);
    }
    prep_->Block(path);
    blocked_ = true;
    return Value();
  }
  SimTime Now() override { return now_; }
  int64_t Random(int64_t bound) override {
    return static_cast<int64_t>(rng_->UniformU64(static_cast<uint64_t>(bound)));
  }

 private:
  PrepSession* prep_;
  uint64_t session_;
  SimTime now_;
  Rng* rng_;
};

// Op type -> subscription kind ("read", "block", ...); empty = unmatchable.
std::string KindOf(const ZkOp& op) {
  switch (op.type) {
    case ZkOpType::kGetData:
    case ZkOpType::kGetChildren:
      return "read";
    case ZkOpType::kExists:
      return op.watch ? "block" : "read";
    case ZkOpType::kCreate:
      return "create";
    case ZkOpType::kSetData:
      return op.version >= 0 ? "cas" : "update";
    case ZkOpType::kDelete:
      return "delete";
    default:
      return "";
  }
}

// Event type -> subscription kind; nullptr for child-list changes, which
// extensions cannot subscribe to.
const char* EventKindOf(ZkEventType type) {
  switch (type) {
    case ZkEventType::kNodeCreated:
      return "created";
    case ZkEventType::kNodeDeleted:
      return "deleted";
    case ZkEventType::kNodeDataChanged:
      return "changed";
    case ZkEventType::kNodeChildrenChanged:
      return nullptr;
  }
  return nullptr;
}

// The kind of a client write under /em: only a plain create or a delete can
// be one of the three /em operations.
EmWrite WriteOf(const ZkOp& op) {
  if (op.type == ZkOpType::kCreate && !op.ephemeral && !op.sequential) {
    return EmWrite::kCreate;
  }
  return op.type == ZkOpType::kDelete ? EmWrite::kDelete : EmWrite::kOther;
}

}  // namespace

ZkExtensionManager::ZkExtensionManager(ZkServer* server, ExtensionLimits limits)
    : server_(server), core_(server->loop(), limits, server->costs(), kEzkHost, kZkEmLayout) {
  server_->SetHooks(this);
}

bool ZkExtensionManager::MatchesOperation(uint64_t session, const ZkOp& op) const {
  std::string kind = KindOf(op);
  if (kind.empty() || PathIsUnder(op.path, kEmRoot)) {
    return false;
  }
  return core_.registry().MatchOperation(session, kind, op.path) != nullptr;
}

ZkPrepOutcome ZkExtensionManager::HandleOperation(PrepSession* prep, uint64_t session,
                                                  const ZkOp& op) {
  const ZkOp* em_op = &op;
  EmWrite write = WriteOf(op);
  for (const ZkOp& sub : op.ops) {
    if (PathIsUnder(sub.path, kEmRoot)) {
      em_op = &sub;
      write = EmWrite::kOther;  // inside a multi, no /em write is admitted
    }
  }
  if (!IsReadOp(op.type) && PathIsUnder(em_op->path, kEmRoot)) {
    return HandleEmWrite(prep, session, *em_op, write);
  }
  ZkPrepOutcome outcome;
  if (!MatchesOperation(session, op)) {
    return outcome;  // not handled; normal processing continues
  }
  std::string kind = KindOf(op);
  const LoadedExtension* ext = core_.registry().MatchOperation(session, kind, op.path);
  outcome.handled = true;
  ZkStateProxy proxy(prep, session, server_->now(), &ext_rng_);
  Invocation inv = core_.RunOperation(*ext, kind, op.path, op.data, &proxy);
  outcome.extra_cpu = inv.cpu;
  if (!inv.result.ok()) {
    outcome.status = inv.result.status();
    if (inv.evict) {
      EvictExtension(ext->name);
    }
    return outcome;
  }
  // A pending server-side block defers the reply (§6.1.3); otherwise the
  // returned value is piggybacked as the result.
  if (proxy.blocked()) {
    return outcome;
  }
  outcome.has_result = true;
  outcome.result = inv.result->is_null() ? "" : inv.result->ToString();
  return outcome;
}

ZkPrepOutcome ZkExtensionManager::HandleEmWrite(PrepSession* prep, uint64_t session,
                                                const ZkOp& op, EmWrite write) {
  ZkPrepOutcome outcome;
  outcome.handled = true;
  auto request = core_.AdmitClientWrite(write, op.path, session, op.data, &outcome.extra_cpu);
  if (!request.ok()) {
    outcome.status = request.status();
    return outcome;
  }
  if (request->kind == EmRequest::Kind::kDeregister) {
    outcome.status = Deregister(prep, request->name);
    return outcome;
  }
  const std::string& data =
      request->kind == EmRequest::Kind::kRegister ? request->registration : op.data;
  auto made = prep->Create(op.path, data, false, false);
  if (!made.ok()) {
    outcome.status = made.status();
    return outcome;
  }
  outcome.has_result = true;
  outcome.result = *made;
  return outcome;
}

void ZkExtensionManager::AfterApply(const ZkTxn& txn, const std::vector<ZkEvent>& events,
                                    bool is_leader) {
  for (const ZkTxnOp& op : txn.ops) {
    if (op.type == ZkTxnOpType::kCreate) {
      core_.Created(op.path, op.data);
    } else if (op.type == ZkTxnOpType::kDelete) {
      core_.Removed(op.path);
    }
  }
  if (!is_leader || txn.ext_depth >= kMaxEventDepth) {
    return;
  }
  for (const ZkEvent& event : events) {
    const char* kind = EventKindOf(event.type);
    if (kind != nullptr && !PathIsUnder(event.path, kEmRoot)) {
      RunEventExtensions(event, kind, static_cast<uint8_t>(txn.ext_depth + 1));
    }
  }
}

void ZkExtensionManager::RunEventExtensions(const ZkEvent& event, const std::string& kind,
                                            uint8_t depth) {
  for (LoadedExtension* ext : core_.registry().MatchEvent(kind, event.path)) {
    const char* handler = ExtensionManagerCore::EventHandler(*ext, kind);
    if (handler == nullptr) {
      continue;
    }
    // Event extensions run with the registrant's privileges (§3.2).
    auto prep = server_->BeginInternalPrep(ext->owner);
    ZkStateProxy proxy(prep.get(), ext->owner, server_->now(), &ext_rng_);
    Invocation inv = core_.RunEvent(*ext, handler, event.path, &proxy);
    if (!inv.result.ok()) {
      EDC_LOG(kDebug) << "event extension '" << ext->name
                      << "' failed: " << inv.result.status().ToString();
      if (inv.evict) {
        EvictExtension(ext->name);
      }
      continue;
    }
    server_->ProposeFromPrep(prep.get(), false, "", inv.cpu, depth);
  }
}

Status ZkExtensionManager::Deregister(PrepSession* prep, const std::string& name) {
  std::string path = EmLayout::RegistrationPath(name);
  auto acks = prep->Children(path);
  if (acks.ok()) {
    for (const std::string& ack : *acks) {
      (void)prep->Delete(path + "/" + ack, -1);
    }
  }
  return prep->Delete(path, -1);
}

void ZkExtensionManager::EvictExtension(const std::string& name) {
  auto prep = server_->BeginInternalPrep(0);
  (void)Deregister(prep.get(), name);
  server_->ProposeFromPrep(prep.get(), false, "", 0, kMaxEventDepth);
}

bool ZkExtensionManager::SuppressNotification(uint64_t session, const ZkEvent& event) const {
  const char* kind = EventKindOf(event.type);
  return kind != nullptr && core_.registry().HasEventExtensionFor(session, kind, event.path);
}

void ZkExtensionManager::OnStateReloaded() {
  // Registrations in creation order, each followed by its acknowledgments.
  std::map<uint64_t, std::string> registrations;  // by creation zxid
  const DataTree& tree = server_->tree();
  for (const std::string& name : tree.GetChildren(kEmRoot).value_or({})) {
    std::string path = EmLayout::RegistrationPath(name);
    if (auto node = tree.Get(path); node.ok()) {
      registrations[node->stat.czxid] = path;
    }
  }
  std::vector<std::pair<std::string, std::string>> entries;
  for (const auto& [czxid, path] : registrations) {
    entries.emplace_back(path, tree.Get(path)->data);
    for (const std::string& ack : tree.GetChildren(path).value_or({})) {
      entries.emplace_back(path + "/" + ack, "");
    }
  }
  core_.Reload(entries);
}

}  // namespace edc
