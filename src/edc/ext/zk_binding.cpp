#include "edc/ext/zk_binding.h"

#include <memory>
#include <optional>
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

// Session of an acknowledgment node /em/<name>/ack-<session>.
std::optional<uint64_t> AckSession(const std::string& base) {
  if (base.rfind("ack-", 0) != 0) {
    return std::nullopt;
  }
  auto sid = ParseInt64(base.substr(4));
  return sid.ok() ? std::optional<uint64_t>(static_cast<uint64_t>(*sid)) : std::nullopt;
}

}  // namespace

ZkExtensionManager::ZkExtensionManager(ZkServer* server, ExtensionLimits limits)
    : server_(server), core_(limits, kEzkHost) {
  server_->SetHooks(this);
}

bool ZkExtensionManager::MatchesOperation(uint64_t session, const ZkOp& op) const {
  std::string kind = KindOf(op);
  if (kind.empty() || PathIsUnder(op.path, kEmRoot)) {
    return false;
  }
  return core_.registry().MatchOperation(session, kind, op.path) != nullptr;
}

Status ZkExtensionManager::PreprocessUpdate(uint64_t session, ZkOp* op,
                                            Duration* extra_cpu) {
  if (op->type == ZkOpType::kCreate && ParentPath(op->path) == kEmRoot) {
    // Extension registration (§3.6): verify, compile, embed the owner.
    if (auto s = core_.CheckRegistration(op->data, extra_cpu); !s.ok()) {
      return s;
    }
    op->data = EncodeRegistration(session, op->data);
    return Status::Ok();
  }
  if (op->type == ZkOpType::kDelete && ParentPath(op->path) == kEmRoot) {
    // Deregistration: only the owner may remove an extension.
    const LoadedExtension* ext = core_.registry().Find(BaseName(op->path));
    if (ext != nullptr && ext->owner != session) {
      return Status(ErrorCode::kAccessDenied, "only the registering client may deregister");
    }
  }
  return Status::Ok();
}

ZkPrepOutcome ZkExtensionManager::HandleOperation(PrepSession* prep, uint64_t session,
                                                  const ZkOp& op) {
  ZkPrepOutcome outcome;
  std::string kind = KindOf(op);
  const LoadedExtension* ext = core_.registry().MatchOperation(session, kind, op.path);
  if (ext == nullptr) {
    return outcome;  // not handled; normal processing continues
  }
  outcome.handled = true;
  ZkStateProxy proxy(prep, session, server_->now(), &ext_rng_);
  Invocation inv = core_.RunOperation(*ext, kind, op.path, op.data, &proxy, server_->obs());
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
  for (const ZkTxnOp& txn_op : prep->ops()) {
    if (txn_op.type == ZkTxnOpType::kBlock && txn_op.session == session &&
        txn_op.req_id == prep->req_id()) {
      return outcome;
    }
  }
  outcome.has_result = true;
  outcome.result = inv.result->is_null() ? "" : inv.result->ToString();
  return outcome;
}

void ZkExtensionManager::AfterApply(const ZkTxn& txn, const std::vector<ZkEvent>& events,
                                    bool is_leader) {
  for (const ZkTxnOp& op : txn.ops) {
    ObserveAppliedOp(op);
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
    Invocation inv = core_.RunEvent(*ext, handler, event.path, &proxy, server_->obs());
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

void ZkExtensionManager::EvictExtension(const std::string& name) {
  auto prep = server_->BeginInternalPrep(0);
  std::string path = std::string(kEmRoot) + "/" + name;
  auto children = prep->Children(path);
  if (children.ok()) {
    for (const std::string& child : *children) {
      (void)prep->Delete(path + "/" + child, -1);
    }
  }
  (void)prep->Delete(path, -1);
  server_->ProposeFromPrep(prep.get(), false, "", 0, kMaxEventDepth);
}

void ZkExtensionManager::ObserveAppliedOp(const ZkTxnOp& op) {
  if (op.type != ZkTxnOpType::kCreate && op.type != ZkTxnOpType::kDelete) {
    return;
  }
  const bool created = op.type == ZkTxnOpType::kCreate;
  std::string parent = ParentPath(op.path);
  if (parent == kEmRoot) {
    if (!created) {
      core_.registry().Unload(BaseName(op.path));
      return;
    }
    auto reg = DecodeRegistration(op.data);
    if (!reg.ok()) {
      EDC_LOG(kError) << "undecodable extension registration at " << op.path;
      return;
    }
    Status s = core_.Load(BaseName(op.path), reg->first, reg->second, server_->obs());
    if (!s.ok()) {
      EDC_LOG(kError) << "replicated extension failed to load: " << s.ToString();
    }
    return;
  }
  if (ParentPath(parent) != kEmRoot) {
    return;
  }
  // Acknowledgment child: /em/<name>/ack-<session>.
  if (std::optional<uint64_t> sid = AckSession(BaseName(op.path))) {
    if (created) {
      core_.registry().RecordAck(BaseName(parent), *sid);
    } else {
      core_.registry().RemoveAck(BaseName(parent), *sid);
    }
  }
}

bool ZkExtensionManager::SuppressNotification(uint64_t session, const ZkEvent& event) const {
  const char* kind = EventKindOf(event.type);
  return kind != nullptr && core_.registry().HasEventExtensionFor(session, kind, event.path);
}

void ZkExtensionManager::OnStateReloaded() {
  ExtensionRegistry& registry = core_.registry();
  registry.Clear();
  const DataTree& tree = server_->tree();
  auto names = tree.GetChildren(kEmRoot);
  if (!names.ok()) {
    return;
  }
  for (const std::string& name : *names) {
    std::string path = std::string(kEmRoot) + "/" + name;
    auto node = tree.Get(path);
    if (!node.ok()) {
      continue;
    }
    auto reg = DecodeRegistration(node->data);
    if (!reg.ok() || !registry.Load(name, reg->first, reg->second, verifier_config()).ok()) {
      continue;
    }
    auto acks = tree.GetChildren(path);
    if (!acks.ok()) {
      continue;
    }
    for (const std::string& ack : *acks) {
      if (std::optional<uint64_t> sid = AckSession(ack)) {
        registry.RecordAck(name, *sid);
      }
    }
  }
}

}  // namespace edc
