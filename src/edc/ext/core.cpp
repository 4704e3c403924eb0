#include "edc/ext/core.h"

#include <optional>
#include <utility>

#include "edc/common/logging.h"
#include "edc/common/strings.h"
#include "edc/script/builtins.h"
#include "edc/sim/costs.h"

namespace edc {

namespace {

Result<Value> ProxyError(const Status& s) { return ScriptError(s.ToString()); }

}  // namespace

bool SandboxHost::HasFunction(const std::string& name) const {
  return FindHostFn(name, set_) != nullptr;
}

Result<Value> SandboxHost::Call(const std::string& name, std::vector<Value>& args) {
  const HostSpec* spec = FindHostFn(name, set_);
  if (spec == nullptr) {
    return ScriptError("unknown host function '" + name + "'");
  }
  if ((spec->flags & kStateOp) != 0 && proxy_->state_ops() >= limits_.max_state_ops) {
    return Status(ErrorCode::kExtensionLimit, "state-operation budget exceeded");
  }
  if (args.size() != spec->arity) {
    return ScriptError(name + " expects " + std::to_string(spec->arity) + " argument(s)");
  }
  if (spec->path_arg >= 0 && !args[spec->path_arg].is_str()) {
    return ScriptError(name + ": expected str argument");
  }
  static const std::string kNoPath;
  const std::string& path = spec->path_arg >= 0 ? args[spec->path_arg].AsStr() : kNoPath;
  if ((spec->flags & kCreates) != 0 && created_ >= limits_.max_created_objects) {
    return Status(ErrorCode::kExtensionLimit, "object-creation budget exceeded");
  }
  if ((spec->flags & kWrites) != 0 && PathIsUnder(path, kEmRoot)) {
    return ScriptError("extensions may not touch the /em namespace");
  }
  // Collection cap (§4.1.2): the static cost pass bounds foreach loops over
  // these lists by max_collection_items, so the runtime must never hand
  // back more.
  auto capped = [this](Result<ValueList> list) -> Result<Value> {
    if (!list.ok()) {
      return ProxyError(list.status());
    }
    if (list->size() > limits_.budget.max_collection_items) {
      list->resize(limits_.budget.max_collection_items);
    }
    return Value::List(std::move(*list));
  };
  auto done = [](const Status& s) -> Result<Value> {
    return s.ok() ? Result<Value>(Value(true)) : ProxyError(s);
  };
  switch (spec->fn) {
    case HostFn::kClientId:
      return Value(std::to_string(proxy_->client()));
    case HostFn::kNow:
      return Value(proxy_->Now());
    case HostFn::kRandom:
      if (!args[0].is_int() || args[0].AsInt() <= 0) {
        return ScriptError("random: expected positive int bound");
      }
      return Value(proxy_->Random(args[0].AsInt()));
    case HostFn::kRead:
      return proxy_->Read(path);
    case HostFn::kExists:
      return Value(proxy_->Exists(path));
    case HostFn::kChildren:
      return capped(proxy_->Children(path));
    case HostFn::kSubObjects:
      return capped(proxy_->SubObjects(path));
    case HostFn::kBlock:
      return proxy_->Block(path);
    case HostFn::kCreate: {
      // The data is whichever of the two arguments is not the path.
      auto actual = proxy_->Create(path, args[1 - spec->path_arg].ToString(),
                                   (spec->flags & kEphemeral) != 0,
                                   (spec->flags & kSequential) != 0);
      if (!actual.ok()) {
        return ProxyError(actual.status());
      }
      ++created_;
      return Value(*actual);
    }
    case HostFn::kDelete:
      return done(proxy_->Delete(path));
    case HostFn::kUpdate:
      return done(proxy_->Update(path, args[1].ToString()));
    case HostFn::kCas: {
      auto swapped = proxy_->Cas(path, args[1].ToString(), args[2].ToString());
      return swapped.ok() ? Result<Value>(Value(*swapped)) : ProxyError(swapped.status());
    }
  }
  return ScriptError("unknown host function '" + name + "'");
}

ExtensionManagerCore::ExtensionManagerCore(EventLoop* loop, const ExtensionLimits& limits,
                                           const CostModel& costs, HostSet set, EmLayout layout)
    : loop_(loop),
      limits_(limits),
      costs_(costs),
      set_(set),
      layout_(layout),
      m_compiled_(loop->obs().metrics.GetCounter("ext.compiled")),
      m_invocations_(loop->obs().metrics.GetCounter("ext.invocations")),
      m_steps_(loop->obs().metrics.GetCounter("ext.steps")),
      m_certified_(loop->obs().metrics.GetCounter("ext.certified")),
      m_vm_dispatches_(loop->obs().metrics.GetCounter("ext.vm_dispatches")) {
  verifier_config_ = SandboxVerifierConfig(set);
  // Active replication executes every extension on every replica, so the
  // EDS white list must be fully deterministic; primary-backup EZK may use
  // nondeterministic functions (§4.1.1).
  verifier_config_.require_deterministic = set != kEzkHost;
  // Certification (§4.2): a handler's proven step bound fits the runtime
  // budget. It is a diagnostic (the ext.certified counter); every handler
  // still runs under the step limit. The cost pass relies on the sandbox
  // capping collection results, so both sides must agree on the cap. The
  // analyzer seeds handler inputs and its string-length top from the
  // *actual* runtime limits: a tighter budget gets tighter (still sound)
  // bounds, and max_steps below a handler's bound rejects certification
  // instead of mis-certifying.
  verifier_config_.budget = limits_.budget;
}

Result<EmRequest> ExtensionManagerCore::AdmitClientWrite(EmWrite write, const std::string& path,
                                                         uint64_t client,
                                                         const std::string& data,
                                                         Duration* cpu) {
  std::string name = EmLayout::RegisteredName(path);
  if (write == EmWrite::kCreate && !name.empty()) {
    *cpu += static_cast<Duration>(data.size()) * costs_.ext_verify_cpu_per_byte;
    auto ext = AdmitExtension(name, client, data, verifier_config_);
    if (!ext.ok()) {
      return ext.status();
    }
    std::string registration = EncodeRegistration(client, data);
    admitted_[name] = {registration, std::move(*ext)};
    return EmRequest{EmRequest::Kind::kRegister, name, std::move(registration)};
  }
  std::optional<EmAck> ack = layout_.ParseAck(path);
  if (write == EmWrite::kCreate && ack && ack->client == client) {
    if (registry_.Find(ack->name) == nullptr) {
      return Status(ErrorCode::kNoNode, "no extension '" + ack->name + "'");
    }
    return EmRequest{EmRequest::Kind::kAcknowledge, ack->name, ""};
  }
  if (write == EmWrite::kDelete && !name.empty()) {
    const LoadedExtension* ext = registry_.Find(name);
    if (ext == nullptr) {
      return Status(ErrorCode::kNoNode, path);
    }
    if (ext->owner != client) {
      return Status(ErrorCode::kAccessDenied, "only the registering client may deregister");
    }
    return EmRequest{EmRequest::Kind::kDeregister, name, ""};
  }
  return Status(ErrorCode::kAccessDenied, "extension-manager namespace");
}

void ExtensionManagerCore::Created(const std::string& path, const std::string& data) {
  size_t handlers = Follow(path, data);
  if (loop_->obs().enabled()) {
    m_compiled_->Add(static_cast<int64_t>(handlers));
  }
}

size_t ExtensionManagerCore::Follow(const std::string& path, const std::string& data) {
  std::string name = EmLayout::RegisteredName(path);
  if (name.empty()) {
    if (std::optional<EmAck> ack = layout_.ParseAck(path)) {
      registry_.RecordAck(ack->name, ack->client);
    }
    return 0;
  }
  auto admitted = admitted_.extract(name);
  Result<LoadedExtension> ext = Status(ErrorCode::kInternal, "");
  if (admitted && admitted.mapped().first == data) {
    ext = std::move(admitted.mapped().second);
  } else if (auto reg = DecodeRegistration(data); reg.ok()) {
    ext = AdmitExtension(name, reg->first, reg->second, verifier_config_);
  } else {
    ext = reg.status();
  }
  if (!ext.ok()) {
    EDC_LOG(kError) << "extension at " << path << " failed to load: " << ext.status().ToString();
    return 0;
  }
  size_t handlers = ext->compiled->handlers.size();
  registry_.Install(std::move(*ext));
  return handlers;
}

void ExtensionManagerCore::Removed(const std::string& path) {
  std::string name = EmLayout::RegisteredName(path);
  if (!name.empty()) {
    admitted_.erase(name);
    registry_.Unload(name);
  } else if (std::optional<EmAck> ack = layout_.ParseAck(path)) {
    registry_.RemoveAck(ack->name, ack->client);
  }
}

void ExtensionManagerCore::Reload(const std::vector<std::pair<std::string, std::string>>& entries) {
  registry_.Clear();
  admitted_.clear();
  for (const auto& [path, data] : entries) {
    Follow(path, data);
  }
}

Invocation ExtensionManagerCore::RunOperation(const LoadedExtension& ext,
                                              const std::string& kind,
                                              const std::string& path,
                                              const std::string& data, StateProxy* proxy) {
  const EntryPoint& entry = EntryPointFor(*ext.program, /*is_event=*/false, kind);
  std::vector<Value> args;
  if (entry.kind != nullptr) {
    args.emplace_back(path);
    if (kind == "create" || kind == "update" || kind == "cas") {
      args.emplace_back(data);
    }
  } else {
    args.push_back(
        Value::Map({{"type", Value(kind)}, {"path", Value(path)}, {"data", Value(data)}}));
  }
  return Settle(ext.name, Invoke(ext, entry.handler, std::move(args), proxy, set_));
}

const char* ExtensionManagerCore::EventHandler(const LoadedExtension& ext,
                                               const std::string& kind) {
  const char* handler = EntryPointFor(*ext.program, /*is_event=*/true, kind).handler;
  return ext.program->handlers.count(handler) > 0 ? handler : nullptr;
}

Invocation ExtensionManagerCore::RunEvent(const LoadedExtension& ext, const char* handler,
                                          const std::string& path, StateProxy* proxy) {
  return Settle(ext.name, Invoke(ext, handler, {Value(path)}, proxy, set_));
}

Invocation ExtensionManagerCore::Invoke(const LoadedExtension& ext, const std::string& handler,
                                        std::vector<Value> args, StateProxy* proxy,
                                        HostSet set) {
  SandboxHost host(proxy, limits_, set);
  HandlerRun run = RunExtensionHandler(ext, handler, std::move(args), &host, limits_);
  Invocation inv;
  inv.cpu = costs_.ext_invoke_cpu + run.steps_used * costs_.ext_step_cpu;
  if (loop_->obs().enabled()) {
    m_invocations_->Increment();
    m_steps_->Add(run.steps_used);
    if (run.certified) {
      m_certified_->Increment();
    }
    if (run.vm_dispatched) {
      m_vm_dispatches_->Increment();
    }
  }
  inv.result = std::move(run.result);
  return inv;
}

Invocation ExtensionManagerCore::Settle(const std::string& name, Invocation inv) {
  // strike_limit counts *consecutive* failures: a success clears them.
  if (inv.result.ok()) {
    if (LoadedExtension* ext = registry_.Find(name)) {
      ext->strikes = 0;
    }
  } else if (registry_.RecordStrike(name, limits_.strike_limit)) {
    EDC_LOG(kWarn) << "evicting misbehaving extension '" << name << "'";
    inv.evict = true;
  }
  return inv;
}

}  // namespace edc
