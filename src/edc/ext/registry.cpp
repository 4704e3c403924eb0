#include "edc/ext/registry.h"

#include <algorithm>
#include <utility>

#include "edc/common/strings.h"
#include "edc/script/analysis/diagnostics.h"
#include "edc/script/parser.h"
#include "edc/script/vm/vm.h"

namespace edc {

Result<LoadedExtension> AdmitExtension(const std::string& name, uint64_t owner,
                                       const std::string& source,
                                       const VerifierConfig& config) {
  // The source cap is enforced before parsing: the parser and the analyzer
  // recurse over the source, and a large enough one exhausts the stack. The
  // Status is the verifier's own EDC-E001 rejection.
  if (source.size() > config.max_source_bytes) {
    return Rejection(Diagnostic{kDiagSourceTooLarge, Severity::kError, 1, 1, "",
                                "source exceeds " +
                                    std::to_string(config.max_source_bytes) + " bytes"});
  }
  auto program = ParseProgram(source);
  if (!program.ok()) {
    return program.status();
  }
  Admission admission = VerifyProgram(**program, config);
  if (!admission.status.ok()) {
    return admission.status;
  }
  for (const Subscription& sub : (*program)->subscriptions) {
    if (PathIsUnder(sub.pattern, kEmRoot)) {
      return Status(ErrorCode::kExtensionRejected,
                    "subscriptions may not target the /em namespace");
    }
  }
  // Compile every handler once, here, so every later invocation dispatches
  // straight into bytecode ("verification pays once", §4.2). A handler the
  // compiler refuses rejects the registration: the VM is the only engine.
  auto compiled = CompileProgram(**program);
  if (!compiled.ok()) {
    return compiled.status();
  }
  LoadedExtension ext;
  ext.name = name;
  ext.owner = owner;
  ext.program = std::move(*program);
  ext.reports = std::move(admission.handlers);
  ext.compiled = std::make_shared<const CompiledModule>(std::move(*compiled));
  return ext;
}

Status ExtensionRegistry::Load(const std::string& name, uint64_t owner,
                               const std::string& source, const VerifierConfig& config) {
  auto ext = AdmitExtension(name, owner, source, config);
  if (!ext.ok()) {
    return ext.status();
  }
  Install(std::move(*ext));
  return Status::Ok();
}

void ExtensionRegistry::Install(LoadedExtension ext) {
  ext.reg_order = next_order_++;
  std::string name = ext.name;
  extensions_[name] = std::move(ext);
}

HandlerRun RunExtensionHandler(const LoadedExtension& ext, const std::string& handler_name,
                               std::vector<Value> args, ScriptHost* host,
                               const ExtensionLimits& limits) {
  HandlerRun run;
  run.certified = ext.Certified(handler_name);
  // Argument ingest check (pre-dispatch, zero steps): the analyzer seeded
  // the handler's parameter bounds from max_input_bytes, so an oversized
  // argument must never reach a certified handler — the proven step bound
  // would not cover it.
  for (const Value& arg : args) {
    bool oversized = false;
    if (arg.is_list()) {
      for (const Value& item : arg.AsList()) {
        oversized = oversized || item.ApproxSize() > limits.budget.max_input_bytes;
      }
    } else {
      oversized = arg.ApproxSize() > limits.budget.max_input_bytes;
    }
    if (oversized) {
      run.result = Status(ErrorCode::kExtensionLimit,
                          "argument size limit exceeded for handler '" +
                              handler_name + "'");
      return run;
    }
  }
  Vm vm(ext.compiled.get(), host, limits.budget);
  run.result = vm.Invoke(handler_name, std::move(args));
  run.steps_used = vm.stats().steps_used;
  run.vm_dispatched = true;
  return run;
}

void ExtensionRegistry::Unload(const std::string& name) {
  extensions_.erase(name);
}

void ExtensionRegistry::Clear() {
  extensions_.clear();
  next_order_ = 1;
}

void ExtensionRegistry::RecordAck(const std::string& name, uint64_t client) {
  auto it = extensions_.find(name);
  if (it != extensions_.end()) {
    it->second.acks.insert(client);
  }
}

void ExtensionRegistry::RemoveAck(const std::string& name, uint64_t client) {
  auto it = extensions_.find(name);
  if (it != extensions_.end()) {
    it->second.acks.erase(client);
  }
}

LoadedExtension* ExtensionRegistry::Find(const std::string& name) {
  auto it = extensions_.find(name);
  return it == extensions_.end() ? nullptr : &it->second;
}

const LoadedExtension* ExtensionRegistry::Find(const std::string& name) const {
  return const_cast<ExtensionRegistry*>(this)->Find(name);
}

bool ExtensionRegistry::Authorized(const LoadedExtension& ext, uint64_t client) {
  return ext.owner == client || ext.acks.count(client) > 0;
}

bool ExtensionRegistry::SubscriptionMatches(const Subscription& sub, bool is_event,
                                            const std::string& kind, const std::string& path) {
  if (sub.is_event != is_event) {
    return false;
  }
  if (sub.kind != kind && !(!is_event && sub.kind == "any")) {
    return false;
  }
  if (sub.prefix) {
    if (sub.subtree) {
      return PathIsUnder(path, sub.pattern);
    }
    return path.size() >= sub.pattern.size() &&
           path.compare(0, sub.pattern.size(), sub.pattern) == 0;
  }
  return sub.pattern == path;
}

namespace {

bool Subscribes(const LoadedExtension& ext, bool is_event, const std::string& kind,
                const std::string& path) {
  for (const Subscription& sub : ext.program->subscriptions) {
    if (ExtensionRegistry::SubscriptionMatches(sub, is_event, kind, path)) {
      return true;
    }
  }
  return false;
}

}  // namespace

const LoadedExtension* ExtensionRegistry::MatchOperation(uint64_t client,
                                                         const std::string& kind,
                                                         const std::string& path) const {
  const LoadedExtension* best = nullptr;
  for (const auto& [name, ext] : extensions_) {
    if (Authorized(ext, client) && Subscribes(ext, /*is_event=*/false, kind, path) &&
        (best == nullptr || ext.reg_order > best->reg_order)) {
      best = &ext;
    }
  }
  return best;
}

std::vector<LoadedExtension*> ExtensionRegistry::MatchEvent(const std::string& kind,
                                                            const std::string& path) {
  std::vector<LoadedExtension*> matches;
  for (auto& [name, ext] : extensions_) {
    if (Subscribes(ext, /*is_event=*/true, kind, path)) {
      matches.push_back(&ext);
    }
  }
  std::sort(matches.begin(), matches.end(),
            [](const LoadedExtension* a, const LoadedExtension* b) {
              return a->reg_order < b->reg_order;
            });
  return matches;
}

bool ExtensionRegistry::HasEventExtensionFor(uint64_t client, const std::string& kind,
                                             const std::string& path) const {
  for (const auto& [name, ext] : extensions_) {
    if (Authorized(ext, client) && Subscribes(ext, /*is_event=*/true, kind, path)) {
      return true;
    }
  }
  return false;
}

bool ExtensionRegistry::RecordStrike(const std::string& name, int limit) {
  if (limit <= 0) {
    return false;
  }
  auto it = extensions_.find(name);
  if (it == extensions_.end()) {
    return false;
  }
  return ++it->second.strikes >= limit;
}

namespace {

struct Registration {
  uint64_t owner = 0;
  std::string source;
};

template <class Io>
void Fields(Io& io, Registration& m) {
  io.U64(m.owner);
  io.Str(m.source);
}

}  // namespace

std::string EncodeRegistration(uint64_t owner, const std::string& source) {
  std::vector<uint8_t> blob = EncodeMsg(Registration{owner, source});
  return std::string(blob.begin(), blob.end());
}

Result<std::pair<uint64_t, std::string>> DecodeRegistration(const std::string& blob) {
  auto r = DecodeMsg<Registration>({reinterpret_cast<const uint8_t*>(blob.data()), blob.size()});
  if (!r.ok()) {
    return r.status();
  }
  return std::make_pair(r->owner, std::move(r->source));
}

}  // namespace edc
