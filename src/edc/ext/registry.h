// Extension registry shared by the EZK and EDS bindings.
//
// Holds the verified, compiled extensions plus their subscriptions,
// ownership and acknowledgment state (§3.6): an extension is triggered only
// for the client that registered it or for clients that explicitly
// acknowledged it. When several operation extensions match a request, the
// last registered wins (§3.3); event extensions all fire, in registration
// order.
//
// The registry itself is volatile — it is rebuilt deterministically from the
// coordination-service state (/em data objects) on every replica, which is
// how the paper gets extension fault tolerance for free (§3.8).

#ifndef EDC_EXT_REGISTRY_H_
#define EDC_EXT_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "edc/common/codec.h"
#include "edc/common/result.h"
#include "edc/script/ast.h"
#include "edc/script/verifier.h"
#include "edc/script/vm/bytecode.h"
#include "edc/script/vm/compiler.h"
#include "edc/script/vm/vm.h"

namespace edc {

// Resource-consumption bounds enforced by the sandbox (§4.1.2).
struct ExtensionLimits {
  // The VM's caps per invocation (steps, value bytes, input bytes,
  // collection items). The manager certifies handlers against this same
  // budget (VerifierConfig::budget), so the analyzer's proven step bounds
  // rest on the caps the VM enforces.
  ExecBudget budget;
  size_t max_state_ops = 256;          // coordination-state accesses per invocation
  size_t max_created_objects = 64;     // objects created per invocation
  // Consecutive runtime failures before the manager evicts the extension
  // (0 = never). Registration-time verification cannot prove absence of
  // runtime errors (§4.1.2); eviction bounds the damage of a crash-looping
  // extension.
  int strike_limit = 0;
};

struct LoadedExtension {
  std::string name;
  uint64_t owner = 0;  // registering session (EZK) / client id (EDS)
  std::shared_ptr<Program> program;
  std::set<uint64_t> acks;
  uint64_t reg_order = 0;
  int strikes = 0;
  // Per-handler analysis verdicts from registration time (§4.2); the
  // certification they carry is a diagnostic, every run is metered.
  std::map<std::string, HandlerReport> reports;
  // Bytecode for every handler, compiled once at registration.
  std::shared_ptr<const CompiledModule> compiled;

  // True iff `handler` was certified by the static analyzer (proven
  // worst-case step bound within the execution budget).
  bool Certified(const std::string& handler) const {
    auto it = reports.find(handler);
    return it != reports.end() && it->second.certified;
  }
};

// Outcome of one handler dispatch through RunExtensionHandler.
struct HandlerRun {
  Result<Value> result = Value();
  int64_t steps_used = 0;
  bool certified = false;      // analyzer verdict; a diagnostic, every run is metered
  bool vm_dispatched = false;  // reached the VM (false: argument ingest cap)
};

// Handler dispatch under ExtensionManagerCore::Invoke: applies the argument
// ingest cap and runs `handler_name` on the bytecode VM under
// `limits.budget`, metered whether or not the handler is certified.
HandlerRun RunExtensionHandler(const LoadedExtension& ext, const std::string& handler_name,
                               std::vector<Value> args, ScriptHost* host,
                               const ExtensionLimits& limits);

// Admission (§3.6), the one pass every registration takes: the source cap,
// parse, VerifyProgram, no subscription under /em, compile. The result is ready
// to Install. kExtensionRejected on any verifier violation or compile
// refusal.
Result<LoadedExtension> AdmitExtension(const std::string& name, uint64_t owner,
                                       const std::string& source,
                                       const VerifierConfig& config);

class ExtensionRegistry {
 public:
  // AdmitExtension, then Install.
  Status Load(const std::string& name, uint64_t owner, const std::string& source,
              const VerifierConfig& config);
  // Adds an admitted extension as the newest registration.
  void Install(LoadedExtension ext);
  void Unload(const std::string& name);
  void Clear();

  void RecordAck(const std::string& name, uint64_t client);
  void RemoveAck(const std::string& name, uint64_t client);

  bool Contains(const std::string& name) const { return extensions_.count(name) > 0; }
  LoadedExtension* Find(const std::string& name);
  const LoadedExtension* Find(const std::string& name) const;
  size_t size() const { return extensions_.size(); }

  // Is `client` allowed to trigger this extension (§3.6)?
  static bool Authorized(const LoadedExtension& ext, uint64_t client);

  // Best (= last registered) authorized operation extension for
  // (kind, path), or nullptr.
  const LoadedExtension* MatchOperation(uint64_t client, const std::string& kind,
                                        const std::string& path) const;

  // All event extensions subscribed to (kind, path), registration order.
  std::vector<LoadedExtension*> MatchEvent(const std::string& kind, const std::string& path);

  // Does any event extension authorized for `client` subscribe to
  // (kind, path)? Drives notification suppression (§5.1.2).
  bool HasEventExtensionFor(uint64_t client, const std::string& kind,
                            const std::string& path) const;

  // Increment strike count; true if the extension crossed `limit` and should
  // be evicted (caller performs the actual deregistration).
  bool RecordStrike(const std::string& name, int limit);

  static bool SubscriptionMatches(const Subscription& sub, bool is_event,
                                  const std::string& kind, const std::string& path);

 private:
  std::map<std::string, LoadedExtension> extensions_;
  uint64_t next_order_ = 1;
};

// Registration payload stored in the extension's surrogate data object:
// the owner id plus the verified source (§3.8 makes the manager stateless).
std::string EncodeRegistration(uint64_t owner, const std::string& source);
Result<std::pair<uint64_t, std::string>> DecodeRegistration(const std::string& blob);

}  // namespace edc

#endif  // EDC_EXT_REGISTRY_H_
