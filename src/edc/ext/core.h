// The service-independent half of the extension manager (paper §3–§4).
//
// Both bindings hold one ExtensionManagerCore. It owns the registry, the
// sandbox limits and the verifier settings, makes every decision about the
// /em namespace (the client write rules, one admission per registration,
// the registry following /em entries), selects and dispatches handlers
// through one sandbox host (with the step cost and the ext.* counters
// recorded on one path), and keeps the strike count. What the bindings keep
// is what §5.1 and §5.2 make different: the /em path format (an EmLayout)
// and how /em entries are written, where a handler runs and how its writes
// reach the replicas (EZK: on the primary, shipped as multi-txn deltas; EDS:
// inline on every replica), expressed as a StateProxy over the service's
// own state.

#ifndef EDC_EXT_CORE_H_
#define EDC_EXT_CORE_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "edc/common/result.h"
#include "edc/common/strings.h"
#include "edc/ext/registry.h"
#include "edc/obs/obs.h"
#include "edc/script/host_api.h"
#include "edc/sim/costs.h"
#include "edc/sim/time.h"

namespace edc {

// Per-service state behind the sandbox. Arguments arrive checked: arity,
// string paths, budgets and the /em write guard are the host's job.
// Collections may be returned whole; the host applies the cap.
class StateProxy {
 public:
  virtual ~StateProxy() = default;
  virtual uint64_t client() const = 0;
  virtual size_t state_ops() const = 0;
  virtual Value Read(const std::string& path) = 0;  // null when missing
  virtual bool Exists(const std::string& path) = 0;
  virtual Result<ValueList> Children(const std::string& path) = 0;
  virtual Result<ValueList> SubObjects(const std::string& path) = 0;
  virtual Result<std::string> Create(const std::string& path, const std::string& data,
                                     bool ephemeral, bool sequential) = 0;
  virtual Status Delete(const std::string& path) = 0;
  virtual Status Update(const std::string& path, const std::string& data) = 0;
  virtual Result<bool> Cas(const std::string& path, const std::string& expected,
                           const std::string& next) = 0;
  // The object if it exists; otherwise registers a wait and returns null.
  virtual Value Block(const std::string& path) = 0;
  // Only the EZK set exposes these (§4.1.1).
  virtual SimTime Now() { return 0; }
  virtual int64_t Random(int64_t /*bound*/) { return 0; }
  // Block registered a wait: the reply is deferred until it fires.
  bool blocked() const { return blocked_; }

 protected:
  bool blocked_ = false;
};

// The one sandbox host (§4.1.2): looks the call up in the host table, then
// checks the state-op budget, arity, the path type, the create budget and
// the /em write guard, in that order, before the proxy sees it.
class SandboxHost : public ScriptHost {
 public:
  SandboxHost(StateProxy* proxy, const ExtensionLimits& limits, HostSet set)
      : proxy_(proxy), limits_(limits), set_(set) {}

  bool HasFunction(const std::string& name) const override;
  Result<Value> Call(const std::string& name, std::vector<Value>& args) override;

 private:
  StateProxy* proxy_;
  const ExtensionLimits& limits_;
  HostSet set_;
  size_t created_ = 0;
};

// One finished invocation: the handler's result, its simulated CPU charge
// (ext_invoke_cpu + steps × ext_step_cpu) and whether the strike that a
// failure added reached ExtensionLimits::strike_limit.
struct Invocation {
  Result<Value> result = Value();
  Duration cpu = 0;
  bool evict = false;
};

// A client write under kEmRoot: a plain create (no ephemeral, sequential or
// lease flavour), a delete of one exact path, or anything else.
enum class EmWrite { kCreate, kDelete, kOther };

// A client write the /em rules admit.
struct EmRequest {
  enum class Kind { kRegister, kAcknowledge, kDeregister };
  Kind kind = Kind::kRegister;
  std::string name;          // the extension
  std::string registration;  // kRegister: the entry's data (owner + source)
};

class ExtensionManagerCore {
 public:
  // `costs` is the replica's cost model: it prices admission and every
  // handler run.
  ExtensionManagerCore(const ExtensionLimits& limits, const CostModel& costs, HostSet set,
                       EmLayout layout);

  const ExtensionLimits& limits() const { return limits_; }
  ExtensionRegistry& registry() { return registry_; }
  const ExtensionRegistry& registry() const { return registry_; }
  const VerifierConfig& verifier_config() const { return verifier_config_; }

  // The /em rules for a client write (§3.6, §5.2.2): a client may register
  // kEmRoot/<name> (the source passes admission; its verification CPU is
  // added to `*cpu` whether or not it does), acknowledge a loaded extension
  // as itself, and deregister what it registered (kNoNode if nothing is).
  // Every other write is kAccessDenied. The binding then writes the entry
  // (refusing a taken name), or deletes the registration with its
  // acknowledgments.
  Result<EmRequest> AdmitClientWrite(EmWrite write, const std::string& path, uint64_t client,
                                     const std::string& data, Duration* cpu);
  // The registry follows an /em entry that appeared (every replica, in
  // order): a registration is installed, reusing this replica's admission
  // of it if any, and an acknowledgment is recorded.
  void Created(const std::string& path, const std::string& data, Obs* obs);
  // ... and one that disappeared.
  void Removed(const std::string& path);
  // Forgets every extension. A reload (after a snapshot, a checkpoint or a
  // restart) then replays each /em entry through Created, as they were
  // made: registrations in order, each before its acknowledgments.
  void Clear();

  // The op handler named for `kind`, or handle_op with an op map. Failures
  // add a strike, successes clear them.
  Invocation RunOperation(const LoadedExtension& ext, const std::string& kind,
                          const std::string& path, const std::string& data, StateProxy* proxy,
                          Obs* obs);
  // The handler an event of `kind` runs: the one named for it, else
  // handle_event; nullptr when the extension has neither.
  static const char* EventHandler(const LoadedExtension& ext, const std::string& kind);
  // Runs event `handler` on `path`. Strikes as RunOperation.
  Invocation RunEvent(const LoadedExtension& ext, const char* handler, const std::string& path,
                      StateProxy* proxy, Obs* obs);
  // The single dispatch path: runs `handler` in a sandbox exposing `set`,
  // charges its steps and records the ext.* counters. No strikes.
  Invocation Invoke(const LoadedExtension& ext, const std::string& handler,
                    std::vector<Value> args, StateProxy* proxy, HostSet set, Obs* obs);

 private:
  Invocation Settle(const std::string& name, Invocation inv);

  ExtensionLimits limits_;
  CostModel costs_;
  HostSet set_;
  EmLayout layout_;
  VerifierConfig verifier_config_;
  ExtensionRegistry registry_;
  // Admitted here, not yet Created, by name: the registration data and the
  // ready extension (a failed write's stays until the name is reused).
  std::map<std::string, std::pair<std::string, LoadedExtension>> admitted_;
};

}  // namespace edc

#endif  // EDC_EXT_CORE_H_
