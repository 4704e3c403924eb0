// EXTENSIBLE DEPSPACE binding (paper §5.2).
//
// The extension manager sits at the bottom of the replica stack: every
// ordered request passes it before policy enforcement and access control.
// Because the ordering protocol already executes every request on every
// replica, extensions simply run inline inside Execute — no multi-transaction
// machinery — but in exchange the verifier enforces full determinism: the
// EDS white list contains no now()/random() (§4.1.1).
//
// The /em tuple namespace is the manager's dedicated space: registrations,
// acknowledgments and deregistrations are ordinary out/inp operations on it,
// intercepted here and admitted by the core's rules, and the registry is
// rebuilt from those tuples after a restart or a state transfer (§3.8).

#ifndef EDC_EXT_DS_BINDING_H_
#define EDC_EXT_DS_BINDING_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "edc/ds/hooks.h"
#include "edc/ds/server.h"
#include "edc/ext/core.h"

namespace edc {

// The object map ({path, data, ctime, owner}) handlers see for each tuple,
// built once per tuple and shared: Values are immutable, so every read of
// the tuple can hand out the same one. Keyed by the tuple's unique seq; the
// manager drops a view when its tuple leaves the space and drops them all
// when the state is reloaded, so the cache never outgrows the live tuples.
class ObjectViews {
 public:
  Value Get(const DsEntry& entry);
  void Drop(uint64_t seq) { views_.erase(seq); }
  void Clear() { views_.clear(); }
  size_t size() const { return views_.size(); }

 private:
  std::unordered_map<uint64_t, Value> views_;
};

class DsExtensionManager : public DsServerHooks {
 public:
  DsExtensionManager(DsServer* server, ExtensionLimits limits);

  // DsServerHooks.
  DsExecOutcome HandleOperation(DsExecContext* ctx, NodeId client, const DsOp& op) override;
  void DispatchEvents(DsExecContext* ctx, const std::vector<DsEvent>& events) override;
  bool AllowUnblock(NodeId client, const DsTemplate& templ, const DsTuple& tuple) override;
  void OnTupleRemoved(uint64_t seq) override;
  void OnStateReloaded() override;

  const ExtensionRegistry& registry() const { return core_.registry(); }
  const VerifierConfig& verifier_config() const { return core_.verifier_config(); }
  const ObjectViews& views() const { return views_; }

 private:
  DsExecOutcome HandleEmTraffic(DsExecContext* ctx, NodeId client, const DsOp& op);
  // Removes the extension's /em tuples and unloads it. Every replica runs
  // this at the same point of the order, so eviction is deterministic too.
  void Deregister(DsExecContext* ctx, const std::string& name);

  DsServer* server_;
  ExtensionManagerCore core_;
  ObjectViews views_;
};

}  // namespace edc

#endif  // EDC_EXT_DS_BINDING_H_
