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
// acknowledgments and deregistrations are ordinary out/inp operations on it
// (intercepted here), and the registry is rebuilt from those tuples after a
// restart (§3.8).

#ifndef EDC_EXT_DS_BINDING_H_
#define EDC_EXT_DS_BINDING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "edc/ds/hooks.h"
#include "edc/ds/server.h"
#include "edc/ext/core.h"

namespace edc {

class DsExtensionManager : public DsServerHooks {
 public:
  DsExtensionManager(DsServer* server, ExtensionLimits limits);

  // DsServerHooks.
  bool MatchesOperation(NodeId client, const DsOp& op) const override;
  DsExecOutcome HandleOperation(DsExecContext* ctx, NodeId client, const DsOp& op) override;
  void DispatchEvents(DsExecContext* ctx, const std::vector<DsEvent>& events) override;
  bool AllowUnblock(NodeId client, const DsTemplate& templ, const DsTuple& tuple) override;
  void OnStateReloaded() override;

  const ExtensionRegistry& registry() const { return core_.registry(); }
  const VerifierConfig& verifier_config() const { return core_.verifier_config(); }

 private:
  DsExecOutcome HandleEmTraffic(DsExecContext* ctx, NodeId client, const DsOp& op);
  // Removes the extension's /em tuples and unloads it. Every replica runs
  // this at the same point of the order, so eviction is deterministic too.
  void Deregister(DsExecContext* ctx, std::string name);

  DsServer* server_;
  ExtensionManagerCore core_;
};

}  // namespace edc

#endif  // EDC_EXT_DS_BINDING_H_
