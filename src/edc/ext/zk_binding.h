// EXTENSIBLE ZOOKEEPER binding (paper §5.1).
//
// Plugs the extension manager into the ZkServer hook points:
//   * replica-side subscription matching routes extension-subscribed
//     operations (even reads) through the primary;
//   * at the primary's preprocessor stage, the matching extension executes
//     in the shared sandbox (edc/ext/core.h) over a state proxy on the
//     leader's PrepSession — every state change lands in one
//     multi-transaction, and the extension result is piggybacked on it
//     (§5.1.2);
//   * registrations, acknowledgments and deregistrations are plain creates
//     and deletes under /em that the core's rules admit at prep (a
//     registration is stored with its owner, a deregistration takes the
//     acknowledgments with it); every replica's manager follows the applied
//     transactions (or reloads from a snapshot), which is the paper's
//     fault-tolerance story (§3.8);
//   * event extensions run at the primary when a transaction's events match;
//     their writes are proposed as follow-up internal transactions with a
//     bounded chain depth; matching client notifications are suppressed.
//
// Being primary-backup, EZK may expose nondeterministic host functions
// (now, random) — only the primary executes the script (§4.1.1).

#ifndef EDC_EXT_ZK_BINDING_H_
#define EDC_EXT_ZK_BINDING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "edc/common/rng.h"
#include "edc/ext/core.h"
#include "edc/zk/hooks.h"
#include "edc/zk/server.h"

namespace edc {

class ZkExtensionManager : public ZkServerHooks {
 public:
  ZkExtensionManager(ZkServer* server, ExtensionLimits limits);

  // ZkServerHooks.
  bool MatchesOperation(uint64_t session, const ZkOp& op) const override;
  ZkPrepOutcome HandleOperation(PrepSession* prep, uint64_t session, const ZkOp& op) override;
  void AfterApply(const ZkTxn& txn, const std::vector<ZkEvent>& events,
                  bool is_leader) override;
  bool SuppressNotification(uint64_t session, const ZkEvent& event) const override;
  void OnStateReloaded() override;

  const ExtensionRegistry& registry() const { return core_.registry(); }
  const VerifierConfig& verifier_config() const { return core_.verifier_config(); }

  // Maximum extension-triggered transaction chain length.
  static constexpr uint8_t kMaxEventDepth = 4;

 private:
  ZkPrepOutcome HandleEmWrite(PrepSession* prep, uint64_t session, const ZkOp& op,
                              EmWrite write);
  void RunEventExtensions(const ZkEvent& event, const std::string& kind, uint8_t depth);
  // Deletes the registration and its acknowledgments in `prep`: a client's
  // deregistration and an eviction are one transaction each.
  static Status Deregister(PrepSession* prep, const std::string& name);
  void EvictExtension(const std::string& name);

  ZkServer* server_;
  ExtensionManagerCore core_;
  Rng ext_rng_{0xE27};  // leader-only nondeterminism source for random()
};

}  // namespace edc

#endif  // EDC_EXT_ZK_BINDING_H_
