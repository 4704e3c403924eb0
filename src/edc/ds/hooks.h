// Extension hook points of the DepSpace-like server.
//
// EDS inserts the extension manager at the BOTTOM of the replica stack
// (paper Fig. 4): every ordered request passes it first, so operation
// extensions can consume requests before policy enforcement and access
// control see them, while the state operations an extension issues still go
// through those upper layers (via DsExecContext). Because requests execute
// deterministically on every replica, extension execution needs no
// multi-transaction machinery — it simply runs inside Execute everywhere.

#ifndef EDC_DS_HOOKS_H_
#define EDC_DS_HOOKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "edc/common/result.h"
#include "edc/ds/types.h"
#include "edc/sim/network.h"
#include "edc/sim/time.h"

namespace edc {

class DsExecContext;

struct DsEvent {
  enum class Type { kCreated, kDeleted, kChanged };
  Type type = Type::kCreated;
  DsTuple tuple;
};

struct DsExecOutcome {
  bool handled = false;
  Status status;           // non-OK: error reply
  bool has_result = false;
  std::string result;
  bool deferred = false;   // reply comes later via an unblock
  Duration cpu_cost = 0;   // extension execution time, charged per replica
};

class DsServerHooks {
 public:
  virtual ~DsServerHooks() = default;

  // Bottom-of-stack interception: if an extension (registered/acknowledged
  // by `client`) — or the extension manager itself (/em traffic) — claims
  // this operation, execute it deterministically and return handled = true;
  // otherwise return an unhandled outcome and the server executes it.
  virtual DsExecOutcome HandleOperation(DsExecContext* ctx, NodeId client,
                                        const DsOp& op) = 0;

  // Dispatch event extensions for `events`; any state changes they make go
  // through `ctx` and surface as further events (the server loops with a
  // depth cap). Called on every replica.
  virtual void DispatchEvents(DsExecContext* ctx, const std::vector<DsEvent>& events) = 0;

  // A blocked operation of `client` is about to unblock with `tuple`;
  // event extensions may veto (re-block) it (§5.2.2).
  virtual bool AllowUnblock(NodeId client, const DsTemplate& templ, const DsTuple& tuple) = 0;

  // The tuple inserted with `seq` left the space (inp, replace, lease expiry
  // or an unblocked in). Not called when the whole state is replaced.
  virtual void OnTupleRemoved(uint64_t seq) = 0;

  // Full state replaced; rebuild registry from the tuple space.
  virtual void OnStateReloaded() = 0;
};

}  // namespace edc

#endif  // EDC_DS_HOOKS_H_
