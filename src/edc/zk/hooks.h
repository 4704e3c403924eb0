// Extension hook points of the ZooKeeper-like server.
//
// The zk module knows nothing about CoordScript; the extension manager
// (edc/ext) plugs in through this interface at exactly the places §5.1.2 of
// the paper modifies ZooKeeper: request interception at the preprocessor
// stage, result piggybacking on the multi-transaction, and notification
// suppression for event extensions. A server without hooks is plain
// ZooKeeper — the §6.2 overhead benchmark compares the two.

#ifndef EDC_ZK_HOOKS_H_
#define EDC_ZK_HOOKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "edc/common/result.h"
#include "edc/sim/time.h"
#include "edc/zk/prep.h"
#include "edc/zk/txn.h"
#include "edc/zk/types.h"

namespace edc {

struct ZkEvent {
  ZkEventType type = ZkEventType::kNodeCreated;
  std::string path;
};

struct ZkPrepOutcome {
  bool handled = false;   // extension consumed the request
  Status status;          // non-OK: error reply, nothing broadcast
  bool has_result = false;
  std::string result;     // piggybacked extension result
  Duration extra_cpu = 0; // extension execution + sandbox time to charge
};

class ZkServerHooks {
 public:
  virtual ~ZkServerHooks() = default;

  // Replica-side routing: does any extension (registered or acknowledged by
  // `session`) subscribe to this operation? Matching requests take the
  // leader path even if they are reads.
  virtual bool MatchesOperation(uint64_t session, const ZkOp& op) const = 0;

  // Leader prep, for every op: a client write under /em follows the
  // extension manager's rules, carried out in `prep`; otherwise the matching
  // operation extension runs against `prep`. Other ops come back unhandled.
  virtual ZkPrepOutcome HandleOperation(PrepSession* prep, uint64_t session,
                                        const ZkOp& op) = 0;

  // Every replica, after a transaction applied (`events` are the tree events
  // it produced). The leader additionally dispatches event extensions here,
  // which may propose follow-up transactions.
  virtual void AfterApply(const ZkTxn& txn, const std::vector<ZkEvent>& events,
                          bool is_leader) = 0;

  // Owner-replica side: suppress the watch notification for `session`?
  // (true when an event extension took responsibility for the event, §5.1.2.)
  virtual bool SuppressNotification(uint64_t session, const ZkEvent& event) const = 0;

  // Full state was replaced (snapshot install / restart); rebuild any state
  // derived from the tree.
  virtual void OnStateReloaded() = 0;
};

}  // namespace edc

#endif  // EDC_ZK_HOOKS_H_
