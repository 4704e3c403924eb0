// Leader-side request preprocessing (ZooKeeper's PrepRequestProcessor).
//
// Between proposing a transaction and committing it, the leader's tree does
// not yet reflect it; a second request prepped in that window must still see
// the first one's effects or compare-and-swap pipelines would miss updates.
// ZooKeeper solves this with an "outstanding changes" overlay; PrepSession is
// that overlay. Reads consult (current txn delta) -> (outstanding deltas,
// newest first) -> committed tree; mutations validate against the same view
// and record both the deterministic ZkTxnOp and the delta.
//
// The extension sandbox's state proxy drives the same PrepSession, which is
// what makes an extension's operation sequence atomic: all of its ops land in
// one multi-transaction.

#ifndef EDC_ZK_PREP_H_
#define EDC_ZK_PREP_H_

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "edc/common/result.h"
#include "edc/zk/data_tree.h"
#include "edc/zk/txn.h"
#include "edc/zk/types.h"

namespace edc {

// Effects of one outstanding (proposed, uncommitted) transaction.
struct PendingDelta {
  struct NodeState {
    bool exists = false;
    std::string data;
    int32_t version = 0;
    uint64_t ephemeral_owner = 0;
    SimTime ctime = 0;
  };
  uint64_t session = 0;  // correlation key for retiring the delta on commit
  uint64_t req_id = 0;
  std::map<std::string, NodeState> nodes;
  std::map<std::string, uint64_t> next_seq;
  std::map<std::string, std::set<std::string>> children_added;
  std::map<std::string, std::set<std::string>> children_removed;
};

// View of a node through the overlay.
struct PrepNode {
  std::string data;
  int32_t version = 0;
  uint64_t ephemeral_owner = 0;
  SimTime ctime = 0;
};

class PrepSession {
 public:
  // `outstanding` are previously prepped, not-yet-committed deltas (oldest
  // first). The session id is used as ephemeral owner for ephemeral creates.
  PrepSession(const DataTree* tree, const std::deque<PendingDelta>* outstanding,
              uint64_t session, uint64_t req_id, SimTime now);

  // Reads through the overlay.
  bool Exists(const std::string& path) const;
  Result<PrepNode> Get(const std::string& path) const;
  Result<std::vector<std::string>> Children(const std::string& path) const;

  // Mutations: validate against the view, then record op + delta.
  Result<std::string> Create(const std::string& path, const std::string& data, bool ephemeral,
                             bool sequential);
  Status Delete(const std::string& path, int32_t version);
  Status SetData(const std::string& path, const std::string& data, int32_t version);
  // A client's create, delete or setData (alone or inside a multi); a
  // create's actual path goes to `*created` when it is non-null.
  Status Apply(const ZkOp& op, std::string* created);
  // Registers a server-side unblock: the owner replica replies to
  // (session, req_id) once `path` is created. Caller checks existence first.
  void Block(const std::string& path);
  void CreateSession(uint64_t session, uint32_t owner_replica, Duration timeout);
  void CloseSession(uint64_t session);

  // Accumulated transaction ops (empty if the request was read-only).
  std::vector<ZkTxnOp>& ops() { return ops_; }
  const std::vector<ZkTxnOp>& ops() const { return ops_; }
  uint64_t session() const { return delta_.session; }
  uint64_t req_id() const { return delta_.req_id; }
  PendingDelta TakeDelta();

  size_t state_ops_performed() const { return state_ops_; }

 private:
  // nullptr => unknown in overlays, fall through to tree.
  const PendingDelta::NodeState* OverlayNode(const std::string& path) const;

  const DataTree* tree_;
  const std::deque<PendingDelta>* outstanding_;
  uint64_t session_;
  SimTime now_;
  PendingDelta delta_;
  std::vector<ZkTxnOp> ops_;
  size_t state_ops_ = 0;
};

}  // namespace edc

#endif  // EDC_ZK_PREP_H_
