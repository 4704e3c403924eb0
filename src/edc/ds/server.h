// Replica of the DepSpace-like coordination service.
//
// Stack (paper Fig. 4, bottom-up): BFT ordering (edc/bft) -> extension
// manager hooks -> policy enforcement -> access control -> tuple space.
// Every request, including reads, is totally ordered and executed by every
// replica; clients multicast to all 3f+1 replicas and vote on f+1 matching
// replies (that asymmetry versus ZooKeeper's read fast path is exactly what
// the paper's KB/op measurements show in Fig. 8/10).
//
// Blocking semantics: rd/in with no match register a waiter and defer the
// reply; an out that produces a match unblocks all matching rd waiters and
// the single oldest in waiter (which consumes the tuple). Lease tuples
// expire deterministically against the ordered timestamp carried by each
// request.

#ifndef EDC_DS_SERVER_H_
#define EDC_DS_SERVER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "edc/bft/replica.h"
#include "edc/ds/hooks.h"
#include "edc/ds/tuple_space.h"
#include "edc/ds/types.h"
#include "edc/sim/cpu.h"
#include "edc/sim/costs.h"

namespace edc {

class DsServer;

// Access-control layer: per-operation admission by client id. The default
// denies regular access to the extension manager's /em namespace and allows
// everything else.
struct DsAccessControl {
  using CheckFn =
      std::function<Status(NodeId client, DsOpType type, const DsTuple* tuple,
                           const DsTemplate* templ)>;
  CheckFn check;  // empty = default rule
};

// Policy-enforcement layer: structural constraints on operations (e.g. tuple
// arity/size limits), applied after access control.
struct DsPolicy {
  using CheckFn = std::function<Status(const DsOp& op, size_t space_size)>;
  CheckFn check;  // empty = accept all
};

// The PBFT ordering layer has no knobs: its timeouts and windows are
// BftReplica constants and f follows from the replica group's size.
struct DsServerOptions {
  DsAccessControl access;
  DsPolicy policy;
};

// State-access facade handed to normal execution, extensions and event
// extensions alike: enforces access control + policy and records events.
class DsExecContext {
 public:
  DsExecContext(DsServer* server, NodeId client, uint64_t req_id, SimTime ts);

  Status Out(DsTuple tuple, Duration lease);
  Result<DsTuple> Rdp(const DsTemplate& templ);
  Result<DsTuple> Inp(const DsTemplate& templ);
  std::vector<DsEntry> RdAll(const DsTemplate& templ);
  // RdAll without the copies: calls `visit(const DsEntry&)` on each match in
  // insertion order until it returns false. The visit must not change the
  // space. A template access control denies visits nothing.
  template <typename Visit>
  void ForEachMatch(const DsTemplate& templ, Visit&& visit);
  Status Cas(const DsTemplate& templ, DsTuple tuple, Duration lease);
  Status Replace(const DsTemplate& templ, DsTuple tuple);
  size_t Renew(const DsTemplate& templ, Duration lease);
  // Defer the reply of (client, req_id) until a tuple matching `templ`
  // appears; `consume` = in semantics (remove on unblock).
  void Block(DsTemplate templ, bool consume);

  NodeId client() const { return client_; }
  uint64_t req_id() const { return req_id_; }
  SimTime ts() const { return ts_; }
  std::vector<DsEvent>& events() { return events_; }
  size_t state_ops() const { return state_ops_; }

  // Privileged (extension-manager layer) access, bypassing ACL: used for the
  // /em registry tuples regular clients must not touch.
  Status PrivilegedOut(DsTuple tuple);
  Result<DsTuple> PrivilegedInp(const DsTemplate& templ);

 private:
  DsServer* server_;
  NodeId client_;
  uint64_t req_id_;
  SimTime ts_;
  std::vector<DsEvent> events_;
  size_t state_ops_ = 0;

  friend class DsServer;
};

class DsServer : public NetworkNode, public BftCallbacks {
 public:
  // Cap on the unblock/event-extension cascade one operation may trigger.
  static constexpr size_t kMaxEventRounds = 8;

  DsServer(EventLoop* loop, Network* net, NodeId id, std::vector<NodeId> members,
           const CostModel& costs, DsServerOptions options);

  void SetHooks(DsServerHooks* hooks) { hooks_ = hooks; }

  // Observability (nullable): forwards to the CPU queue and the BFT replica,
  // both reporting into the shared registry/tracer.
  void SetObs(Obs* obs) {
    obs_ = obs;
    cpu_.SetObs(obs, static_cast<uint32_t>(id_));
    bft_->SetObs(obs);
  }
  Obs* obs() const { return obs_; }

  // Boots the replica with an empty tuple space (docs/fault_model.md).
  void Start();
  // Simulated process crash: volatile state is lost, the host's incarnation
  // ends, and the node leaves the network.
  void Crash();
  // Rejoins the network, boots as Start() does, and fetches the group's
  // state by state transfer.
  void Restart();

  // NetworkNode.
  void HandlePacket(Packet&& pkt) override;

  // BftCallbacks. The snapshot covers everything replicated execution
  // mutates: the tuple space, the blocked rd/in waiters (they consume tuples
  // when unblocked, so a transferred replica must carry them to stay digest-
  // identical), and the waiter ordering counter.
  BftExecOutcome Execute(uint64_t seq, SimTime ts, const BftRequest& request) override;
  std::vector<uint8_t> TakeSnapshot() override;
  Status RestoreSnapshot(const std::vector<uint8_t>& snapshot) override;

  NodeId id() const { return id_; }
  bool running() const { return running_; }
  // Replicated shard-map version (docs/sharding.md): raised only by an
  // ordered kSetMapVersion op, carried in snapshots, and rebuilt by log
  // replay — so every replica starts rejecting stale clients at the same
  // sequence number and execution digests stay identical across the group.
  uint64_t map_version() const { return map_version_; }
  const TupleSpace& space() const { return space_; }
  BftReplica& bft() { return *bft_; }
  CpuQueue& cpu() { return cpu_; }
  const CostModel& costs() const { return costs_; }

  // Fault injection passthrough.
  void SetEquivocate(bool on) { bft_->SetEquivocate(on); }

  // History observation for the model-conformance checker: invoked for every
  // ordered request this replica executes, in sequence order (noops
  // included). The checker merges execution streams across replicas by seq;
  // any divergence in (ts, request) at the same seq is a violation.
  using ExecObserver =
      std::function<void(uint64_t seq, SimTime ts, const BftRequest& request)>;
  void SetExecObserver(ExecObserver observer) { exec_observer_ = std::move(observer); }

 private:
  friend class DsExecContext;

  struct Waiter {
    DsTemplate templ;
    NodeId client = 0;
    uint64_t req_id = 0;
    bool consume = false;
    uint64_t order = 0;

    template <class Io>
    friend void Fields(Io& io, Waiter& w) {
      io.List(w.templ);
      io.U32(w.client);
      io.U64(w.req_id);
      io.Bool(w.consume);
      io.U64(w.order);
    }
  };

  void Boot(bool rejoin);
  Status CheckAccess(NodeId client, DsOpType type, const DsTuple* tuple,
                     const DsTemplate* templ) const;
  Status CheckPolicy(const DsOp& op) const;

  DsExecOutcome ExecuteNormal(DsExecContext* ctx, const DsOp& op);
  // Unblock waiters + run event extensions until quiescent (capped rounds).
  void ProcessEvents(DsExecContext* ctx, Duration* extra_cpu);
  void Reply(NodeId client, uint64_t req_id, const DsReply& reply);

  EventLoop* loop_;
  Network* net_;
  NodeId id_;
  CostModel costs_;
  DsServerOptions options_;
  CpuQueue cpu_;
  std::unique_ptr<BftReplica> bft_;
  DsServerHooks* hooks_ = nullptr;
  Obs* obs_ = nullptr;

  bool running_ = false;
  TupleSpace space_;
  std::vector<Waiter> waiters_;
  uint64_t map_version_ = 0;  // replicated; see map_version()
  uint64_t next_waiter_order_ = 1;
  ExecObserver exec_observer_;
};

template <typename Visit>
void DsExecContext::ForEachMatch(const DsTemplate& templ, Visit&& visit) {
  ++state_ops_;
  if (server_->CheckAccess(client_, DsOpType::kRdAll, nullptr, &templ).ok()) {
    server_->space_.ForEachMatch(templ, std::forward<Visit>(visit));
  }
}

}  // namespace edc

#endif  // EDC_DS_SERVER_H_
