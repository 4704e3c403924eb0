// Replica of the ZooKeeper-like coordination service.
//
// Each server is one simulated host: a CPU queue, a durable log, a Zab node,
// the data tree, and the request-processor pipeline. Reads are served by the
// replica the client is connected to (the fast path); updates — and any
// operation matching an extension subscription — are forwarded to the Zab
// leader, prepped into a deterministic transaction there, broadcast, and
// applied by every replica. The replica owning the client's session sends
// the reply when it applies the transaction (results, including extension
// results, are piggybacked on the transaction, §5.1.2).

#ifndef EDC_ZK_SERVER_H_
#define EDC_ZK_SERVER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "edc/logstore/logstore.h"
#include "edc/sim/cpu.h"
#include "edc/sim/costs.h"
#include "edc/sim/event_loop.h"
#include "edc/sim/network.h"
#include "edc/zab/node.h"
#include "edc/zk/data_tree.h"
#include "edc/zk/hooks.h"
#include "edc/zk/prep.h"
#include "edc/zk/txn.h"
#include "edc/zk/types.h"
#include "edc/zk/watch_manager.h"

namespace edc {

struct ZkServerOptions {
  LogStoreConfig log;
  // Zab replication (heartbeats, leader timeout, ack aggregation, observer
  // boot, promotion lag, auto-compaction; docs/reconfig.md).
  ZabConfig zab;
  Duration session_check_interval = Millis(200);
  // Test-only: deliver every watch notification twice. The conformance
  // checker's negative tests plant this bug to prove a single-fire violation
  // is caught and shrunk (docs/model_checking.md).
  bool test_double_fire_watches = false;
};

class ZkServer : public NetworkNode, public ZabCallbacks {
 public:
  // `log_pool` holds the log's record bytes; the replicas of one cluster
  // share one so each transaction is stored once (nullptr: a private pool).
  ZkServer(EventLoop* loop, Network* net, NodeId id, std::vector<NodeId> members,
           const CostModel& costs, ZkServerOptions options,
           std::shared_ptr<RecordPool> log_pool = nullptr);
  ~ZkServer() override = default;

  // Must be set before Start() if extensions are enabled; nullptr = plain
  // ZooKeeper.
  void SetHooks(ZkServerHooks* hooks) { hooks_ = hooks; }

  // Sharded deployments (docs/sharding.md): tell the replica which shard it
  // serves and the minimum shard-map version clients must route with.
  // Requests stamped with an older version are rejected at admission with
  // kShardMapStale (pings and session closes are exempt). The version only
  // ever moves forward; 0 (the default) disables the check entirely, so
  // standalone deployments behave exactly as before. Admission-level
  // configuration, not replicated state: reads are admitted per replica
  // anyway, and writes are checked before they enter the ordering pipeline.
  void SetShardInfo(uint32_t shard_id, uint64_t expected_map_version) {
    shard_id_ = shard_id;
    if (expected_map_version > expected_map_version_) {
      expected_map_version_ = expected_map_version;
    }
  }
  uint32_t shard_id() const { return shard_id_; }
  uint64_t expected_map_version() const { return expected_map_version_; }

  // Observability (nullable): forwards to the CPU queue, the log store and
  // the Zab node, all reporting into the shared registry/tracer.
  void SetObs(Obs* obs) {
    obs_ = obs;
    cpu_.SetObs(obs, static_cast<uint32_t>(id_));
    log_.SetObs(obs, static_cast<uint32_t>(id_));
    zab_->SetObs(obs);
  }
  Obs* obs() const { return obs_; }

  // Boots the replica: volatile state starts empty and the replicated state
  // is rebuilt from the durable log (docs/fault_model.md lists what a crash
  // keeps).
  void Start();
  // Simulated process crash: volatile state is lost, the host's incarnation
  // ends, and the node leaves the network.
  void Crash();
  // Rejoins the network, then boots exactly as Start() does.
  void Restart();

  // NetworkNode.
  void HandlePacket(Packet&& pkt) override;

  // ZabCallbacks.
  void OnDeliver(uint64_t zxid, std::span<const uint8_t> txn) override;
  void OnRoleChange(bool leader, NodeId leader_id, uint32_t epoch) override;
  std::vector<uint8_t> TakeSnapshot() override;
  // Transactional: decodes every section into temporaries and swaps only on
  // full success. Returns false — with zero state mutated — on any framing,
  // checksum or structural failure, so the Zab layer can re-request the
  // snapshot instead of running on a half-installed tree.
  bool InstallSnapshot(uint64_t zxid, const std::vector<uint8_t>& snapshot) override;
  // A reconfiguration activated at `zxid`: push the new ensemble to every
  // connected client, complete a pending admin reconfig reply, and stop
  // serving if this replica was removed.
  void OnMembershipChange(uint64_t zxid, const ZabMembership& membership) override;

  // Introspection (extension manager, tests, benches).
  NodeId id() const { return id_; }
  SimTime now() const { return loop_->now(); }
  bool IsLeader() const { return zab_->is_leader(); }
  NodeId leader() const { return zab_->leader(); }
  bool running() const { return running_; }
  const DataTree& tree() const { return tree_; }
  ZabNode& zab() { return *zab_; }
  CpuQueue& cpu() { return cpu_; }
  const CostModel& costs() const { return costs_; }
  const LogStore& log() const { return log_; }
  // (zxid, FNV-1a of txn bytes) for every transaction applied since the last
  // boot/snapshot, in delivery order. Invariant checkers compare the zxid
  // overlap of these across replicas (prefix consistency).
  const std::vector<std::pair<uint64_t, uint64_t>>& applied_log() const {
    return applied_log_;
  }

  // History observation for the model-conformance checker: invoked for every
  // decoded transaction this replica applies, in delivery order (including
  // log replay after a restart — zxids repeat across the reboot, the checker
  // merges by zxid).
  using CommitObserver =
      std::function<void(uint64_t zxid, const ZkTxn& txn, uint64_t txn_hash)>;
  void SetCommitObserver(CommitObserver observer) { commit_observer_ = std::move(observer); }

  // --- services for the extension manager -------------------------------
  // Leader-only: open a prep session for an internal (event-extension)
  // transaction. `session` is the privilege context (0 = server).
  std::unique_ptr<PrepSession> BeginInternalPrep(uint64_t session);
  // Broadcast the ops accumulated in `prep` as one multi-transaction.
  // `ext_depth` tags extension-generated chains (see ZkTxn::ext_depth).
  bool ProposeFromPrep(PrepSession* prep, bool has_result, std::string result,
                       Duration extra_cpu, uint8_t ext_depth = 0);
  uint64_t AllocInternalReqId() { return ++internal_req_counter_; }

 private:
  struct SessionInfo {
    uint32_t owner = 0;
    Duration timeout = 0;
    SimTime last_seen = 0;  // meaningful on the owner replica only
  };
  // Path -> (session, req_id) of each client blocked on its creation.
  using BlockTableMap = std::map<std::string, std::vector<std::pair<uint64_t, uint64_t>>>;

  // Snapshot sections (fields in wire order); `last_seen` is not replicated.
  template <class Io>
  static void SessionTable(Io& io, std::map<uint64_t, SessionInfo>& sessions) {
    io.List(sessions, [&](auto& s) {
      io.U64(s.first);
      io.U32(s.second.owner);
      io.I64(s.second.timeout);
    });
  }
  template <class Io>
  static void BlockTable(Io& io, BlockTableMap& blocks) {
    io.List(blocks, [&](auto& b) {
      io.Str(b.first);
      io.List(b.second, [&](auto& w) {
        io.U64(w.first);
        io.U64(w.second);
      });
    });
  }

  bool OwnerReplicaDead(const SessionInfo& info) const;

  void StartSessionTimer();
  void CheckSessions();

  void ProcessClientPacket(Packet&& pkt);
  void OnConnect(Packet&& pkt);
  void OnClientRequest(Packet&& pkt);
  void ServeRead(uint64_t session, const ZkRequestMsg& msg, NodeId client);
  void RouteToLeader(uint32_t origin, const ZkRequestMsg& msg);
  void PrepAndPropose(uint32_t origin, ZkRequestMsg msg);
  void DoPrep(uint32_t origin, ZkRequestMsg msg);
  // Leader-side handling of an admin kReconfig request: parse the
  // single-change spec against the live membership and replicate it through
  // the Zab log. The reply is sent when the change activates (or fails).
  void DoReconfig(uint32_t origin, const ZkRequestMsg& msg);
  Status ParseReconfigSpec(const std::string& spec, ZabMembership* next) const;

  void ApplyTxn(uint64_t zxid, const ZkTxn& txn);
  static bool TxnIsDeferred(const ZkTxn& txn);

  void RouteReply(uint32_t origin, uint64_t session, ZkReplyMsg reply);
  void SendReplyToClient(uint64_t session, const ZkReplyMsg& reply);
  void SendPacket(NodeId dst, ZkMsgType type, std::vector<uint8_t> payload);

  EventLoop* loop_;
  Network* net_;
  NodeId id_;
  CostModel costs_;
  ZkServerOptions options_;
  CpuQueue cpu_;
  LogStore log_;
  std::unique_ptr<ZabNode> zab_;
  ZkServerHooks* hooks_ = nullptr;
  Obs* obs_ = nullptr;

  bool running_ = false;
  uint32_t shard_id_ = 0;
  uint64_t expected_map_version_ = 0;  // survives Crash()/Restart()

  // Replicated state machine.
  DataTree tree_;
  std::map<uint64_t, SessionInfo> sessions_;
  BlockTableMap block_table_;

  // Leader-only pipeline state.
  std::deque<PendingDelta> outstanding_;

  // Leader-only: the admin reconfig awaiting activation (at most one — Zab
  // rejects a second while one is in flight). Cleared on role change.
  struct PendingReconfig {
    bool active = false;
    uint32_t origin = 0;
    uint64_t session = 0;
    uint64_t req_id = 0;
  };
  PendingReconfig pending_reconfig_;

  // Connection-local volatile state.
  struct PendingConnect {
    NodeId client = 0;
    uint64_t old_session = 0;  // session the client held before reconnecting
  };
  WatchManager watch_mgr_;
  std::map<uint64_t, NodeId> client_nodes_;
  std::map<uint64_t, PendingConnect> pending_connects_;
  std::set<uint64_t> expiring_sessions_;
  uint64_t session_counter_ = 0;
  uint64_t internal_req_counter_ = 0;
  std::vector<std::pair<uint64_t, uint64_t>> applied_log_;  // (zxid, txn hash)
  SimTime leader_since_ = 0;  // when this replica last became leader
  TimerId session_timer_ = kInvalidTimer;
  CommitObserver commit_observer_;
};

}  // namespace edc

#endif  // EDC_ZK_SERVER_H_
