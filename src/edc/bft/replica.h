// PBFT-style Byzantine fault-tolerant state machine replication.
//
// 3f+1 replicas; clients multicast requests to all of them and accept a
// result once f+1 replicas sent matching replies. The primary of view v
// (members[v mod n]) assigns sequence numbers and deterministic timestamps in
// PRE-PREPARE; replicas exchange PREPARE (2f+1 matching, counting the
// primary's pre-prepare) and COMMIT (2f+1) before executing in sequence
// order.
//
// Batching (as in BFT-SMaRt): one sequence number orders a batch of
// requests, and PREPARE/COMMIT vote on a digest that folds the per-request
// digests. When the primary buffers a request it queues one zero-cost flush
// item on its own CpuQueue; the item runs after every packet already queued
// on the core, so the requests among them join the batch, and it proposes
// everything pending as one PRE-PREPARE. On an idle core the flush runs at
// the same simulated instant, so a lone request goes out as a batch of one
// without delay. The primary also flushes after execution, after a stable
// checkpoint and on entering a new view. There is no batch-size or delay
// knob. Execution unpacks the batch: Execute() is called once per request
// with an op number that rises by one across batches and the timestamp
// batch ts + index, which strictly increases because the primary stamps the
// next batch past the previous one's last request.
//
// View change (simplified but quorum-sound): a backup that buffers a client
// request and sees no execution within `kRequestTimeout` broadcasts
// VIEW-CHANGE carrying its prepared batches, each tagged with the view it
// was prepared in. On 2f+1 such messages the new primary re-proposes, per
// sequence number, the batch prepared in the highest view (gaps padded with
// empty no-op batches) in a NEW-VIEW, then re-proposes any still-unordered
// buffered requests. Replicas accept a NEW-VIEW only from the new view's
// primary. Because every committed batch is prepared at 2f+1 replicas, it
// appears in any 2f+1-message view-change quorum, so committed state
// survives primary failure. Fault injection for tests: SetEquivocate() makes
// a Byzantine primary stamp different timestamps per backup, which prevents
// agreement and drives the ensemble through a view change.
//
// Checkpoints, log GC and state transfer (docs/bft_recovery.md): every
// `kCheckpointInterval` executed sequence numbers (batches, as in PBFT) a
// replica fingerprints its full state (a header with the executed sequence
// number and op count, the service snapshot and the bounded request-dedup
// summary) and broadcasts CHECKPOINT(seq, digest). On 2f+1 matching digests the
// checkpoint is stable: the low watermark advances to it, entries at or
// below it are garbage-collected, and pre-prepares outside
// (low, low + kWatermarkWindow] are rejected. A replica that detects f+1
// peers vouching for a checkpoint above its own execution point (after a
// restart, or having slept through a partition) fetches the state with
// STATE-REQUEST/STATE-RESPONSE, verifies the payload hash against the f+1
// votes, installs it, and resumes ordered execution from there. Checkpoint
// messages also carry the sender's view, so a rejoining replica adopts any
// view that f+1 peers claim.
//
// Omitted relative to full PBFT (documented scope): MACs/signatures
// (authenticated point-to-point links are assumed, as in the simulator).

#ifndef EDC_BFT_REPLICA_H_
#define EDC_BFT_REPLICA_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "edc/bft/messages.h"
#include "edc/obs/obs.h"
#include "edc/sim/cpu.h"
#include "edc/sim/costs.h"
#include "edc/sim/event_loop.h"
#include "edc/sim/network.h"

namespace edc {

// Outcome of executing one ordered request at the service layer.
struct BftExecOutcome {
  // Extra CPU the execution consumed (extension steps etc.); the replica
  // occupies its core for this long before processing further messages.
  Duration cpu_cost = 0;
};

class BftCallbacks {
 public:
  virtual ~BftCallbacks() = default;
  // Deterministic execution of the request ordered at (seq, ts). The service
  // sends client replies itself via BftReplica::SendReply.
  virtual BftExecOutcome Execute(uint64_t seq, SimTime ts, const BftRequest& request) = 0;

  // Serializes the full service state machine. Must be a pure function of
  // the executed history (all replicas at the same sequence number return
  // identical bytes), since the checkpoint digest hashes it. Defaults model
  // a stateless service so protocol-only tests need no snapshot plumbing.
  virtual std::vector<uint8_t> TakeSnapshot() { return {}; }
  // Replaces the service state machine with a transferred snapshot.
  virtual Status RestoreSnapshot(const std::vector<uint8_t>& snapshot) {
    (void)snapshot;
    return Status::Ok();
  }
};

class BftReplica {
 public:
  // A backup that waits this long on a request it saw but the primary has not
  // ordered suspects the primary and starts a view change.
  static constexpr Duration kRequestTimeout = Millis(300);
  // Checkpoint every K executed sequence numbers (batches)...
  static constexpr uint64_t kCheckpointInterval = 8;
  // ...and accept pre-prepares only within (low, low + window]. Must be a
  // multiple of the interval and at least 2x it, or ordering can wedge with
  // no checkpoint boundary inside the window.
  static constexpr uint64_t kWatermarkWindow = 32;
  static_assert(kWatermarkWindow % kCheckpointInterval == 0 &&
                kWatermarkWindow >= 2 * kCheckpointInterval);
  // Per-client executed-request-id memory: ids more than this far below the
  // client's newest executed id are treated as already executed (GC'd at
  // checkpoint boundaries so the dedup map stays bounded).
  static constexpr uint64_t kDedupWindow = 64;

  // `members` is the replica group, `self` among them. It tolerates
  // BftFaultThreshold(members.size()) faulty replicas.
  BftReplica(EventLoop* loop, Network* net, CpuQueue* cpu, const CostModel& costs, NodeId self,
             std::vector<NodeId> members, BftCallbacks* callbacks);

  BftReplica(const BftReplica&) = delete;
  BftReplica& operator=(const BftReplica&) = delete;

  // Start and Crash each begin a new incarnation of the host's CpuQueue:
  // timers and queued packets of the previous one never run.
  void Start();
  void Crash();
  void Restart();  // Rejoins with empty state and probes peers for the
                   // latest stable checkpoint (state transfer), so a
                   // restarted replica catches up even in an idle cluster.

  void HandlePacket(Packet&& pkt);
  void SendReply(NodeId client, uint64_t req_id, std::vector<uint8_t> payload);

  bool running() const { return running_; }
  uint64_t view() const { return view_; }
  bool is_primary() const { return running_ && PrimaryOf(view_) == self_; }
  uint64_t last_executed() const { return last_executed_; }
  uint64_t executed_ops() const { return executed_ops_; }

  // Checkpoint/GC observability (harness invariants and recovery tests).
  uint64_t low_watermark() const { return low_watermark_; }
  uint64_t watermark_window() const { return kWatermarkWindow; }
  size_t log_entries() const { return entries_.size(); }
  uint64_t min_entry_seq() const { return entries_.empty() ? 0 : entries_.begin()->first; }
  size_t dedup_ids() const;       // total request ids tracked across clients
  int64_t state_transfers() const { return state_transfers_; }

  // Fault injection: primary stamps a different timestamp per backup.
  void SetEquivocate(bool on) { equivocate_ = on; }

 private:
  struct Entry {
    uint64_t view = 0;
    SimTime ts = 0;
    uint64_t digest = 0;
    bool has_batch = false;
    BftBatch batch;
    std::set<NodeId> prepares;
    std::set<NodeId> commits;
    bool sent_commit = false;
    bool executed = false;
  };

  // Bounded per-client dedup: ids <= floor are treated as executed; ids
  // above it are tracked exactly. GC'd at checkpoint boundaries (a
  // deterministic point of the execution stream, so snapshots of replicas at
  // the same sequence number are byte-identical).
  struct ClientDedup {
    uint64_t floor = 0;
    std::vector<uint64_t> ids;  // sorted; a client's ids mostly arrive in order
  };

  size_t PrepareQuorum() const { return 2 * f_ + 1; }
  size_t CommitQuorum() const { return 2 * f_ + 1; }
  NodeId PrimaryOf(uint64_t view) const { return members_[view % members_.size()]; }
  bool InWindow(uint64_t seq) const {
    return seq > low_watermark_ && seq <= low_watermark_ + kWatermarkWindow;
  }

  void SendTo(NodeId dst, BftMsgType type, std::vector<uint8_t> payload);
  void BroadcastToReplicas(BftMsgType type, const std::vector<uint8_t>& payload);
  void Process(Packet&& pkt);

  void OnRequest(BftRequest&& req);
  void ScheduleFlush();
  void ProposePending();
  void Propose(BftBatch batch);
  void OnPrePrepare(NodeId from, PrePrepareMsg&& msg);
  void OnPrepare(NodeId from, const PhaseMsg& msg);
  void OnCommit(NodeId from, const PhaseMsg& msg);
  void CheckPrepared(uint64_t seq);
  void CheckCommitted(uint64_t seq);
  void TryExecute();
  void ExecuteRequest(const BftRequest& req, SimTime ts);

  void ArmRequestTimer();
  void OnRequestTimeout();
  void StartViewChange(uint64_t new_view);
  void OnViewChange(NodeId from, ViewChangeMsg&& msg);
  void OnNewView(NodeId from, NewViewMsg&& msg);
  void AdoptEntry(const PreparedEntry& e, uint64_t view);

  // Every change to the batches held in entries_ goes through these three,
  // so ordered_in_window_ always indexes exactly those batches' requests.
  void SetBatch(Entry& entry, BftBatch batch);
  void EraseEntries(std::map<uint64_t, Entry>::iterator first,
                    std::map<uint64_t, Entry>::iterator last);
  void ClearEntries();

  bool AlreadyOrdered(const BftRequest& req) const;
  void MarkExecuted(NodeId client, uint64_t req_id);

  // ---- checkpointing / GC / state transfer ----
  std::vector<uint8_t> ComposeCheckpoint();  // state at last_executed_
  void TakeLocalCheckpoint();                // every kCheckpointInterval execs
  void GcDedup();
  void OnCheckpoint(NodeId from, const CheckpointMsg& msg);
  void OnStateRequest(NodeId from, const StateRequestMsg& msg);
  void OnStateResponse(NodeId from, StateResponseMsg&& msg);
  void AddCheckpointVote(NodeId from, uint64_t seq, uint64_t digest,
                         uint64_t claimed_view);
  void MaybeAdoptView();
  void MakeStable(uint64_t seq);
  void MaybeInstallState();
  bool InstallCheckpoint(uint64_t seq, const std::vector<uint8_t>& state);
  void ScheduleCatchupProbe();

  EventLoop* loop_;
  Network* net_;
  CpuQueue* cpu_;
  CostModel costs_;
  const NodeId self_;
  const std::vector<NodeId> members_;  // size 3f+1
  const size_t f_;
  BftCallbacks* callbacks_;

  bool running_ = false;
  bool equivocate_ = false;

  uint64_t view_ = 0;
  bool view_changing_ = false;
  uint64_t vc_target_ = 0;  // highest view we have demanded a change to
  uint64_t next_seq_ = 0;  // primary only
  uint64_t last_executed_ = 0;  // sequence numbers (batches)
  uint64_t executed_ops_ = 0;   // requests; the op number Execute() receives
  bool flush_scheduled_ = false;  // primary: a batch flush is queued on the core
  SimTime last_ts_ = 0;
  SimTime last_exec_ts_ = 0;  // ts of the last executed request (checkpointed)

  std::map<uint64_t, Entry> entries_;  // by seq, within the watermark window
  // (client, req_id) of the requests in entries_' batches -> number of
  // batches holding it; AlreadyOrdered's window check.
  struct RequestIdHash {
    size_t operator()(const std::pair<NodeId, uint64_t>& id) const {
      return std::hash<uint64_t>{}((id.second * 0x9E3779B97F4A7C15ull) ^ id.first);
    }
  };
  std::unordered_map<std::pair<NodeId, uint64_t>, uint32_t, RequestIdHash> ordered_in_window_;
  std::deque<BftRequest> pending_;     // buffered, not yet pre-prepared
  std::map<NodeId, ClientDedup> executed_reqs_;  // bounded dedup

  std::map<uint64_t, std::map<NodeId, ViewChangeMsg>> view_changes_;  // by new_view

  // Checkpoint protocol state.
  uint64_t low_watermark_ = 0;  // latest stable checkpoint
  std::map<uint64_t, uint64_t> own_checkpoints_;  // seq -> our digest
  std::map<uint64_t, std::map<NodeId, uint64_t>> checkpoint_votes_;  // seq -> node -> digest
  // seq -> digest -> payload whose hash matches that digest (a Byzantine
  // responder can only add a bogus digest entry, never displace an honest one).
  std::map<uint64_t, std::map<uint64_t, std::vector<uint8_t>>> offered_states_;
  std::map<NodeId, uint64_t> claimed_views_;  // newest view each peer reported
  uint64_t own_state_seq_ = 0;          // seq of our latest composed checkpoint
  std::vector<uint8_t> own_state_;      // its bytes (served to lagging peers)
  uint64_t fetch_target_ = 0;  // checkpoint seq currently being fetched (0 = none)
  int probe_budget_ = 0;       // remaining catch-up probes after a restart
  int64_t state_transfers_ = 0;

  // Observability (the loop's Obs, while it is on): prepare/commit/
  // checkpoint/state-transfer counters, plus request trace propagation — the
  // context active when a client request first arrives is remembered per
  // (client, req_id) and restored around Execute, so the ordered execution
  // and the reply stay attributed to the originating operation.
  struct RequestTrace {
    TraceContext ctx;
    SimTime at = 0;
  };
  Counter* m_prepares_;
  Counter* m_commits_;
  Counter* m_checkpoints_;
  Counter* m_state_transfers_;
  std::map<std::pair<NodeId, uint64_t>, RequestTrace> request_trace_;
  static constexpr size_t kMaxTrackedCheckpoints = 64;  // Byzantine spam bound

  TimerId request_timer_ = kInvalidTimer;
  uint64_t exec_at_arm_ = 0;  // progress marker: last_executed_ when armed
};

}  // namespace edc

#endif  // EDC_BFT_REPLICA_H_
