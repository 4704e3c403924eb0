// Zab-style primary-backup atomic broadcast (the replication kernel under the
// ZooKeeper-like service, cf. Junqueira et al., "Zab: High-performance
// broadcast for primary-backup systems").
//
// Protocol phases implemented:
//   * Leader election — simplified fast leader election: LOOKING nodes
//     exchange votes carrying (currentEpoch, lastZxid, nodeId); the highest
//     credential wins once a quorum agrees. Settled nodes answer lookers with
//     LEADERINFO so recovering replicas converge quickly.
//   * Synchronization — a follower announces its last zxid (FOLLOWERINFO);
//     the leader responds with TRUNC (follower ahead), DIFF (missing tail) or
//     SNAP+DIFF (the compacted log no longer covers the gap), followed by
//     NEWLEADER. The leader activates broadcast after a quorum acks.
//   * Broadcast — leader assigns zxids (epoch<<32|counter), appends durably,
//     sends PROPOSE; followers append durably and ACK; quorum acks commit
//     in zxid order; COMMIT/heartbeats move the followers' commit frontier.
//     Since PR 7 this phase is pipelined: the leader streams proposals
//     without waiting for earlier batches' durability (the LogStore keeps
//     several fsync batches in flight), followers ack as their local batches
//     become durable — by default one cumulative ACK per durable batch
//     instead of one per record (ZabConfig::ack_aggregation) — and the
//     leader's commit point advances from a per-member cumulative ack window
//     (highest contiguously-durable zxid) rather than per-zxid ack sets.
//     Commits remain strictly zxid-ordered; see docs/replication_pipeline.md.
//
// Crash/recovery: Crash() wipes volatile state (the durable LogStore
// survives); Restart() reloads the log and re-enters election. Start, Crash
// and Retire each begin a new incarnation of the host's CpuQueue, so timers,
// queued packets and log callbacks of the previous one never run. Delivery
// replays from zxid 0 (or from the durable snapshot's zxid when the LogStore
// holds one), so the owning service must reset its state machine on restart
// and rebuild via OnDeliver/InstallSnapshot.
//
// Membership (docs/reconfig.md): the ensemble is dynamic. A reconfiguration
// is an ordinary proposal flagged kReconfigFlag whose txn encodes the *full*
// next membership; it commits under the quorum of the membership in force
// when it was proposed and activates at commit, on each node independently,
// the moment the entry's position in the log is reached — so activation
// respects the pipelined cumulative-ack windows by construction. Observers
// receive the proposal/commit stream, append, ack (so the leader can track
// their catch-up lag) and serve as learners, but never count toward any
// quorum and never stand for election. A node that activates a membership
// excluding itself retires (role kDown). A follower whose requested sync
// zxid predates the leader's log floor (base_zxid_, i.e. the compacted
// prefix) receives a SNAP carrying a ZabSnapshot wrapper — service state
// plus the membership at the snapshot frontier — which it persists in the
// LogStore's durable snapshot section before truncating its log, so the
// installed state survives its own later crashes. A failed install mutates
// nothing and re-requests sync (idempotent re-fetch).

#ifndef EDC_ZAB_NODE_H_
#define EDC_ZAB_NODE_H_

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "edc/logstore/logstore.h"
#include "edc/obs/obs.h"
#include "edc/sim/cpu.h"
#include "edc/sim/costs.h"
#include "edc/sim/event_loop.h"
#include "edc/sim/network.h"
#include "edc/zab/messages.h"

namespace edc {

class ZabCallbacks {
 public:
  virtual ~ZabCallbacks() = default;
  // Committed transactions, strictly in zxid order. Reconfiguration entries
  // are consumed by the protocol layer and never reach this hook.
  // `txn` views the node's log and is valid only for the call.
  virtual void OnDeliver(uint64_t zxid, std::span<const uint8_t> txn) = 0;
  // Role transitions (leader elected, lost leadership, new epoch).
  virtual void OnRoleChange(bool leader, NodeId leader_id, uint32_t epoch) = 0;
  // State transfer hooks. InstallSnapshot must be transactional: on any
  // decode failure it returns false having mutated nothing (the protocol
  // layer then re-requests the snapshot), and only a true return means the
  // state machine now reflects everything up to `zxid`.
  virtual std::vector<uint8_t> TakeSnapshot() = 0;
  virtual bool InstallSnapshot(uint64_t zxid, const std::vector<uint8_t>& snapshot) = 0;
  // A reconfiguration committed and activated: `membership` is now in force
  // (`zxid` is the reconfig entry). Fired after quorum/broadcast bookkeeping
  // switched over, and before the node retires if it was removed.
  virtual void OnMembershipChange(uint64_t zxid, const ZabMembership& membership) {
    (void)zxid;
    (void)membership;
  }
};

// The membership a node boots with and its own id are constructor
// arguments of ZabNode, not fields here.
struct ZabConfig {
  Duration heartbeat_interval = Millis(50);
  Duration leader_timeout = Millis(250);
  // Followers send one cumulative kAck per durable log batch instead of one
  // per record. Off reproduces the legacy per-record ack stream packet for
  // packet (the pipeline determinism suite uses that for trace-digest
  // comparisons across pipeline depths).
  bool ack_aggregation = true;
  // This node boots as a non-voting observer: the boot members are its
  // contact list of voters (self is NOT a voter until a reconfig promotes
  // it). Voting nodes list themselves among the boot members.
  bool observer = false;
  // Promotion gate: a reconfig adding a voter is rejected unless the
  // candidate's cumulative ack window is within this many zxids of the
  // commit frontier (a voter that is far behind would stall every quorum).
  uint64_t promote_lag = 32;
  // When > 0, automatically compact the log (snapshot + DropHead) whenever
  // the delivered prefix reaches this many entries. 0 = manual CompactLog()
  // only (the legacy behaviour every pre-reconfig test assumes).
  size_t snapshot_every = 0;
};

class ZabNode {
 public:
  // Vote-round retry delay of an election that has not converged.
  static constexpr Duration kElectionRetry = Millis(120);

  // `members` is the boot membership: the voters, and `self` among them
  // unless config.observer.
  ZabNode(EventLoop* loop, Network* net, CpuQueue* cpu, LogStore* log, const CostModel& costs,
          NodeId self, std::vector<NodeId> members, ZabConfig config, ZabCallbacks* callbacks);

  ZabNode(const ZabNode&) = delete;
  ZabNode& operator=(const ZabNode&) = delete;

  // Initial boot (empty volatile state; durable log may contain history).
  void Start();
  // Simulated process crash: volatile state lost, unsynced log appends drop.
  void Crash();
  // Reboot after Crash(): reload the durable log and rejoin the ensemble.
  void Restart();

  // Leader-only: order `txn`. Returns false when this node cannot currently
  // broadcast (not leader, or sync phase still in progress).
  bool Broadcast(std::vector<uint8_t> txn);

  // Leader-only: replicate a membership change. Exactly one change relative
  // to the current membership is allowed per reconfig (add/remove one voter,
  // add/remove one observer, or promote one observer to voter); the change
  // activates on every node when the entry commits. Fails with kNotReady
  // when this node is not the active leader or another reconfig is still in
  // flight, kInvalidArgument on a malformed delta, and kNotReady when a
  // voter candidate's ack window lags the commit frontier by more than
  // config.promote_lag (let it catch up as an observer first and retry).
  Status ProposeReconfig(ZabMembership next);
  // An appended-but-not-yet-activated reconfig entry exists in the log.
  bool HasPendingReconfig() const;

  const ZabMembership& membership() const { return membership_; }
  bool is_voter() const { return membership_.IsVoter(self_); }
  // Whether any activated (version > 0) membership — or the bootstrap voter
  // config — includes this node. A joining observer stays un-admitted while
  // it catches up past configs that predate its add; only an admitted node
  // retires on exclusion. Inside OnMembershipChange this still reports the
  // pre-change value for an excluding config, so service layers can decide
  // whether the exclusion retires them or is just history sailing past.
  bool admitted() const { return admitted_; }
  // Leader-side catch-up introspection: highest contiguously durable zxid
  // `peer` has acked this leadership term (0 = nothing yet).
  uint64_t PeerAckWindow(NodeId peer) const;

  // Routes a Zab-range packet into the protocol (charges CPU internally).
  void HandlePacket(Packet&& pkt);

  bool running() const { return role_ != Role::kDown; }
  bool is_leader() const { return role_ == Role::kLeading && broadcast_active_; }
  bool is_active_follower() const { return role_ == Role::kFollowing && synced_; }
  NodeId leader() const { return leader_; }
  uint32_t epoch() const { return current_epoch_; }
  uint64_t last_committed() const { return committed_zxid_; }
  uint64_t last_logged() const;
  // Highest zxid the local log has made contiguously durable since boot:
  // what this node's cumulative acks claim.
  uint64_t last_durable() const { return durable_zxid_; }

  // Leader-side peer liveness: sim time we last heard anything protocol-level
  // from `peer` this leadership term (heartbeat acks, proposal acks, sync
  // traffic). 0 = not heard from since this node became leader. The service
  // layer uses it to expire sessions owned by dead replicas (§5.1).
  SimTime PeerLastSeen(NodeId peer) const;

  // Testing/ablation: forget log entries up to the current commit frontier,
  // keeping a snapshot, to force the SNAP path for lagging followers.
  void CompactLog();

 private:
  enum class Role { kDown, kLooking, kFollowing, kLeading };

  struct Vote {
    uint32_t epoch = 0;
    uint64_t zxid = 0;
    NodeId node = 0;

    bool BetterThan(const Vote& o) const {
      if (epoch != o.epoch) {
        return epoch > o.epoch;
      }
      if (zxid != o.zxid) {
        return zxid > o.zxid;
      }
      return node > o.node;
    }
    bool operator==(const Vote& o) const {
      return epoch == o.epoch && zxid == o.zxid && node == o.node;
    }
  };

  size_t Quorum() const { return membership_.voters.size() / 2 + 1; }
  void SendTo(NodeId dst, ZabMsgType type, std::vector<uint8_t> payload);
  void BroadcastMsg(ZabMsgType type, const std::vector<uint8_t>& payload);

  void Process(Packet&& pkt);

  // Membership.
  Status ValidateReconfig(const ZabMembership& next) const;
  // Decodes and installs the membership carried by a committed reconfig
  // entry, fires OnMembershipChange, and retires this node when the new
  // membership drops it. Returns false exactly when the node retired (the
  // caller must stop touching state).
  bool ActivateMembership(uint64_t zxid, std::span<const uint8_t> txn);
  // Re-derives membership from durable evidence (snapshot + the last
  // reconfig entry still in the log) after a truncation discarded entries.
  void RecomputeMembershipFromLog();
  // Re-derives admitted_ from the membership in force (see its doc).
  void ResetAdmission();
  void Retire();
  void MaybeAutoCompact();

  // Election.
  void EnterLooking();
  void ElectionRetryTick();
  void SendMyVote(NodeId dst_or_all);
  void OnElectionVote(const ElectionVote& vote, NodeId from);
  void OnLeaderInfo(const LeaderInfo& info);
  void CheckElectionDecision();
  void DecideLeader(NodeId leader, uint32_t leader_epoch);

  // Leading.
  void BecomeLeader();
  void OnFollowerInfo(NodeId from, const FollowerInfo& info);
  // The log entries after `after_zxid` (a suffix: zxids increase along the
  // log), borrowed from the log, behind the current commit frontier.
  DiffMsg DiffAfter(uint64_t after_zxid) const;
  void OnAckNewLeader(NodeId from, const FollowerInfo& info);
  void OnAck(NodeId from, const ZxidMsg& msg);
  void OnHeartbeatAck(NodeId from, const EpochMsg& msg);
  void TouchPeer(NodeId from);
  void RecordAck(NodeId from, uint64_t zxid);
  void TryCommit();
  void ActivateBroadcastIfQuorum();
  void SendHeartbeats();
  bool BroadcastInternal(std::span<const uint8_t> txn, uint8_t flags);

  // Following.
  void BecomeFollower(NodeId leader, uint32_t leader_epoch);
  void OnPropose(const ProposeFrameView& msg);
  void OnLocalBatchDurable();
  void OnCommitMsg(const ZxidMsg& msg);
  void OnDiff(const DiffMsg& msg);
  void OnTrunc(const ZxidMsg& msg);
  void OnSnap(SnapMsg&& msg);
  void OnNewLeader(const EpochMsg& msg);
  void OnHeartbeat(NodeId from, const EpochMsg& msg);
  // A follower presumes the leader dead once now() passes leader_deadline_.
  // Each packet from the leader only moves the deadline; one pending check
  // re-arms itself until the deadline passes, then starts an election.
  void ResetLeaderTimeout();
  void ArmLeaderTimeoutCheck();
  void CancelLeaderTimeout();

  // Shared.
  // Log entry i: record i of the LogStore, viewed in place. Valid until the
  // next log mutation that removes it (Truncate, DropHead, DropUnsynced).
  ZabRecordView Entry(size_t i) const;
  size_t log_size() const { return log_->appended_size(); }
  void DeliverUpTo(uint64_t frontier);
  // Appends proposal-frame bytes the caller already holds (the wire frame's
  // proposal slice) and tracks the local durable watermark.
  void AppendRecordDurable(uint64_t zxid, std::span<const uint8_t> record,
                           std::function<void()> on_durable);
  void ArmTimer(TimerId* slot, Duration delay, std::function<void()> fn);

  EventLoop* loop_;
  Network* net_;
  CpuQueue* cpu_;
  LogStore* log_;
  CostModel costs_;
  const NodeId self_;
  const ZabMembership boot_membership_;
  ZabConfig config_;
  ZabCallbacks* callbacks_;

  Role role_ = Role::kDown;
  uint32_t current_epoch_ = 0;
  NodeId leader_ = 0;

  // The membership in force: quorums are majorities of membership_.voters;
  // BroadcastMsg fans out to voters and observers alike. Rebuilt on every
  // Start/Restart from boot config + durable snapshot + the log's last
  // reconfig entry (latest-wins, Raft-style — commit status of a logged
  // reconfig is unknowable at boot and single-change memberships have
  // pairwise-intersecting quorums, so acting on the newest is safe).
  ZabMembership membership_;
  // Whether a membership actually admitted this node. A bootstrap voter is
  // admitted by construction; a joining observer's self-entry in its boot
  // config is provisional — it becomes real only once an activated (or
  // durably logged) config with version > 0 includes the node. Retirement
  // requires admission first: otherwise a joiner replaying historical
  // reconfig entries that predate its own add would retire itself before
  // ever reaching the entry that admits it.
  bool admitted_ = false;

  // Log state. The LogStore's records, durable and in flight, are the
  // history: entry i is Entry(i), with zxids strictly increasing and all
  // > base_zxid_.
  uint64_t base_zxid_ = 0;  // zxid covered by the latest installed snapshot
  uint64_t committed_zxid_ = 0;
  size_t delivered_count_ = 0;  // prefix of the log already delivered

  // Election state.
  uint64_t election_round_ = 0;
  Vote my_vote_;
  std::map<NodeId, Vote> tally_;

  // Leader state.
  uint32_t counter_ = 0;
  bool broadcast_active_ = false;
  // Cumulative ack window: highest zxid each member has made contiguously
  // durable this leadership term. An ack for zxid z covers everything <= z —
  // sound because followers append strictly in zxid order (OnPropose rejects
  // gaps and forces a resync) and the LogStore publishes durability in
  // append order. TryCommit advances the commit point while a quorum's
  // window covers the next undelivered zxid, which tolerates acks arriving
  // out of order across pipelined batches without ever committing a gap.
  std::map<NodeId, uint64_t> acked_;
  std::set<NodeId> newleader_acks_;
  std::map<NodeId, SimTime> peer_last_seen_;  // reset each leadership term

  // Follower state.
  bool synced_ = false;
  uint64_t durable_zxid_ = 0;  // highest zxid locally durable this boot
  uint64_t acked_zxid_ = 0;    // highest zxid acked to the current leader

  // Reused encode buffer for the leader's proposal frames: one growing
  // buffer instead of one allocation per message.
  Encoder arena_;

  TimerId election_timer_ = kInvalidTimer;
  TimerId heartbeat_timer_ = kInvalidTimer;
  TimerId leader_timeout_timer_ = kInvalidTimer;  // the pending check, if any
  SimTime leader_deadline_ = 0;

  // Observability (the loop's Obs, while it is on): proposal/commit/
  // heartbeat counters, plus leader-side trace propagation — the context
  // active at Broadcast() is remembered per zxid and restored around
  // OnDeliver + the COMMIT fanout, so a committed transaction's delivery (and
  // the follower work the COMMIT packets trigger) stays attributed to the
  // originating client operation.
  struct ProposalTrace {
    TraceContext ctx;
    SimTime at = 0;
  };
  Counter* m_proposals_;
  Counter* m_commits_;
  Counter* m_heartbeats_;
  std::map<uint64_t, ProposalTrace> proposal_trace_;  // leader-term scoped
};

}  // namespace edc

#endif  // EDC_ZAB_NODE_H_
