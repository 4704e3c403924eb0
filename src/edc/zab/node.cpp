#include "edc/zab/node.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>

#include "edc/common/logging.h"

namespace edc {

namespace {

// The membership a node boots into: `members` are the voters, and an
// observer lists itself as the one observer instead.
ZabMembership BootMembership(NodeId self, const std::vector<NodeId>& members, bool observer) {
  ZabMembership m;
  for (NodeId n : members) {
    if (!observer || n != self) {
      m.voters.push_back(n);
    }
  }
  if (observer) {
    m.observers.push_back(self);
  }
  return m;
}

}  // namespace

ZabNode::ZabNode(EventLoop* loop, Network* net, CpuQueue* cpu, LogStore* log,
                 const CostModel& costs, NodeId self, std::vector<NodeId> members,
                 ZabConfig config, ZabCallbacks* callbacks)
    : loop_(loop),
      net_(net),
      cpu_(cpu),
      log_(log),
      costs_(costs),
      self_(self),
      boot_membership_(BootMembership(self, members, config.observer)),
      config_(std::move(config)),
      callbacks_(callbacks),
      m_proposals_(loop->obs().metrics.GetCounter("zab.proposals")),
      m_commits_(loop->obs().metrics.GetCounter("zab.commits")),
      m_heartbeats_(loop->obs().metrics.GetCounter("zab.heartbeats")) {
  assert(!members.empty());
  membership_ = boot_membership_;
  ResetAdmission();
  // One cumulative ack per durable log batch (instead of one per record):
  // the LogStore tells us when a publication run finished; by then every
  // per-record callback has advanced durable_zxid_.
  log_->SetBatchDurableCallback([this]() { OnLocalBatchDurable(); });
}

uint64_t ZabNode::last_logged() const {
  return log_size() == 0 ? base_zxid_ : Entry(log_size() - 1).zxid;
}

ZabRecordView ZabNode::Entry(size_t i) const {
  // Only this node writes its log, and Start() cut any record that does not
  // decode, so every entry decodes.
  auto view = DecodeZabRecordView(log_->record(i));
  assert(view.ok());
  return *view;
}

SimTime ZabNode::PeerLastSeen(NodeId peer) const {
  auto it = peer_last_seen_.find(peer);
  return it == peer_last_seen_.end() ? 0 : it->second;
}

void ZabNode::TouchPeer(NodeId from) {
  if (role_ == Role::kLeading) {
    peer_last_seen_[from] = loop_->now();
  }
}

void ZabNode::SendTo(NodeId dst, ZabMsgType type, std::vector<uint8_t> payload) {
  Packet pkt;
  pkt.src = self_;
  pkt.dst = dst;
  pkt.type = static_cast<uint32_t>(type);
  pkt.payload = std::move(payload);
  net_->Send(std::move(pkt));
}

void ZabNode::BroadcastMsg(ZabMsgType type, const std::vector<uint8_t>& payload) {
  // Observers get the full stream (proposals, commits, heartbeats) — they
  // just never count toward a quorum.
  for (NodeId peer : membership_.voters) {
    if (peer != self_) {
      SendTo(peer, type, payload);
    }
  }
  for (NodeId peer : membership_.observers) {
    if (peer != self_) {
      SendTo(peer, type, payload);
    }
  }
}

uint64_t ZabNode::PeerAckWindow(NodeId peer) const {
  auto it = acked_.find(peer);
  return it == acked_.end() ? 0 : it->second;
}

void ZabNode::ArmTimer(TimerId* slot, Duration delay, std::function<void()> fn) {
  loop_->Cancel(*slot);
  *slot = loop_->Schedule(delay, cpu_->Guard(std::move(fn)));
}

void ZabNode::Start() {
  cpu_->NextIncarnation();
  CancelLeaderTimeout();  // a check armed before this boot would never fire
  membership_ = boot_membership_;
  base_zxid_ = 0;
  committed_zxid_ = 0;
  // Recover the durable snapshot first (it is the log's floor): the log
  // records are exactly the suffix after its zxid. An unusable snapshot
  // (decode failure or a service-level install failure) makes the log suffix
  // meaningless — start empty and let the sync phase re-fetch via SNAP.
  if (log_->has_snapshot()) {
    uint64_t snap_zxid = log_->snapshot_zxid();
    auto snap = DecodeMsg<ZabSnapshot>(log_->snapshot());
    if (snap.ok() && callbacks_->InstallSnapshot(snap_zxid, snap->state)) {
      snap->membership.version = snap_zxid;
      membership_ = std::move(snap->membership);
      base_zxid_ = snap_zxid;
      committed_zxid_ = snap_zxid;
    } else {
      EDC_LOG(kInfo) << "node " << self_
                     << " durable snapshot unusable; discarding log suffix";
      log_->ClearSnapshot();
      log_->Truncate(0);
    }
  }
  for (size_t i = 0; i < log_size(); ++i) {
    auto p = DecodeZabRecordView(log_->record(i));
    if (!p.ok()) {
      // A record that does not decode ends the history this log can replay.
      log_->Truncate(i);
      break;
    }
    // Latest-config rule: the newest reconfig entry in the durable log
    // governs (commit status is unknowable at boot; see membership_ docs).
    if (p->is_reconfig()) {
      auto m = DecodeMsg<ZabMembership>(p->txn);
      if (m.ok()) {
        m->version = p->zxid;
        membership_ = std::move(*m);
      }
    }
  }
  ResetAdmission();
  current_epoch_ = ZxidEpoch(last_logged());
  delivered_count_ = 0;
  synced_ = false;
  broadcast_active_ = false;
  acked_.clear();
  newleader_acks_.clear();
  durable_zxid_ = last_logged();  // replayed records are durable by definition
  acked_zxid_ = 0;
  EnterLooking();
}

void ZabNode::Crash() {
  cpu_->NextIncarnation();
  role_ = Role::kDown;
  proposal_trace_.clear();
  log_->DropUnsynced();
  loop_->Cancel(election_timer_);
  loop_->Cancel(heartbeat_timer_);
  CancelLeaderTimeout();
}

void ZabNode::Restart() {
  assert(role_ == Role::kDown);
  Start();
}

// ---------------------------------------------------------------- election

void ZabNode::EnterLooking() {
  role_ = Role::kLooking;
  synced_ = false;
  broadcast_active_ = false;
  leader_ = 0;
  acked_zxid_ = 0;  // a future leader must hear our acks afresh
  proposal_trace_.clear();  // contexts belong to the lost leadership term
  loop_->Cancel(heartbeat_timer_);
  CancelLeaderTimeout();
  ++election_round_;
  my_vote_ = Vote{current_epoch_, last_logged(), self_};
  tally_.clear();
  if (is_voter()) {
    tally_[self_] = my_vote_;
  } else if (!membership_.voters.empty()) {
    // Observers/learners never stand for election; they vote for some actual
    // voter purely so settled nodes answer with LeaderInfo and pull them in.
    my_vote_ = Vote{0, 0, membership_.voters.front()};
  }
  EDC_LOG(kDebug) << "node " << self_ << " LOOKING round=" << election_round_
                  << " zxid=" << my_vote_.zxid;
  SendMyVote(0);
  ArmTimer(&election_timer_, kElectionRetry, [this]() { ElectionRetryTick(); });
  // A quorum of one (single-node ensemble) decides immediately.
  CheckElectionDecision();
}

void ZabNode::ElectionRetryTick() {
  if (role_ != Role::kLooking) {
    return;
  }
  SendMyVote(0);
  CheckElectionDecision();
  if (role_ == Role::kLooking) {
    ArmTimer(&election_timer_, kElectionRetry, [this]() { ElectionRetryTick(); });
  }
}

void ZabNode::SendMyVote(NodeId dst_or_all) {
  ElectionVote vote;
  vote.election_round = election_round_;
  vote.vote_for = my_vote_.node;
  vote.vote_zxid = my_vote_.zxid;
  vote.vote_epoch = my_vote_.epoch;
  vote.from = self_;
  vote.from_looking = role_ == Role::kLooking;
  auto payload = EncodeMsg(vote);
  if (dst_or_all == 0) {
    BroadcastMsg(ZabMsgType::kElection, payload);
  } else {
    SendTo(dst_or_all, ZabMsgType::kElection, std::move(payload));
  }
}

void ZabNode::OnElectionVote(const ElectionVote& vote, NodeId from) {
  if (role_ != Role::kLooking) {
    // Settled nodes point lookers at the current leader.
    if (vote.from_looking && leader_ != 0) {
      SendTo(from, ZabMsgType::kLeaderInfo, EncodeMsg(LeaderInfo{leader_, current_epoch_}));
    }
    return;
  }
  if (vote.election_round > election_round_) {
    election_round_ = vote.election_round;
    tally_.clear();
    if (is_voter()) {
      tally_[self_] = my_vote_;
    }
  } else if (vote.election_round < election_round_) {
    SendMyVote(from);
    return;
  }
  // Only voters' ballots count, and only ballots for nodes this node's
  // membership recognises as voters may be adopted — a zombie running an
  // older membership can neither elect itself nor skew a live election.
  Vote candidate{vote.vote_epoch, vote.vote_zxid, vote.vote_for};
  if (is_voter() && membership_.IsVoter(candidate.node) && candidate.BetterThan(my_vote_)) {
    my_vote_ = candidate;
    tally_[self_] = my_vote_;
    SendMyVote(0);
  }
  if (membership_.IsVoter(from) && membership_.IsVoter(candidate.node)) {
    tally_[from] = candidate;
  }
  CheckElectionDecision();
}

void ZabNode::CheckElectionDecision() {
  if (!is_voter()) {
    return;  // observers wait for LeaderInfo/heartbeat; they never decide
  }
  size_t agree = 0;
  uint32_t max_epoch = current_epoch_;
  for (const auto& [node, vote] : tally_) {
    if (vote.node == my_vote_.node) {
      ++agree;
    }
    max_epoch = std::max(max_epoch, vote.epoch);
  }
  if (agree >= Quorum()) {
    DecideLeader(my_vote_.node, max_epoch);
  }
}

void ZabNode::DecideLeader(NodeId leader, uint32_t max_epoch_seen) {
  loop_->Cancel(election_timer_);
  if (leader == self_) {
    current_epoch_ = std::max(current_epoch_, max_epoch_seen) + 1;
    BecomeLeader();
  } else {
    BecomeFollower(leader, max_epoch_seen);
  }
}

void ZabNode::OnLeaderInfo(const LeaderInfo& info) {
  if (role_ != Role::kLooking) {
    return;
  }
  if (info.leader == self_) {
    return;  // stale; keep looking
  }
  loop_->Cancel(election_timer_);
  BecomeFollower(info.leader, info.epoch);
}

// ----------------------------------------------------------------- leading

void ZabNode::BecomeLeader() {
  role_ = Role::kLeading;
  leader_ = self_;
  counter_ = 0;
  broadcast_active_ = false;
  acked_.clear();
  newleader_acks_.clear();
  newleader_acks_.insert(self_);
  peer_last_seen_.clear();
  // Our whole durable history counts as self-acked.
  acked_[self_] = last_logged();
  EDC_LOG(kInfo) << "node " << self_ << " LEADING epoch=" << current_epoch_;
  ActivateBroadcastIfQuorum();
  SendHeartbeats();
}

void ZabNode::SendHeartbeats() {
  if (role_ != Role::kLeading) {
    return;
  }
  if (loop_->obs().enabled()) {
    m_heartbeats_->Increment();
  }
  BroadcastMsg(ZabMsgType::kHeartbeat, EncodeMsg(EpochMsg{current_epoch_, committed_zxid_}));
  ArmTimer(&heartbeat_timer_, config_.heartbeat_interval, [this]() { SendHeartbeats(); });
}

void ZabNode::OnFollowerInfo(NodeId from, const FollowerInfo& info) {
  if (role_ != Role::kLeading) {
    return;
  }
  TouchPeer(from);
  uint64_t my_last = last_logged();
  if (info.last_zxid > my_last) {
    SendTo(from, ZabMsgType::kTrunc, EncodeMsg(ZxidMsg{current_epoch_, my_last}));
  } else if (info.last_zxid < base_zxid_) {
    // SNAP path: our log no longer holds the entries the follower is missing
    // (they were compacted away), so ship the whole state machine plus the
    // uncommitted tail.
    SnapMsg snap;
    snap.snapshot_zxid = committed_zxid_;
    snap.epoch = current_epoch_;
    snap.snapshot = EncodeMsg(ZabSnapshot{membership_, callbacks_->TakeSnapshot()});
    SendTo(from, ZabMsgType::kSnap, EncodeMsg(snap));
    SendTo(from, ZabMsgType::kDiff, EncodeMsg(DiffAfter(committed_zxid_)));
  } else {
    SendTo(from, ZabMsgType::kDiff, EncodeMsg(DiffAfter(info.last_zxid)));
  }
  SendTo(from, ZabMsgType::kNewLeader, EncodeMsg(EpochMsg{current_epoch_, committed_zxid_}));
}

DiffMsg ZabNode::DiffAfter(uint64_t after_zxid) const {
  DiffMsg diff;
  diff.committed_zxid = committed_zxid_;
  size_t first = log_size();
  while (first > 0 && Entry(first - 1).zxid > after_zxid) {
    --first;
  }
  for (size_t i = first; i < log_size(); ++i) {
    diff.records.push_back(log_->record(i));
  }
  return diff;
}

void ZabNode::OnAckNewLeader(NodeId from, const FollowerInfo& info) {
  if (role_ != Role::kLeading) {
    return;
  }
  TouchPeer(from);
  if (membership_.IsVoter(from)) {
    newleader_acks_.insert(from);
  }
  // Record every learner's window (observer promotion gates on it).
  RecordAck(from, info.last_zxid);
  ActivateBroadcastIfQuorum();
  TryCommit();
}

void ZabNode::ActivateBroadcastIfQuorum() {
  if (broadcast_active_ || newleader_acks_.size() < Quorum()) {
    return;
  }
  broadcast_active_ = true;
  TryCommit();
  callbacks_->OnRoleChange(true, self_, current_epoch_);
}

bool ZabNode::Broadcast(std::vector<uint8_t> txn) {
  return BroadcastInternal(txn, 0);
}

Status ZabNode::ProposeReconfig(ZabMembership next) {
  if (role_ != Role::kLeading || !broadcast_active_) {
    return Status(ErrorCode::kNotReady, "not the active leader");
  }
  if (HasPendingReconfig()) {
    return Status(ErrorCode::kNotReady, "a reconfiguration is already in flight");
  }
  Status valid = ValidateReconfig(next);
  if (!valid.ok()) {
    return valid;
  }
  if (!BroadcastInternal(EncodeMsg(next), kReconfigFlag)) {
    return Status(ErrorCode::kNotReady, "broadcast unavailable");
  }
  return Status();
}

bool ZabNode::HasPendingReconfig() const {
  for (size_t i = delivered_count_; i < log_size(); ++i) {
    if (Entry(i).is_reconfig()) {
      return true;
    }
  }
  return false;
}

Status ZabNode::ValidateReconfig(const ZabMembership& next) const {
  if (next.voters.empty()) {
    return Status(ErrorCode::kInvalidArgument, "reconfig needs at least one voter");
  }
  for (NodeId v : next.voters) {
    if (next.IsObserver(v)) {
      return Status(ErrorCode::kInvalidArgument, "node listed as both voter and observer");
    }
  }
  // Diff against the current membership; exactly one node may change role
  // (joining, leaving, or moving between the voter and observer tiers).
  size_t changes = 0;
  NodeId new_voter = 0;
  auto role_of = [](const ZabMembership& m, NodeId id) {
    return m.IsVoter(id) ? 2 : m.IsObserver(id) ? 1 : 0;
  };
  std::set<NodeId> all;
  for (NodeId n : membership_.voters) all.insert(n);
  for (NodeId n : membership_.observers) all.insert(n);
  for (NodeId n : next.voters) all.insert(n);
  for (NodeId n : next.observers) all.insert(n);
  for (NodeId n : all) {
    int before = role_of(membership_, n);
    int after = role_of(next, n);
    if (before == after) {
      continue;
    }
    ++changes;
    if (after == 2) {
      new_voter = n;
    }
  }
  if (changes == 0) {
    return Status(ErrorCode::kInvalidArgument, "reconfig changes nothing");
  }
  if (changes > 1) {
    return Status(ErrorCode::kInvalidArgument, "one membership change at a time");
  }
  if (new_voter != 0 && new_voter != self_) {
    // Promotion gate: a voter that is far behind the commit frontier would
    // stall every future quorum. Let it catch up as an observer first.
    uint64_t window = PeerAckWindow(new_voter);
    if (window + config_.promote_lag < committed_zxid_) {
      return Status(ErrorCode::kNotReady, "candidate voter lags the commit frontier");
    }
  }
  return Status();
}

bool ZabNode::BroadcastInternal(std::span<const uint8_t> txn, uint8_t flags) {
  if (role_ != Role::kLeading || !broadcast_active_) {
    return false;
  }
  ProposeMsg msg{current_epoch_, {MakeZxid(current_epoch_, ++counter_), flags, txn}};
  uint64_t zxid = msg.proposal.zxid;
  if (const Obs& obs = loop_->obs(); obs.enabled()) {
    m_proposals_->Increment();
    const TraceContext& ctx = obs.tracer.current();
    if (ctx.active()) {
      proposal_trace_[zxid] = ProposalTrace{ctx, loop_->now()};
    }
  }
  // Single-pass arena encode: the kPropose frame is built once in the reused
  // arena; the wire payload is the whole frame and the log record is its
  // proposal suffix (epoch header stripped), which the LogStore copies into
  // the cluster's record pool: the txn bytes are serialized once and stored
  // once, for this replica and the followers alike.
  arena_.Clear();
  Fields(arena_, msg);
  std::span<const uint8_t> frame = arena_.buffer();
  BroadcastMsg(ZabMsgType::kPropose, arena_.buffer());
  // The proposal streams out immediately — durability of earlier proposals
  // is NOT awaited; the LogStore pipelines this append behind any fsync
  // still in flight, and the self-ack below lands whenever its batch does.
  AppendRecordDurable(zxid, frame.subspan(kProposeHeaderBytes), [this, zxid]() {
    RecordAck(self_, zxid);
    TryCommit();
  });
  return true;
}

void ZabNode::RecordAck(NodeId from, uint64_t zxid) {
  uint64_t& window = acked_[from];
  window = std::max(window, zxid);
}

void ZabNode::OnAck(NodeId from, const ZxidMsg& msg) {
  if (role_ != Role::kLeading || msg.epoch != current_epoch_) {
    return;
  }
  TouchPeer(from);
  RecordAck(from, msg.zxid);
  TryCommit();
}

void ZabNode::OnHeartbeatAck(NodeId from, const EpochMsg& msg) {
  if (role_ != Role::kLeading || msg.epoch != current_epoch_) {
    return;
  }
  TouchPeer(from);
}

void ZabNode::TryCommit() {
  if (role_ != Role::kLeading || !broadcast_active_) {
    return;
  }
  // Advance the commit point from the cumulative ack window: commit the next
  // undelivered zxid while a quorum's windows cover it. Acks may arrive out
  // of order across pipelined batches, but the scan is strictly in history
  // order, so a gap can never commit before everything preceding it.
  while (delivered_count_ < log_size()) {
    ZabRecordView entry = Entry(delivered_count_);
    uint64_t zxid = entry.zxid;
    // Only voters' windows count — and because a reconfig entry swaps
    // membership_ the moment it commits (below), entries behind it in the
    // same scan are already judged against the *new* quorum, exactly the
    // pipelined-backlog semantics docs/reconfig.md specifies.
    size_t votes = 0;
    for (const auto& [node, window] : acked_) {
      if (window >= zxid && membership_.IsVoter(node)) {
        ++votes;
      }
    }
    if (votes < Quorum()) {
      break;
    }
    committed_zxid_ = zxid;
    bool reconfig = entry.is_reconfig();
    // Deliver + COMMIT fanout run under the proposing operation's context so
    // the reply path (and follower commit work) stays attributed to it.
    Tracer& tracer = loop_->obs().tracer;
    TraceContext prev;
    bool restored = false;
    if (tracer.enabled()) {
      m_commits_->Increment();
      auto tit = proposal_trace_.find(zxid);
      if (tit != proposal_trace_.end()) {
        tracer.RecordSpanIn(tit->second.ctx, "zab.order", Stage::kOther, self_, tit->second.at,
                            loop_->now());
        prev = tracer.current();
        tracer.SetCurrent(tit->second.ctx);
        proposal_trace_.erase(tit);
        restored = true;
      }
    }
    if (!reconfig) {
      callbacks_->OnDeliver(zxid, entry.txn);
    }
    ++delivered_count_;
    // The COMMIT fans out to the *old* membership on purpose: a node the
    // reconfig removes still learns its removal committed and retires
    // cleanly instead of lingering as a live zombie.
    BroadcastMsg(ZabMsgType::kCommit, EncodeMsg(ZxidMsg{current_epoch_, zxid}));
    if (restored) {
      tracer.SetCurrent(prev);
    }
    if (reconfig && !ActivateMembership(zxid, entry.txn)) {
      return;  // this node retired (it was removed)
    }
  }
  MaybeAutoCompact();
}

// --------------------------------------------------------------- following

void ZabNode::BecomeFollower(NodeId leader, uint32_t leader_epoch) {
  role_ = Role::kFollowing;
  leader_ = leader;
  synced_ = false;
  acked_zxid_ = 0;  // this leader has heard nothing from us yet
  current_epoch_ = std::max(current_epoch_, leader_epoch);
  EDC_LOG(kDebug) << "node " << self_ << " FOLLOWING " << leader;
  SendTo(leader, ZabMsgType::kFollowerInfo, EncodeMsg(FollowerInfo{last_logged()}));
  ResetLeaderTimeout();
}

void ZabNode::ResetLeaderTimeout() {
  leader_deadline_ = loop_->now() + config_.leader_timeout;
  if (leader_timeout_timer_ == kInvalidTimer) {
    ArmLeaderTimeoutCheck();
  }
}

void ZabNode::ArmLeaderTimeoutCheck() {
  leader_timeout_timer_ = loop_->ScheduleAt(leader_deadline_, cpu_->Guard([this]() {
    leader_timeout_timer_ = kInvalidTimer;
    if (loop_->now() < leader_deadline_) {
      ArmLeaderTimeoutCheck();  // the leader was heard since this check was armed
      return;
    }
    EDC_LOG(kDebug) << "node " << self_ << " leader timeout";
    EnterLooking();
  }));
}

void ZabNode::CancelLeaderTimeout() {
  loop_->Cancel(leader_timeout_timer_);
  leader_timeout_timer_ = kInvalidTimer;
}

void ZabNode::OnDiff(const DiffMsg& msg) {
  if (role_ != Role::kFollowing) {
    return;
  }
  // Contiguity gate (mirrors OnPropose): cumulative acks claim everything up
  // to the acked zxid, so the log may never hold a gap. A diff whose first
  // new proposal does not extend our log contiguously — e.g. the in-flight
  // DIFF behind a SNAP whose install failed — is dropped wholesale and the
  // sync handshake restarts from our true position.
  std::vector<ZabRecordView> entries;
  entries.reserve(msg.records.size());
  uint64_t expect_after = last_logged();
  for (std::span<const uint8_t> record : msg.records) {
    auto p = DecodeZabRecordView(record);
    if (!p.ok()) {
      return;
    }
    entries.push_back(*p);
    if (p->zxid <= expect_after) {
      continue;
    }
    uint64_t expected = ZxidEpoch(expect_after) == ZxidEpoch(p->zxid)
                            ? expect_after + 1
                            : MakeZxid(ZxidEpoch(p->zxid), 1);
    if (p->zxid != expected || ZxidEpoch(p->zxid) < ZxidEpoch(expect_after)) {
      synced_ = false;
      SendTo(leader_, ZabMsgType::kFollowerInfo, EncodeMsg(FollowerInfo{last_logged()}));
      ResetLeaderTimeout();
      return;
    }
    expect_after = p->zxid;
  }
  // Each record is appended straight out of the packet payload.
  for (size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].zxid > last_logged()) {
      AppendRecordDurable(entries[i].zxid, msg.records[i], nullptr);
    }
  }
  DeliverUpTo(msg.committed_zxid);
  if (role_ != Role::kFollowing) {
    return;  // delivering a reconfig retired this node
  }
  ResetLeaderTimeout();
}

void ZabNode::OnTrunc(const ZxidMsg& msg) {
  if (role_ != Role::kFollowing) {
    return;
  }
  size_t keep = 0;
  bool dropped_reconfig = false;
  while (keep < log_size() && Entry(keep).zxid <= msg.zxid) {
    ++keep;
  }
  for (size_t i = keep; i < log_size(); ++i) {
    dropped_reconfig |= Entry(i).is_reconfig();
  }
  // The cut reaches in-flight appends too: they never publish, so neither
  // the log nor the durable watermark (and with it our acks) passes it.
  log_->Truncate(keep);
  durable_zxid_ = std::min(durable_zxid_, last_logged());
  if (dropped_reconfig) {
    // A never-committed reconfig we had provisionally adopted (latest-config
    // rule at boot) just left the log; fall back to the durable evidence.
    RecomputeMembershipFromLog();
  }
  ResetLeaderTimeout();
}

void ZabNode::OnSnap(SnapMsg&& msg) {
  if (role_ != Role::kFollowing) {
    return;
  }
  // Install transactionally: a decode failure (corrupt/truncated image, or a
  // crash mid-install simulated above us) must leave every bit of local
  // state untouched so the handshake can simply be re-run — the leader
  // re-offers the same snapshot to our unchanged FollowerInfo (idempotent
  // re-fetch).
  auto snap = DecodeMsg<ZabSnapshot>(msg.snapshot);
  if (!snap.ok() || !callbacks_->InstallSnapshot(msg.snapshot_zxid, snap->state)) {
    EDC_LOG(kInfo) << "node " << self_ << " snapshot install failed; re-requesting sync";
    synced_ = false;
    SendTo(leader_, ZabMsgType::kFollowerInfo, EncodeMsg(FollowerInfo{last_logged()}));
    ResetLeaderTimeout();
    return;
  }
  // Persist the raw wrapper blob first (models fsync + rename-into-place of
  // the snapshot file): only after this may the log prefix be forgotten, or
  // a crash between the two would leave a suffix-only log with no base.
  log_->StoreSnapshot(msg.snapshot_zxid, std::move(msg.snapshot));
  log_->Truncate(0);
  base_zxid_ = msg.snapshot_zxid;
  committed_zxid_ = msg.snapshot_zxid;
  delivered_count_ = 0;
  snap->membership.version = msg.snapshot_zxid;
  membership_ = std::move(snap->membership);
  if (membership_.Contains(self_)) {
    admitted_ = true;  // exclusion stays provisional: the snapshot may predate our add
  }
  ResetLeaderTimeout();
}

void ZabNode::OnNewLeader(const EpochMsg& msg) {
  if (role_ != Role::kFollowing) {
    return;
  }
  current_epoch_ = std::max(current_epoch_, msg.epoch);
  synced_ = true;
  DeliverUpTo(msg.committed_zxid);
  if (role_ != Role::kFollowing) {
    return;  // delivering a reconfig retired this node
  }
  // AckNewLeader claims everything up to last_logged(); suppress redundant
  // cumulative acks for the same prefix.
  acked_zxid_ = last_logged();
  SendTo(leader_, ZabMsgType::kAckNewLeader, EncodeMsg(FollowerInfo{last_logged()}));
  callbacks_->OnRoleChange(false, leader_, current_epoch_);
  ResetLeaderTimeout();
}

void ZabNode::OnPropose(const ProposeFrameView& msg) {
  if (role_ != Role::kFollowing || !synced_ || msg.epoch != current_epoch_) {
    return;
  }
  uint64_t last = last_logged();
  uint64_t zxid = msg.proposal.zxid;
  if (zxid <= last) {
    return;  // duplicate
  }
  // Cumulative acks claim everything <= the acked zxid, so the local log
  // must never hold a gap: a non-contiguous proposal means we missed
  // traffic (e.g. across a healed partition in the same epoch) — drop it
  // and restart the sync handshake instead of logging around the hole.
  uint64_t expected = ZxidEpoch(last) == msg.epoch ? last + 1 : MakeZxid(msg.epoch, 1);
  if (zxid != expected) {
    synced_ = false;
    SendTo(leader_, ZabMsgType::kFollowerInfo, EncodeMsg(FollowerInfo{last}));
    ResetLeaderTimeout();
    return;
  }
  // The log record is the proposal frame sliced straight out of the packet
  // payload — no re-encode on the follower; the log takes a reference to
  // the leader's copy when the record pool still has it, else copies once.
  if (config_.ack_aggregation) {
    // OnLocalBatchDurable sends one cumulative kAck per durable batch.
    AppendRecordDurable(zxid, msg.record, nullptr);
  } else {
    AppendRecordDurable(zxid, msg.record, [this, zxid]() {
      if (role_ == Role::kFollowing && synced_) {
        SendTo(leader_, ZabMsgType::kAck, EncodeMsg(ZxidMsg{current_epoch_, zxid}));
      }
    });
  }
  ResetLeaderTimeout();
}

void ZabNode::OnLocalBatchDurable() {
  if (!config_.ack_aggregation || role_ != Role::kFollowing || !synced_) {
    return;
  }
  if (durable_zxid_ <= acked_zxid_) {
    return;
  }
  acked_zxid_ = durable_zxid_;
  SendTo(leader_, ZabMsgType::kAck, EncodeMsg(ZxidMsg{current_epoch_, acked_zxid_}));
}

void ZabNode::OnCommitMsg(const ZxidMsg& msg) {
  if (role_ != Role::kFollowing || !synced_ || msg.epoch != current_epoch_) {
    return;
  }
  DeliverUpTo(msg.zxid);
  if (role_ != Role::kFollowing) {
    return;  // delivering a reconfig retired this node
  }
  ResetLeaderTimeout();
}

void ZabNode::OnHeartbeat(NodeId from, const EpochMsg& msg) {
  // A live leader's heartbeat pulls lookers back into the ensemble and
  // demotes stale leaders after a healed partition.
  if (role_ == Role::kLeading && msg.epoch > current_epoch_) {
    EnterLooking();
    return;
  }
  if (role_ == Role::kLooking) {
    loop_->Cancel(election_timer_);
    BecomeFollower(from, msg.epoch);
    return;
  }
  if (role_ == Role::kFollowing) {
    if (from != leader_) {
      // We follow the wrong node (a stale election decision); the heartbeat
      // sender is the actual leader — realign instead of refreshing a
      // timeout that would never make progress.
      if (msg.epoch >= current_epoch_) {
        BecomeFollower(from, msg.epoch);
      }
      return;
    }
    ResetLeaderTimeout();
    if (!synced_ || msg.epoch > current_epoch_) {
      // Our FollowerInfo can race the leader's own election: it is dropped
      // while the leader is still LOOKING, leaving us permanently unsynced —
      // its heartbeats keep resetting our timeout (so we never re-look) and
      // our acks carry a stale epoch (so the leader counts us dead and
      // expires every session we host). Restart the sync handshake instead.
      synced_ = false;
      current_epoch_ = std::max(current_epoch_, msg.epoch);
      SendTo(leader_, ZabMsgType::kFollowerInfo, EncodeMsg(FollowerInfo{last_logged()}));
      return;
    }
    if (msg.epoch == current_epoch_) {
      DeliverUpTo(msg.committed_zxid);
      if (role_ != Role::kFollowing) {
        return;  // delivering a reconfig retired this node
      }
    }
    // Answer so the leader can track which replicas are alive (dead-owner
    // session expiry keys off this).
    SendTo(leader_, ZabMsgType::kHeartbeatAck,
           EncodeMsg(EpochMsg{current_epoch_, committed_zxid_}));
  }
}

// ------------------------------------------------------------------ shared

void ZabNode::DeliverUpTo(uint64_t frontier) {
  while (delivered_count_ < log_size()) {
    ZabRecordView entry = Entry(delivered_count_);
    if (entry.zxid > frontier) {
      break;
    }
    committed_zxid_ = entry.zxid;
    if (entry.is_reconfig()) {
      ++delivered_count_;
      if (!ActivateMembership(entry.zxid, entry.txn)) {
        return;  // this node retired (it was removed)
      }
    } else {
      callbacks_->OnDeliver(entry.zxid, entry.txn);
      ++delivered_count_;
    }
  }
  committed_zxid_ = std::max(committed_zxid_, std::min(frontier, last_logged()));
  MaybeAutoCompact();
}

void ZabNode::AppendRecordDurable(uint64_t zxid, std::span<const uint8_t> record,
                                  std::function<void()> on_durable) {
  log_->Append(record, cpu_->Guard([this, zxid, cb = std::move(on_durable)]() {
    // The LogStore publishes durability strictly in append order, so this
    // watermark is the highest *contiguously* durable zxid.
    durable_zxid_ = std::max(durable_zxid_, zxid);
    if (cb) {
      cb();
    }
  }));
}

bool ZabNode::ActivateMembership(uint64_t zxid, std::span<const uint8_t> txn) {
  auto next = DecodeMsg<ZabMembership>(txn);
  if (!next.ok()) {
    return true;  // malformed entry: leave the current membership in force
  }
  bool was_admitted = admitted_;
  next->version = zxid;
  membership_ = std::move(*next);
  if (membership_.Contains(self_)) {
    admitted_ = true;
  }
  EDC_LOG(kInfo) << "node " << self_ << " membership v" << zxid << " voters="
                 << membership_.voters.size() << " observers=" << membership_.observers.size();
  callbacks_->OnMembershipChange(zxid, membership_);
  // Only an admitted member retires on exclusion: a joiner catching up
  // replays configs that predate its own add and must sail past them.
  if (was_admitted && !membership_.Contains(self_)) {
    Retire();
    return false;
  }
  return true;
}

void ZabNode::Retire() {
  EDC_LOG(kInfo) << "node " << self_ << " retired by reconfig";
  cpu_->NextIncarnation();  // kills timers and pending log callbacks, like a crash...
  role_ = Role::kDown;
  leader_ = 0;
  proposal_trace_.clear();
  // ...but the durable log is NOT dropped: retirement is an orderly exit,
  // not a crash, and the history may still serve a later re-add.
  loop_->Cancel(election_timer_);
  loop_->Cancel(heartbeat_timer_);
  CancelLeaderTimeout();
}

void ZabNode::RecomputeMembershipFromLog() {
  ZabMembership m = boot_membership_;
  uint64_t version = 0;
  if (log_->has_snapshot() && log_->snapshot_zxid() == base_zxid_) {
    auto snap = DecodeMsg<ZabSnapshot>(log_->snapshot());
    if (snap.ok()) {
      m = std::move(snap->membership);
      version = base_zxid_;
    }
  }
  for (size_t i = 0; i < log_size(); ++i) {
    ZabRecordView p = Entry(i);
    if (p.is_reconfig()) {
      auto nm = DecodeMsg<ZabMembership>(p.txn);
      if (nm.ok()) {
        m = std::move(*nm);
        version = p.zxid;
      }
    }
  }
  m.version = version;
  membership_ = std::move(m);
  ResetAdmission();
}

void ZabNode::ResetAdmission() {
  // A version-0 membership is pure boot config: voters are the bootstrap
  // ensemble (admitted by construction) while an observer's self-entry is
  // provisional. Anything with version > 0 is durable evidence and governs.
  admitted_ = membership_.version > 0 ? membership_.Contains(self_) : !config_.observer;
}

void ZabNode::MaybeAutoCompact() {
  if (config_.snapshot_every > 0 && delivered_count_ >= config_.snapshot_every) {
    CompactLog();
  }
}

void ZabNode::CompactLog() {
  size_t drop = 0;
  while (drop < delivered_count_ && Entry(drop).zxid <= committed_zxid_) {
    ++drop;
  }
  if (drop == 0) {
    return;
  }
  // Delivery tracks the commit frontier on every role, so the dropped prefix
  // is exactly the delivered prefix and the service state machine currently
  // *is* the state at Entry(drop-1).zxid: pair them in a durable snapshot
  // (with the membership in force there) before forgetting the records. A
  // restart then installs the snapshot and replays only the kept suffix, and
  // a lagging peer whose zxid predates the new base gets the SNAP path.
  ZabSnapshot snap;
  snap.membership = membership_;
  snap.state = callbacks_->TakeSnapshot();
  base_zxid_ = Entry(drop - 1).zxid;
  log_->StoreSnapshot(base_zxid_, EncodeMsg(snap));
  delivered_count_ -= drop;
  log_->DropHead(drop);
}

// -------------------------------------------------------------- dispatcher

void ZabNode::HandlePacket(Packet&& pkt) {
  if (role_ == Role::kDown) {
    return;
  }
  Duration cost = costs_.rpc_decode_cpu;
  switch (static_cast<ZabMsgType>(pkt.type)) {
    case ZabMsgType::kPropose:
      cost = costs_.zab_propose_cpu;
      break;
    case ZabMsgType::kAck:
      cost = costs_.zab_ack_cpu;
      break;
    case ZabMsgType::kCommit:
      cost = costs_.zab_commit_cpu;
      break;
    default:
      break;
  }
  auto shared = std::make_shared<Packet>(std::move(pkt));
  cpu_->Submit(cost, [this, shared]() { Process(std::move(*shared)); });
}

void ZabNode::Process(Packet&& pkt) {
  switch (static_cast<ZabMsgType>(pkt.type)) {
    case ZabMsgType::kElection: {
      auto m = DecodeMsg<ElectionVote>(pkt.payload);
      if (m.ok()) {
        OnElectionVote(*m, pkt.src);
      }
      break;
    }
    case ZabMsgType::kLeaderInfo: {
      auto m = DecodeMsg<LeaderInfo>(pkt.payload);
      if (m.ok()) {
        OnLeaderInfo(*m);
      }
      break;
    }
    case ZabMsgType::kFollowerInfo: {
      auto m = DecodeMsg<FollowerInfo>(pkt.payload);
      if (m.ok()) {
        OnFollowerInfo(pkt.src, *m);
      }
      break;
    }
    case ZabMsgType::kDiff: {
      // The records borrow pkt.payload, alive for the whole Process call.
      auto m = DecodeMsg<DiffMsg>(pkt.payload);
      if (m.ok()) {
        OnDiff(*m);
      }
      break;
    }
    case ZabMsgType::kTrunc: {
      auto m = DecodeMsg<ZxidMsg>(pkt.payload);
      if (m.ok()) {
        OnTrunc(*m);
      }
      break;
    }
    case ZabMsgType::kSnap: {
      auto m = DecodeMsg<SnapMsg>(pkt.payload);
      if (m.ok()) {
        OnSnap(std::move(*m));
      }
      break;
    }
    case ZabMsgType::kNewLeader: {
      auto m = DecodeMsg<EpochMsg>(pkt.payload);
      if (m.ok()) {
        OnNewLeader(*m);
      }
      break;
    }
    case ZabMsgType::kAckNewLeader: {
      auto m = DecodeMsg<FollowerInfo>(pkt.payload);
      if (m.ok()) {
        OnAckNewLeader(pkt.src, *m);
      }
      break;
    }
    case ZabMsgType::kPropose: {
      // Zero-copy dispatch: the view borrows pkt.payload, which stays alive
      // for the whole Process call.
      auto m = DecodeProposeMsgView(pkt.payload);
      if (m.ok()) {
        OnPropose(*m);
      }
      break;
    }
    case ZabMsgType::kAck: {
      auto m = DecodeMsg<ZxidMsg>(pkt.payload);
      if (m.ok()) {
        OnAck(pkt.src, *m);
      }
      break;
    }
    case ZabMsgType::kCommit: {
      auto m = DecodeMsg<ZxidMsg>(pkt.payload);
      if (m.ok()) {
        OnCommitMsg(*m);
      }
      break;
    }
    case ZabMsgType::kHeartbeat: {
      auto m = DecodeMsg<EpochMsg>(pkt.payload);
      if (m.ok()) {
        OnHeartbeat(pkt.src, *m);
      }
      break;
    }
    case ZabMsgType::kHeartbeatAck: {
      auto m = DecodeMsg<EpochMsg>(pkt.payload);
      if (m.ok()) {
        OnHeartbeatAck(pkt.src, *m);
      }
      break;
    }
    default:
      break;
  }
}

}  // namespace edc
