#include "edc/bft/replica.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>

#include "edc/common/hash.h"
#include "edc/common/logging.h"

namespace edc {

BftReplica::BftReplica(EventLoop* loop, Network* net, CpuQueue* cpu, const CostModel& costs,
                       NodeId self, std::vector<NodeId> members, BftCallbacks* callbacks)
    : loop_(loop),
      net_(net),
      cpu_(cpu),
      costs_(costs),
      self_(self),
      members_(std::move(members)),
      f_(BftFaultThreshold(members_.size())),
      callbacks_(callbacks),
      m_prepares_(loop->obs().metrics.GetCounter("bft.prepares")),
      m_commits_(loop->obs().metrics.GetCounter("bft.commits")),
      m_checkpoints_(loop->obs().metrics.GetCounter("bft.checkpoints")),
      m_state_transfers_(loop->obs().metrics.GetCounter("bft.state_transfers")) {}

void BftReplica::Start() {
  cpu_->NextIncarnation();
  running_ = true;
  view_ = 0;
  view_changing_ = false;
  vc_target_ = 0;
  next_seq_ = 0;
  last_executed_ = 0;
  executed_ops_ = 0;
  flush_scheduled_ = false;
  last_ts_ = 0;
  last_exec_ts_ = 0;
  ClearEntries();
  pending_.clear();
  executed_reqs_.clear();
  view_changes_.clear();
  low_watermark_ = 0;
  own_checkpoints_.clear();
  checkpoint_votes_.clear();
  offered_states_.clear();
  claimed_views_.clear();
  own_state_seq_ = 0;
  own_state_.clear();
  fetch_target_ = 0;
  probe_budget_ = 0;
}

void BftReplica::Crash() {
  cpu_->NextIncarnation();
  running_ = false;
  request_trace_.clear();
  loop_->Cancel(request_timer_);
}

void BftReplica::Restart() {
  // The service layer must have reset its state machine; we rejoin with an
  // empty log and actively probe peers for the latest checkpoint so state
  // transfer completes even if the cluster is idle (no new checkpoints).
  Start();
  probe_budget_ = 16;
  ScheduleCatchupProbe();
}

size_t BftReplica::dedup_ids() const {
  size_t total = 0;
  for (const auto& [client, dedup] : executed_reqs_) {
    total += dedup.ids.size();
  }
  return total;
}

void BftReplica::SendTo(NodeId dst, BftMsgType type, std::vector<uint8_t> payload) {
  Packet pkt;
  pkt.src = self_;
  pkt.dst = dst;
  pkt.type = static_cast<uint32_t>(type);
  pkt.payload = std::move(payload);
  net_->Send(std::move(pkt));
}

void BftReplica::BroadcastToReplicas(BftMsgType type, const std::vector<uint8_t>& payload) {
  for (NodeId peer : members_) {
    if (peer != self_) {
      SendTo(peer, type, payload);
    }
  }
}

void BftReplica::SendReply(NodeId client, uint64_t req_id, std::vector<uint8_t> payload) {
  ReplyMsg reply{req_id, view_, std::move(payload)};
  SendTo(client, BftMsgType::kReply, EncodeMsg(reply));
}

void BftReplica::HandlePacket(Packet&& pkt) {
  if (!running_) {
    return;
  }
  auto shared = std::make_shared<Packet>(std::move(pkt));
  cpu_->Submit(costs_.bft_msg_cpu, [this, shared]() { Process(std::move(*shared)); });
}

void BftReplica::Process(Packet&& pkt) {
  switch (static_cast<BftMsgType>(pkt.type)) {
    case BftMsgType::kRequest: {
      auto m = DecodeMsg<BftRequest>(pkt.payload);
      if (m.ok()) {
        OnRequest(std::move(*m));
      }
      break;
    }
    case BftMsgType::kPrePrepare: {
      auto m = DecodeMsg<PrePrepareMsg>(pkt.payload);
      if (m.ok()) {
        OnPrePrepare(pkt.src, std::move(*m));
      }
      break;
    }
    case BftMsgType::kPrepare: {
      auto m = DecodeMsg<PhaseMsg>(pkt.payload);
      if (m.ok()) {
        OnPrepare(pkt.src, *m);
      }
      break;
    }
    case BftMsgType::kCommit: {
      auto m = DecodeMsg<PhaseMsg>(pkt.payload);
      if (m.ok()) {
        OnCommit(pkt.src, *m);
      }
      break;
    }
    case BftMsgType::kViewChange: {
      auto m = DecodeMsg<ViewChangeMsg>(pkt.payload);
      if (m.ok()) {
        OnViewChange(pkt.src, std::move(*m));
      }
      break;
    }
    case BftMsgType::kNewView: {
      auto m = DecodeMsg<NewViewMsg>(pkt.payload);
      if (m.ok()) {
        OnNewView(pkt.src, std::move(*m));
      }
      break;
    }
    case BftMsgType::kCheckpoint: {
      auto m = DecodeMsg<CheckpointMsg>(pkt.payload);
      if (m.ok()) {
        OnCheckpoint(pkt.src, *m);
      }
      break;
    }
    case BftMsgType::kStateRequest: {
      auto m = DecodeMsg<StateRequestMsg>(pkt.payload);
      if (m.ok()) {
        OnStateRequest(pkt.src, *m);
      }
      break;
    }
    case BftMsgType::kStateResponse: {
      auto m = DecodeMsg<StateResponseMsg>(pkt.payload);
      if (m.ok()) {
        OnStateResponse(pkt.src, std::move(*m));
      }
      break;
    }
    default:
      break;
  }
}

namespace {

// Adds `id` to a sorted id list unless present: usually an append.
void InsertId(std::vector<uint64_t>& ids, uint64_t id) {
  if (ids.empty() || ids.back() < id) {
    ids.push_back(id);
    return;
  }
  auto it = std::lower_bound(ids.begin(), ids.end(), id);
  if (*it != id) {
    ids.insert(it, id);
  }
}

}  // namespace

bool BftReplica::AlreadyOrdered(const BftRequest& req) const {
  auto it = executed_reqs_.find(req.client);
  if (it != executed_reqs_.end() &&
      (req.req_id <= it->second.floor ||
       std::binary_search(it->second.ids.begin(), it->second.ids.end(), req.req_id))) {
    return true;
  }
  return ordered_in_window_.count({req.client, req.req_id}) > 0;
}

void BftReplica::SetBatch(Entry& entry, BftBatch batch) {
  for (const BftRequest& old : entry.batch) {
    auto it = ordered_in_window_.find({old.client, old.req_id});
    if (--it->second == 0) {
      ordered_in_window_.erase(it);
    }
  }
  for (const BftRequest& req : batch) {
    ++ordered_in_window_[{req.client, req.req_id}];
  }
  entry.batch = std::move(batch);
}

void BftReplica::EraseEntries(std::map<uint64_t, Entry>::iterator first,
                              std::map<uint64_t, Entry>::iterator last) {
  for (auto it = first; it != last; ++it) {
    SetBatch(it->second, {});
  }
  entries_.erase(first, last);
}

void BftReplica::ClearEntries() {
  entries_.clear();
  ordered_in_window_.clear();
}

void BftReplica::MarkExecuted(NodeId client, uint64_t req_id) {
  ClientDedup& dedup = executed_reqs_[client];
  if (req_id > dedup.floor) {
    InsertId(dedup.ids, req_id);
  }
}

void BftReplica::OnRequest(BftRequest&& req) {
  if (AlreadyOrdered(req)) {
    return;
  }
  if (const Obs& obs = loop_->obs(); obs.enabled()) {
    const TraceContext& ctx = obs.tracer.current();
    if (ctx.active()) {
      // First arrival or retransmit both overwrite: the freshest context is
      // the one the eventual execution should be attributed to.
      request_trace_[{req.client, req.req_id}] = RequestTrace{ctx, loop_->now()};
    }
  }
  for (const BftRequest& p : pending_) {
    if (p.client == req.client && p.req_id == req.req_id) {
      return;
    }
  }
  pending_.push_back(std::move(req));
  if (is_primary() && !view_changing_) {
    ScheduleFlush();
  } else {
    ArmRequestTimer();
  }
}

void BftReplica::ScheduleFlush() {
  // A zero-cost item behind every packet already queued on the core: the
  // requests among those packets join this batch. On an idle core it runs at
  // the current instant, so a lone request is not delayed.
  if (flush_scheduled_) {
    return;
  }
  flush_scheduled_ = true;
  cpu_->Submit(0, [this]() {
    flush_scheduled_ = false;
    if (is_primary() && !view_changing_) {
      ProposePending();
    }
  });
}

void BftReplica::ProposePending() {
  // Stop at the high watermark: proposals beyond (low + window] would be
  // rejected by every backup. The queue drains when the next stable
  // checkpoint advances the window (MakeStable re-calls this).
  if (pending_.empty()) {
    return;
  }
  if (next_seq_ >= low_watermark_ + kWatermarkWindow) {
    ArmRequestTimer();
    return;
  }
  BftBatch batch;
  for (BftRequest& req : pending_) {
    if (!AlreadyOrdered(req)) {
      batch.push_back(std::move(req));
    }
  }
  pending_.clear();
  if (!batch.empty()) {
    Propose(std::move(batch));
  }
}

void BftReplica::Propose(BftBatch batch) {
  uint64_t seq = ++next_seq_;
  SimTime ts = std::max(last_ts_ + 1, loop_->now());
  last_ts_ = ts + static_cast<SimTime>(batch.size()) - 1;

  Entry& entry = entries_[seq];
  entry.view = view_;
  entry.ts = ts;
  entry.digest = BatchDigest(seq, ts, batch);
  SetBatch(entry, batch);
  entry.has_batch = true;
  entry.prepares.insert(self_);  // pre-prepare counts as the primary's prepare

  if (equivocate_) {
    // Byzantine primary: stamp a different timestamp for every backup, so
    // digests diverge and no backup ever collects a matching quorum.
    SimTime bogus = ts;
    for (NodeId peer : members_) {
      if (peer == self_) {
        continue;
      }
      bogus += 1;
      PrePrepareMsg msg{view_, seq, bogus, entry.batch};
      SendTo(peer, BftMsgType::kPrePrepare, EncodeMsg(msg));
    }
  } else {
    PrePrepareMsg msg{view_, seq, ts, std::move(batch)};
    BroadcastToReplicas(BftMsgType::kPrePrepare, EncodeMsg(msg));
  }
  CheckPrepared(seq);
}

void BftReplica::OnPrePrepare(NodeId from, PrePrepareMsg&& msg) {
  if (msg.view != view_ || from != PrimaryOf(view_) || view_changing_) {
    return;
  }
  if (msg.seq <= last_executed_ || !InWindow(msg.seq)) {
    return;
  }
  uint64_t digest = BatchDigest(msg.seq, msg.ts, msg.batch);
  Entry& entry = entries_[msg.seq];
  if (entry.has_batch && entry.digest != digest) {
    return;  // conflicting pre-prepare; keep the first
  }
  entry.view = msg.view;
  entry.ts = msg.ts;
  entry.digest = digest;
  SetBatch(entry, std::move(msg.batch));
  entry.has_batch = true;
  entry.prepares.insert(from);          // primary's pre-prepare
  entry.prepares.insert(self_);  // our own prepare
  PhaseMsg prepare{view_, msg.seq, entry.digest};
  if (loop_->obs().enabled()) {
    m_prepares_->Increment();
  }
  BroadcastToReplicas(BftMsgType::kPrepare, EncodeMsg(prepare));
  CheckPrepared(msg.seq);
  ArmRequestTimer();
}

void BftReplica::OnPrepare(NodeId from, const PhaseMsg& msg) {
  if (msg.view != view_ || view_changing_ || msg.seq <= last_executed_ ||
      !InWindow(msg.seq)) {
    return;
  }
  Entry& entry = entries_[msg.seq];
  if (entry.has_batch && entry.digest != msg.digest) {
    return;  // mismatching digest (equivocating primary)
  }
  entry.prepares.insert(from);
  CheckPrepared(msg.seq);
}

void BftReplica::CheckPrepared(uint64_t seq) {
  auto it = entries_.find(seq);
  if (it == entries_.end()) {
    return;
  }
  Entry& entry = it->second;
  if (!entry.has_batch || entry.sent_commit || entry.prepares.size() < PrepareQuorum()) {
    return;
  }
  entry.sent_commit = true;
  entry.commits.insert(self_);
  PhaseMsg commit{view_, seq, entry.digest};
  if (loop_->obs().enabled()) {
    m_commits_->Increment();
  }
  BroadcastToReplicas(BftMsgType::kCommit, EncodeMsg(commit));
  CheckCommitted(seq);
}

void BftReplica::OnCommit(NodeId from, const PhaseMsg& msg) {
  if (msg.view != view_ || view_changing_ || msg.seq <= last_executed_ ||
      !InWindow(msg.seq)) {
    return;
  }
  Entry& entry = entries_[msg.seq];
  if (entry.has_batch && entry.digest != msg.digest) {
    return;
  }
  entry.commits.insert(from);
  CheckCommitted(msg.seq);
}

void BftReplica::CheckCommitted(uint64_t seq) {
  auto it = entries_.find(seq);
  if (it == entries_.end()) {
    return;
  }
  Entry& entry = it->second;
  if (entry.has_batch && entry.sent_commit && entry.commits.size() >= CommitQuorum()) {
    TryExecute();
  }
}

void BftReplica::TryExecute() {
  while (true) {
    auto it = entries_.find(last_executed_ + 1);
    if (it == entries_.end()) {
      break;
    }
    Entry& entry = it->second;
    if (!entry.has_batch || !entry.sent_commit || entry.commits.size() < CommitQuorum() ||
        entry.executed) {
      break;
    }
    entry.executed = true;
    ++last_executed_;
    for (size_t i = 0; i < entry.batch.size(); ++i) {
      ExecuteRequest(entry.batch[i], entry.ts + static_cast<SimTime>(i));
    }
    last_exec_ts_ = entry.ts + static_cast<SimTime>(std::max<size_t>(entry.batch.size(), 1)) - 1;
    EraseEntries(it, std::next(it));
    if (last_executed_ % kCheckpointInterval == 0) {
      TakeLocalCheckpoint();
    }
  }
  if (pending_.empty() && entries_.empty()) {
    loop_->Cancel(request_timer_);
    request_timer_ = kInvalidTimer;
  } else {
    ArmRequestTimer();
  }
  if (is_primary() && !view_changing_) {
    ProposePending();
  }
}

void BftReplica::ExecuteRequest(const BftRequest& req, SimTime ts) {
  MarkExecuted(req.client, req.req_id);
  // Execute (and the reply it sends) runs under the context captured when
  // the request arrived, so the reply path stays attributed to it.
  Tracer& tracer = loop_->obs().tracer;
  TraceContext prev;
  bool restored = false;
  if (tracer.enabled()) {
    auto rit = request_trace_.find({req.client, req.req_id});
    if (rit != request_trace_.end()) {
      tracer.RecordSpanIn(rit->second.ctx, "bft.order", Stage::kOther, self_, rit->second.at,
                          loop_->now());
      prev = tracer.current();
      tracer.SetCurrent(rit->second.ctx);
      request_trace_.erase(rit);
      restored = true;
    }
  }
  BftExecOutcome outcome = callbacks_->Execute(++executed_ops_, ts, req);
  if (outcome.cpu_cost > 0) {
    cpu_->Charge(outcome.cpu_cost);  // occupy the core
  }
  if (restored) {
    tracer.SetCurrent(prev);
  }
  // Drop any buffered copy so the request timer can disarm.
  for (auto p = pending_.begin(); p != pending_.end(); ++p) {
    if (p->client == req.client && p->req_id == req.req_id) {
      pending_.erase(p);
      break;
    }
  }
}

// ------------------------------------------------- checkpoints / GC / transfer

namespace {

// The checkpoint header ahead of the framed service snapshot, fields in wire
// order. `Dedup` is the replica's map of client -> executed request ids.
template <class Io, class Dedup>
void CheckpointHeader(Io& io, uint64_t& last_executed, uint64_t& executed_ops,
                      SimTime& last_exec_ts, Dedup& executed_reqs) {
  io.U64(last_executed);
  io.U64(executed_ops);
  io.I64(last_exec_ts);
  io.List(executed_reqs, [&](auto& client) {
    io.U32(client.first);
    io.U64(client.second.floor);
    io.List(client.second.ids, [&](uint64_t& id) { io.U64(id); });
  });
}

}  // namespace

std::vector<uint8_t> BftReplica::ComposeCheckpoint() {
  // Pure function of the executed history: every field below is updated only
  // during ordered execution (or at the deterministic checkpoint boundary in
  // GcDedup's case), so replicas at the same sequence number agree
  // byte-for-byte and the digest doubles as the transfer integrity check.
  Encoder enc;
  CheckpointHeader(enc, last_executed_, executed_ops_, last_exec_ts_, executed_reqs_);
  enc.Frame(callbacks_->TakeSnapshot());
  return enc.Release();
}

void BftReplica::GcDedup() {
  for (auto& [client, dedup] : executed_reqs_) {
    uint64_t hi = dedup.ids.empty() ? dedup.floor : *dedup.ids.rbegin();
    uint64_t floor = hi > kDedupWindow ? hi - kDedupWindow : 0;
    if (floor > dedup.floor) {
      dedup.floor = floor;
    }
    dedup.ids.erase(dedup.ids.begin(),
                    std::upper_bound(dedup.ids.begin(), dedup.ids.end(), dedup.floor));
  }
}

void BftReplica::TakeLocalCheckpoint() {
  GcDedup();  // deterministic boundary: same GC point on every replica
  std::vector<uint8_t> state = ComposeCheckpoint();
  uint64_t digest = Fnv1a64(state);
  own_checkpoints_[last_executed_] = digest;
  while (own_checkpoints_.size() > kMaxTrackedCheckpoints) {
    own_checkpoints_.erase(own_checkpoints_.begin());
  }
  own_state_seq_ = last_executed_;
  own_state_ = std::move(state);
  CheckpointMsg msg{view_, last_executed_, digest};
  if (loop_->obs().enabled()) {
    m_checkpoints_->Increment();
  }
  BroadcastToReplicas(BftMsgType::kCheckpoint, EncodeMsg(msg));
  AddCheckpointVote(self_, msg.seq, msg.digest, view_);
}

void BftReplica::OnCheckpoint(NodeId from, const CheckpointMsg& msg) {
  AddCheckpointVote(from, msg.seq, msg.digest, msg.view);
}

void BftReplica::OnStateRequest(NodeId from, const StateRequestMsg& msg) {
  // Two offers. The checkpoint-boundary snapshot verifies against the
  // CHECKPOINT votes already in flight cluster-wide, so under load a single
  // response suffices. The freshly composed current-state snapshot covers the
  // tail beyond the last boundary: in a quiesced cluster all honest replicas
  // sit at the same sequence number, so f+1 of these match each other — this
  // is how a requester reaches the final executed state (or any state at all
  // before the first checkpoint is ever taken).
  if (own_state_seq_ > msg.last_executed && !own_state_.empty() &&
      own_state_seq_ != last_executed_) {
    StateResponseMsg resp{view_, own_state_seq_, Fnv1a64(own_state_), own_state_};
    SendTo(from, BftMsgType::kStateResponse, EncodeMsg(resp));
  }
  if (last_executed_ > msg.last_executed) {
    std::vector<uint8_t> state = ComposeCheckpoint();
    uint64_t digest = Fnv1a64(state);
    StateResponseMsg resp{view_, last_executed_, digest, std::move(state)};
    SendTo(from, BftMsgType::kStateResponse, EncodeMsg(resp));
  }
}

void BftReplica::OnStateResponse(NodeId from, StateResponseMsg&& msg) {
  if (Fnv1a64(msg.state) != msg.digest) {
    return;  // payload does not match its own digest: drop
  }
  if (msg.seq > last_executed_) {
    auto& by_digest = offered_states_[msg.seq];
    if (by_digest.size() < f_ + 1 ||
        by_digest.count(msg.digest) > 0) {
      by_digest[msg.digest] = std::move(msg.state);
    }
    while (offered_states_.size() > kMaxTrackedCheckpoints) {
      offered_states_.erase(std::prev(offered_states_.end()));
    }
  }
  AddCheckpointVote(from, msg.seq, msg.digest, msg.view);
}

void BftReplica::AddCheckpointVote(NodeId from, uint64_t seq, uint64_t digest,
                                   uint64_t claimed_view) {
  if (from != self_) {
    uint64_t& claimed = claimed_views_[from];
    claimed = std::max(claimed, claimed_view);
    MaybeAdoptView();
  }
  if (seq <= low_watermark_) {
    return;
  }
  checkpoint_votes_[seq][from] = digest;
  while (checkpoint_votes_.size() > kMaxTrackedCheckpoints) {
    // Honest checkpoints track execution; evict the furthest-future entry
    // first so a Byzantine flood of bogus high seqs cannot displace them.
    checkpoint_votes_.erase(std::prev(checkpoint_votes_.end()));
  }

  // Stability: 2f+1 matching digests (counting our own) for a checkpoint we
  // have taken ourselves.
  auto own = own_checkpoints_.find(seq);
  if (own != own_checkpoints_.end()) {
    size_t matching = 0;
    for (const auto& [node, d] : checkpoint_votes_[seq]) {
      if (d == own->second) {
        ++matching;
      }
    }
    if (matching >= 2 * f_ + 1) {
      MakeStable(seq);
      return;
    }
  }

  // Gap detection: f+1 distinct replicas (one of them honest) vouch for
  // state beyond what we can reach by executing what we already hold.
  if (seq > last_executed_) {
    size_t agreeing = 0;
    for (const auto& [node, d] : checkpoint_votes_[seq]) {
      if (d == digest) {
        ++agreeing;
      }
    }
    if (agreeing >= f_ + 1) {
      bool reachable = true;
      for (uint64_t s = last_executed_ + 1; s <= seq; ++s) {
        auto it = entries_.find(s);
        if (it == entries_.end() || !it->second.has_batch) {
          reachable = false;
          break;
        }
      }
      if (!reachable) {
        MaybeInstallState();
        if (last_executed_ < seq && fetch_target_ < seq) {
          fetch_target_ = seq;
          StateRequestMsg req{last_executed_};
          BroadcastToReplicas(BftMsgType::kStateRequest, EncodeMsg(req));
        }
      }
    }
  }
}

void BftReplica::MaybeAdoptView() {
  // f+1 peers reporting view >= v means at least one honest replica moved to
  // v: a rejoining replica adopts it instead of fighting through redundant
  // view changes. v is the (f+1)-th largest claimed view.
  if (claimed_views_.size() < f_ + 1) {
    return;
  }
  std::vector<uint64_t> views;
  views.reserve(claimed_views_.size());
  for (const auto& [node, v] : claimed_views_) {
    views.push_back(v);
  }
  std::sort(views.begin(), views.end(), std::greater<uint64_t>());
  uint64_t adopted = views[f_];
  if (adopted > view_) {
    EDC_LOG(kDebug) << "replica " << self_ << " adopts view " << adopted
                    << " from checkpoint traffic (was " << view_ << ")";
    view_ = adopted;
    view_changing_ = false;
    vc_target_ = std::max(vc_target_, adopted);
    next_seq_ = std::max(next_seq_, last_executed_);
    if (is_primary()) {
      ProposePending();
    }
  }
}

void BftReplica::MakeStable(uint64_t seq) {
  if (seq <= low_watermark_) {
    return;
  }
  low_watermark_ = seq;
  // Log GC: everything at or below the stable checkpoint is re-creatable
  // from the checkpoint itself; pre-prepares outside the new window are
  // rejected from here on.
  EraseEntries(entries_.begin(), entries_.upper_bound(seq));
  own_checkpoints_.erase(own_checkpoints_.begin(), own_checkpoints_.lower_bound(seq));
  checkpoint_votes_.erase(checkpoint_votes_.begin(), checkpoint_votes_.lower_bound(seq));
  offered_states_.erase(offered_states_.begin(), offered_states_.upper_bound(seq));
  for (auto it = view_changes_.begin(); it != view_changes_.end();) {
    it = it->first <= view_ ? view_changes_.erase(it) : std::next(it);
  }
  EDC_LOG(kDebug) << "replica " << self_ << " stable checkpoint at " << seq;
  if (is_primary() && !view_changing_) {
    ProposePending();  // the watermark advance may have reopened the window
  }
}

void BftReplica::MaybeInstallState() {
  // Newest first: installing the highest vouched-for checkpoint subsumes the
  // older ones.
  for (auto it = checkpoint_votes_.rbegin(); it != checkpoint_votes_.rend(); ++it) {
    uint64_t seq = it->first;
    if (seq <= last_executed_) {
      break;
    }
    auto offered = offered_states_.find(seq);
    if (offered == offered_states_.end()) {
      continue;
    }
    std::map<uint64_t, size_t> by_digest;
    for (const auto& [node, d] : it->second) {
      ++by_digest[d];
    }
    for (const auto& [digest, votes] : by_digest) {
      if (votes < f_ + 1) {
        continue;
      }
      auto state = offered->second.find(digest);
      if (state != offered->second.end() && InstallCheckpoint(seq, state->second)) {
        return;
      }
    }
  }
}

bool BftReplica::InstallCheckpoint(uint64_t seq, const std::vector<uint8_t>& state) {
  Decoder dec(state);
  uint64_t exec = 0;
  uint64_t ops = 0;
  SimTime exec_ts = 0;
  std::map<NodeId, ClientDedup> dedup;
  CheckpointHeader(dec, exec, ops, exec_ts, dedup);
  dec.Check(exec == seq);
  std::span<const uint8_t> service;
  dec.Check(dec.Frame(service));
  if (!dec.ok()) {
    return false;
  }
  if (auto s = callbacks_->RestoreSnapshot({service.begin(), service.end()}); !s.ok()) {
    EDC_LOG(kWarn) << "replica " << self_ << " snapshot restore failed: "
                   << s.message();
    return false;
  }
  uint64_t digest = Fnv1a64(state);
  // A successful install proves a live ordering pipeline at the current view
  // (someone executed past us), so abandon any lone view change we started
  // while isolated — otherwise view_changing_ would keep us rejecting
  // pre-prepares forever. Genuine cluster-wide view changes stall execution,
  // produce no new checkpoints, and therefore never reach this path.
  view_changing_ = false;
  last_executed_ = seq;
  executed_ops_ = ops;
  last_exec_ts_ = exec_ts;
  last_ts_ = std::max(last_ts_, last_exec_ts_);
  executed_reqs_ = std::move(dedup);
  next_seq_ = std::max(next_seq_, seq);
  low_watermark_ = seq;
  EraseEntries(entries_.begin(), entries_.upper_bound(seq));
  own_checkpoints_[seq] = digest;
  own_state_seq_ = seq;
  own_state_ = state;
  checkpoint_votes_.erase(checkpoint_votes_.begin(), checkpoint_votes_.lower_bound(seq));
  offered_states_.erase(offered_states_.begin(), offered_states_.upper_bound(seq));
  fetch_target_ = 0;
  ++state_transfers_;
  if (loop_->obs().enabled()) {
    m_state_transfers_->Increment();
  }
  // Buffered requests the transferred dedup summary shows as executed will
  // never execute here; dropping them lets the request timer quiesce.
  for (auto it = pending_.begin(); it != pending_.end();) {
    it = AlreadyOrdered(*it) ? pending_.erase(it) : std::next(it);
  }
  EDC_LOG(kInfo) << "replica " << self_ << " installed checkpoint " << seq
                 << " via state transfer";
  TryExecute();  // entries beyond the checkpoint may already be committed
  return true;
}

void BftReplica::ScheduleCatchupProbe() {
  if (!running_ || probe_budget_ <= 0) {
    return;
  }
  --probe_budget_;
  StateRequestMsg req{last_executed_};
  BroadcastToReplicas(BftMsgType::kStateRequest, EncodeMsg(req));
  loop_->Schedule(kRequestTimeout * 2, cpu_->Guard([this]() {
    // Keep probing while any peer has vouched for state beyond us (or we
    // have yet to execute anything at all); the budget bounds the idle-timer
    // lifetime so an up-to-date ensemble quiesces.
    uint64_t ahead = 0;
    for (const auto& [seq, votes] : checkpoint_votes_) {
      ahead = std::max(ahead, seq);
    }
    if (ahead > last_executed_ || last_executed_ == 0) {
      ScheduleCatchupProbe();
    }
  }));
}

// -------------------------------------------------------------- view change

void BftReplica::ArmRequestTimer() {
  if (request_timer_ != kInvalidTimer) {
    return;
  }
  exec_at_arm_ = last_executed_;
  request_timer_ = loop_->Schedule(kRequestTimeout, cpu_->Guard([this]() {
    request_timer_ = kInvalidTimer;
    OnRequestTimeout();
  }));
}

void BftReplica::OnRequestTimeout() {
  bool work_outstanding = !pending_.empty() || !entries_.empty();
  if (view_changing_) {
    // View change itself stalled (e.g. the would-be primary is down); move
    // to the next view. Also probe for state: if the rest of the cluster is
    // in fact executing without us (we slept through a partition), peers
    // answer with a checkpoint and the transfer path rejoins us.
    StateRequestMsg probe{last_executed_};
    BroadcastToReplicas(BftMsgType::kStateRequest, EncodeMsg(probe));
    StartViewChange(vc_target_ + 1);
    return;
  }
  if (!work_outstanding) {
    return;
  }
  // A loaded-but-progressing primary is not a faulty primary: only suspect
  // it when no request at all executed during the whole timeout window.
  if (last_executed_ > exec_at_arm_) {
    ArmRequestTimer();
    return;
  }
  StateRequestMsg probe{last_executed_};
  BroadcastToReplicas(BftMsgType::kStateRequest, EncodeMsg(probe));
  StartViewChange(view_ + 1);
}

void BftReplica::StartViewChange(uint64_t new_view) {
  view_changing_ = true;
  vc_target_ = std::max(vc_target_, new_view);
  ViewChangeMsg msg;
  msg.new_view = new_view;
  msg.last_executed = last_executed_;
  for (const auto& [seq, entry] : entries_) {
    if (entry.has_batch && entry.prepares.size() >= PrepareQuorum()) {
      msg.prepared.push_back(PreparedEntry{entry.view, seq, entry.ts, entry.batch});
    }
  }
  EDC_LOG(kDebug) << "replica " << self_ << " view-change to " << new_view;
  view_changes_[new_view][self_] = msg;
  BroadcastToReplicas(BftMsgType::kViewChange, EncodeMsg(msg));
  ArmRequestTimer();  // keep escalating if this view change stalls
  OnViewChange(self_, std::move(msg));
}

void BftReplica::OnViewChange(NodeId from, ViewChangeMsg&& msg) {
  if (msg.new_view <= view_) {
    return;
  }
  auto& quorum = view_changes_[msg.new_view];
  quorum[from] = std::move(msg);
  uint64_t new_view = quorum.begin()->second.new_view;

  // Join a view change that f+1 others already back, even without a timeout.
  if (!view_changing_ && quorum.size() >= f_ + 1) {
    StartViewChange(new_view);
    return;
  }
  if (quorum.size() < 2 * f_ + 1 ||
      PrimaryOf(new_view) != self_) {
    return;
  }
  // We are the new primary: re-propose, per sequence number, the batch
  // prepared in the highest view any quorum member reports.
  std::map<uint64_t, PreparedEntry> merged;
  for (const auto& [node, vc] : quorum) {
    for (const PreparedEntry& e : vc.prepared) {
      auto [it, inserted] = merged.emplace(e.seq, e);
      if (!inserted && e.view > it->second.view) {
        it->second = e;
      }
    }
  }
  NewViewMsg nv;
  nv.new_view = new_view;
  uint64_t max_seq = last_executed_;
  for (const auto& [seq, e] : merged) {
    max_seq = std::max(max_seq, seq);
  }
  for (uint64_t seq = last_executed_ + 1; seq <= max_seq; ++seq) {
    auto it = merged.find(seq);
    if (it != merged.end()) {
      nv.reproposed.push_back(it->second);
    } else {
      // Pad ordering gaps with no-ops (empty batches).
      PreparedEntry noop;
      noop.view = new_view;
      noop.seq = seq;
      noop.ts = ++last_ts_;
      nv.reproposed.push_back(noop);
    }
  }
  BroadcastToReplicas(BftMsgType::kNewView, EncodeMsg(nv));
  OnNewView(self_, std::move(nv));
}

void BftReplica::OnNewView(NodeId from, NewViewMsg&& msg) {
  // Only the primary of the new view may install it.
  if (msg.new_view <= view_ || from != PrimaryOf(msg.new_view)) {
    return;
  }
  view_ = msg.new_view;
  view_changing_ = false;
  ClearEntries();
  view_changes_.erase(msg.new_view);
  next_seq_ = last_executed_;
  for (const PreparedEntry& e : msg.reproposed) {
    next_seq_ = std::max(next_seq_, e.seq);
    if (e.seq <= last_executed_) {
      continue;
    }
    AdoptEntry(e, view_);
  }
  last_ts_ = std::max(last_ts_, loop_->now());
  if (is_primary()) {
    ProposePending();
  } else if (!pending_.empty() || !entries_.empty()) {
    ArmRequestTimer();
  }
}

void BftReplica::AdoptEntry(const PreparedEntry& e, uint64_t view) {
  if (!InWindow(e.seq)) {
    return;  // below the stable checkpoint (or absurdly far ahead)
  }
  Entry& entry = entries_[e.seq];
  entry.view = view;
  entry.ts = e.ts;
  entry.digest = BatchDigest(e.seq, e.ts, e.batch);
  SetBatch(entry, e.batch);
  entry.has_batch = true;
  entry.prepares.insert(PrimaryOf(view));
  entry.prepares.insert(self_);
  PhaseMsg prepare{view, e.seq, entry.digest};
  if (loop_->obs().enabled()) {
    m_prepares_->Increment();
  }
  BroadcastToReplicas(BftMsgType::kPrepare, EncodeMsg(prepare));
  CheckPrepared(e.seq);
}

}  // namespace edc
