#include "edc/check/explorer.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "edc/check/history.h"
#include "edc/common/rng.h"
#include "edc/harness/invariants.h"

namespace edc {

namespace {

constexpr Duration kOpTimeout = Millis(2000);
constexpr Duration kWorkloadDeadline = Seconds(15);
constexpr Duration kDrainTime = Seconds(3);

// Drives one client through a seeded sequence of operations. Each operation
// is raced against a timeout: a pending ZK call can legitimately hang
// forever (parked across a reconnect, or a blocking DS read with no matching
// tuple), and the workload must keep making progress through fault windows.
// The generation counter makes whichever of {completion, timeout} fires
// first claim the advance; the loser becomes a no-op.
class Worker {
 public:
  Worker(EventLoop* loop, uint64_t seed, size_t ops)
      : loop_(loop), rng_(seed), remaining_(ops) {}
  virtual ~Worker() = default;

  void Start() { Next(); }
  bool done() const { return done_; }

  // Quiesces the worker: every timer callback still queued in the loop
  // (op timeouts, rescheduled Next calls) becomes a no-op. The worker must
  // stay alive until the loop stops running — its callbacks capture `this`.
  void Stop() {
    remaining_ = 0;
    ++gen_;
  }

 protected:
  virtual void Issue(std::function<void()> done) = 0;

  EventLoop* loop_;
  Rng rng_;

 private:
  void Next() {
    if (remaining_ == 0) {
      done_ = true;
      return;
    }
    --remaining_;
    uint64_t cur = ++gen_;
    auto advance = [this, cur] {
      if (cur != gen_) {
        return;
      }
      ++gen_;  // claim; the other of {completion, timeout} is now a no-op
      loop_->Schedule(Millis(5 + rng_.UniformU64(40)), [this] { Next(); });
    };
    loop_->Schedule(kOpTimeout, advance);
    Issue(std::move(advance));
  }

  size_t remaining_;
  uint64_t gen_ = 0;
  bool done_ = false;
};

class ZkWorker : public Worker {
 public:
  ZkWorker(EventLoop* loop, ZkClient* client, uint64_t seed, size_t ops)
      : Worker(loop, seed, ops), client_(client) {}

 protected:
  void Issue(std::function<void()> done) override {
    if (!made_root_) {
      made_root_ = true;
      client_->Create("/w", "", false, false, [done](Result<std::string>) { done(); });
      return;
    }
    static const char* kNames[] = {"a", "b", "c", "d", "e", "f"};
    std::string path = std::string("/w/") + kNames[rng_.UniformU64(6)];
    std::string data = "v" + std::to_string(rng_.UniformU64(1000));
    bool watch = rng_.UniformU64(2) == 0;
    uint64_t pick = rng_.UniformU64(100);
    if (pick < 25) {
      bool ephemeral = rng_.UniformU64(4) == 0;
      bool sequential = rng_.UniformU64(4) == 0;
      client_->Create(path, data, ephemeral, sequential,
                      [done](Result<std::string>) { done(); });
    } else if (pick < 40) {
      client_->SetData(path, data, -1, [done](Status) { done(); });
    } else if (pick < 50) {
      client_->Delete(path, -1, [done](Status) { done(); });
    } else if (pick < 65) {
      client_->Exists(path, watch, [done](Result<ZkClient::ExistsResult>) { done(); });
    } else if (pick < 80) {
      client_->GetData(path, watch, [done](Result<ZkClient::NodeResult>) { done(); });
    } else if (pick < 90) {
      client_->GetChildren(rng_.UniformU64(2) == 0 ? "/w" : path, watch,
                           [done](Result<std::vector<std::string>>) { done(); });
    } else {
      ZkOp create;
      create.type = ZkOpType::kCreate;
      create.path = path + "/m";
      create.data = data;
      ZkOp set;
      set.type = ZkOpType::kSetData;
      set.path = path;
      set.data = data + "m";
      client_->Multi({create, set}, [done](Status) { done(); });
    }
  }

 private:
  ZkClient* client_;
  bool made_root_ = false;
};

class DsWorker : public Worker {
 public:
  DsWorker(EventLoop* loop, DsClient* client, uint64_t seed, size_t ops)
      : Worker(loop, seed, ops), client_(client) {}

 protected:
  void Issue(std::function<void()> done) override {
    std::string key = "k" + std::to_string(rng_.UniformU64(4));
    DsTuple tuple{DsField{std::string("/w")}, DsField{key},
                  DsField{static_cast<int64_t>(rng_.UniformU64(100))}};
    DsTemplate exact{DsTField::Exact(std::string("/w")), DsTField::Exact(key),
                     DsTField::Any()};
    DsTemplate broad{DsTField::Prefix("/w"), DsTField::Any(), DsTField::Any()};
    auto cb = [done](Result<DsReply>) { done(); };
    uint64_t pick = rng_.UniformU64(100);
    if (pick < 30) {
      if (rng_.UniformU64(4) == 0) {
        DsOp op;
        op.type = DsOpType::kOut;
        op.tuple = tuple;
        op.lease = Seconds(2);
        client_->Call(std::move(op), cb);
      } else {
        client_->Out(tuple, cb);
      }
    } else if (pick < 45) {
      client_->Rdp(exact, cb);
    } else if (pick < 58) {
      client_->Inp(exact, cb);
    } else if (pick < 70) {
      client_->RdAll(broad, cb);
    } else if (pick < 80) {
      client_->Cas(exact, tuple, cb);
    } else if (pick < 88) {
      client_->Replace(exact, tuple, cb);
    } else if (pick < 94) {
      DsOp op;
      op.type = DsOpType::kRenew;
      op.templ = broad;
      op.lease = Seconds(2);
      client_->Call(std::move(op), cb);
    } else if (pick < 97) {
      client_->Rd(exact, cb);  // blocks until a match appears
    } else {
      client_->In(exact, cb);
    }
  }

 private:
  DsClient* client_;
};

// Deterministic two-client sequence: create /w, arm an exists-watch on
// /w/flag from client 0, create it from client 1. With an honest server this
// fires the watch exactly once; a double-firing server is caught by the
// checker's one-shot accounting.
void RunWatchPair(CoordFixture& fx) {
  ZkClient* armer = fx.zk_client(0);
  ZkClient* creator = fx.zk_client(1);
  bool finished = false;
  creator->Create("/w", "", false, false, [&](Result<std::string>) {
    armer->Exists("/w/flag", true, [&](Result<ZkClient::ExistsResult>) {
      creator->Create("/w/flag", "x", false, false,
                      [&](Result<std::string>) { finished = true; });
    });
  });
  SimTime deadline = fx.loop().now() + Seconds(10);
  while (!finished && fx.loop().now() < deadline) {
    fx.Settle(Millis(100));
  }
}

// Executes one membership episode against a running ZK fixture. Reconfig
// failures (no quorum inside an overlapping fault window, leader churn) are
// tolerated: the sweep asserts safety after the drain, not reconfig liveness.
void RunMembershipEpisode(CoordFixture& fx, const MembershipEpisode& ep) {
  auto leader_of = [&fx]() -> ZkServer* {
    for (const auto& s : fx.zk_servers) {
      if (s->running() && s->zab().is_leader()) {
        return s.get();
      }
    }
    return nullptr;
  };
  auto retryable = [](const Status& s) {
    return s.code() == ErrorCode::kNotReady || s.code() == ErrorCode::kTimeout ||
           s.code() == ErrorCode::kConnectionLoss;
  };
  switch (ep.kind) {
    case MembershipKind::kJoin:
      fx.JoinReplica(ep.node, Seconds(20));
      break;
    case MembershipKind::kObserverPromote: {
      // Two-phase: register + boot the observer now, promote after the
      // episode's duration of commit-stream tailing.
      if (fx.ZkServerById(ep.node) == nullptr) {
        fx.BootExtraZkReplica(ep.node);
      }
      std::string id = std::to_string(ep.node);
      if (!fx.AdminReconfig("add_observer " + id).ok()) {
        break;
      }
      fx.Settle(ep.duration);
      SimTime deadline = fx.loop().now() + Seconds(10);
      Status s;
      do {
        s = fx.AdminReconfig("promote " + id);
        if (s.ok() || !retryable(s)) {
          break;
        }
        fx.Settle(Millis(200));
      } while (fx.loop().now() < deadline);
      break;
    }
    case MembershipKind::kRemoveFollower: {
      ZkServer* leader = leader_of();
      for (NodeId v : fx.CurrentZkVoters()) {
        if (leader != nullptr && v == leader->id()) {
          continue;
        }
        ZkServer* srv = fx.ZkServerById(v);
        if (srv == nullptr || !srv->running()) {
          continue;
        }
        fx.RemoveReplica(v);
        break;
      }
      break;
    }
    case MembershipKind::kRemoveLeader: {
      if (ZkServer* leader = leader_of()) {
        fx.RemoveReplica(leader->id());
      }
      break;
    }
  }
}

}  // namespace

std::string PlanSpec::ToString() const {
  if (membership.empty()) {
    return faults.ToString();
  }
  std::ostringstream os;
  if (!faults.episodes.empty()) {
    os << faults.ToString();
  }
  for (const MembershipEpisode& ep : membership) {
    os << "  ";
    switch (ep.kind) {
      case MembershipKind::kJoin:
        os << "join node=" << ep.node;
        break;
      case MembershipKind::kRemoveFollower:
        os << "remove-follower";
        break;
      case MembershipKind::kRemoveLeader:
        os << "remove-leader";
        break;
      case MembershipKind::kObserverPromote:
        os << "observer-promote node=" << ep.node;
        break;
    }
    os << " start=+" << DurationString(ep.start) << " dur=" << DurationString(ep.duration)
       << "\n";
  }
  return os.str();
}

PlanSpec GeneratePlan(SystemKind system, uint64_t seed) {
  bool zk = IsZkFamily(system);
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + (zk ? 1 : 2));
  // A link-faults episode on a link between two of the servers {1..n}.
  auto draw_link = [&rng](Episode& ep, uint64_t n) {
    ep.kind = EpisodeKind::kLinkFaults;
    ep.node = static_cast<NodeId>(1 + rng.UniformU64(n));
    do {
      ep.peer = static_cast<NodeId>(1 + rng.UniformU64(n));
    } while (ep.peer == ep.node);
  };
  PlanSpec spec;
  size_t count = 1 + rng.UniformU64(3);
  Duration cursor = Millis(500 + rng.UniformU64(500));
  for (size_t i = 0; i < count; ++i) {
    Episode ep;
    ep.start = cursor;
    ep.duration = Millis(300 + rng.UniformU64(900));
    if (zk) {
      // Servers are {1,2,3}. No drops/dups between Zab peers (see header).
      switch (rng.UniformU64(3)) {
        case 0: {
          ep.kind = EpisodeKind::kCrashRestart;
          ep.node = static_cast<NodeId>(1 + rng.UniformU64(3));
          break;
        }
        case 1: {
          ep.kind = EpisodeKind::kPartition;
          NodeId lone = static_cast<NodeId>(1 + rng.UniformU64(3));
          ep.group_a = {lone};
          for (NodeId n = 1; n <= 3; ++n) {
            if (n != lone) {
              ep.group_b.push_back(n);
            }
          }
          break;
        }
        default: {
          draw_link(ep, 3);
          ep.faults.extra_delay = Millis(20 + rng.UniformU64(100));
          break;
        }
      }
    } else {
      // Servers are {1,2,3,4}, f=1 (quorum 3): a 2-2 split stalls ordering
      // entirely and must heal cleanly. Crash/restart exercises PBFT
      // checkpointing + state transfer; episodes are sequential (the cursor
      // advances past each episode's end), so at most one replica (= f) is
      // ever down at a time.
      switch (rng.UniformU64(4)) {
        case 0: {
          ep.kind = EpisodeKind::kCrashRestart;
          ep.node = static_cast<NodeId>(1 + rng.UniformU64(4));
          break;
        }
        case 1: {
          ep.kind = EpisodeKind::kPartition;
          NodeId mate = static_cast<NodeId>(2 + rng.UniformU64(3));
          ep.group_a = {1, mate};
          for (NodeId n = 2; n <= 4; ++n) {
            if (n != mate) {
              ep.group_b.push_back(n);
            }
          }
          break;
        }
        case 2: {
          draw_link(ep, 4);
          ep.faults.extra_delay = Millis(20 + rng.UniformU64(100));
          break;
        }
        default: {
          draw_link(ep, 4);
          ep.faults.duplicate_probability =
              0.2 + 0.1 * static_cast<double>(rng.UniformU64(5));
          break;
        }
      }
    }
    cursor = ep.start + ep.duration + Millis(200 + rng.UniformU64(600));
    spec.faults.episodes.push_back(std::move(ep));
  }
  return spec;
}

PlanSpec GenerateReconfigPlan(SystemKind system, uint64_t seed) {
  PlanSpec spec = GeneratePlan(system, seed);
  if (!IsZkFamily(system)) {
    return spec;  // DepSpace has no reconfig path
  }
  // Separate Rng stream: the fault half of the plan stays identical to
  // GeneratePlan's draw for the same seed.
  Rng rng(seed * 0x2545f4914f6cdd1dULL + 3);
  Duration cursor = 0;
  for (const Episode& ep : spec.faults.episodes) {
    cursor = std::max(cursor, ep.start + ep.duration);
  }
  cursor += Millis(300 + rng.UniformU64(700));
  size_t count = 1 + rng.UniformU64(2);
  // Fresh replica ids: the base ensemble is {1,2,3}.
  NodeId next_joiner = 4;
  for (size_t i = 0; i < count; ++i) {
    MembershipEpisode ep;
    ep.start = cursor;
    ep.duration = Millis(400 + rng.UniformU64(800));
    switch (rng.UniformU64(4)) {
      case 0:
        ep.kind = MembershipKind::kJoin;
        ep.node = next_joiner++;
        break;
      case 1:
        ep.kind = MembershipKind::kRemoveFollower;
        break;
      case 2:
        ep.kind = MembershipKind::kRemoveLeader;
        break;
      default:
        ep.kind = MembershipKind::kObserverPromote;
        ep.node = next_joiner++;
        break;
    }
    cursor = ep.start + ep.duration + Millis(500 + rng.UniformU64(1500));
    spec.membership.push_back(ep);
  }
  return spec;
}

ScheduleResult RunSchedule(const ExplorerOptions& options, const PlanSpec& plan) {
  ScheduleResult result;
  result.plan = plan;

  FixtureOptions fo;
  fo.system = options.system;
  fo.num_clients = std::max<size_t>(
      options.workload == ExplorerOptions::Workload::kWatchPair ? 2 : 1,
      options.num_clients);
  fo.seed = options.seed;
  fo.zk_server = options.zk_server;
  // Fast failover so a schedule's fault windows are survivable within the
  // run: short session timeout, frequent pings, quick reconnect.
  fo.zk_client.session_timeout = Millis(1500);
  fo.zk_client.ping_interval = Millis(300);
  fo.zk_client.reconnect = ReconnectOptions{Millis(200), Seconds(1), 0};
  fo.ds_client.reconnect = ReconnectOptions{Millis(300), Seconds(2), 0};

  HistoryRecorder recorder;  // outlives the fixture: observers capture it
  CoordFixture fx(fo);
  fx.Start();
  recorder.Attach(fx);

  SimTime base = fx.loop().now();
  fx.RunPlan(plan.faults);
  SimTime plan_end = base;
  for (const Episode& ep : plan.faults.episodes) {
    plan_end = std::max(plan_end, base + ep.start + ep.duration);
  }
  for (const MembershipEpisode& ep : plan.membership) {
    plan_end = std::max(plan_end, base + ep.start + ep.duration);
  }

  bool zk = IsZkFamily(options.system);
  // Membership episodes run inline from the drive loop (their actions block
  // on catch-up / activation replies, advancing sim time themselves).
  const std::vector<MembershipEpisode> membership =
      zk ? plan.membership : std::vector<MembershipEpisode>{};
  size_t next_membership = 0;
  auto run_due_membership = [&] {
    while (next_membership < membership.size() &&
           fx.loop().now() >= base + membership[next_membership].start) {
      RunMembershipEpisode(fx, membership[next_membership]);
      ++next_membership;
    }
  };
  // Declared at function scope: worker timer callbacks capture raw worker
  // pointers and may still be queued in the loop during the drain settles
  // below, so the workers must outlive every Settle call.
  std::vector<std::unique_ptr<Worker>> workers;
  if (options.workload == ExplorerOptions::Workload::kWatchPair) {
    RunWatchPair(fx);
  } else {
    for (size_t i = 0; i < fo.num_clients; ++i) {
      uint64_t wseed = options.seed * 7919 + i + 1;
      if (zk) {
        workers.push_back(std::make_unique<ZkWorker>(&fx.loop(), fx.zk_client(i), wseed,
                                                     options.ops_per_client));
      } else {
        workers.push_back(std::make_unique<DsWorker>(&fx.loop(), fx.ds_client(i), wseed,
                                                     options.ops_per_client));
      }
    }
    for (auto& w : workers) {
      w->Start();
    }
    SimTime deadline = std::max(base + kWorkloadDeadline, plan_end);
    auto all_done = [&workers] {
      for (const auto& w : workers) {
        if (!w->done()) {
          return false;
        }
      }
      return true;
    };
    while (fx.loop().now() < deadline &&
           (!all_done() || next_membership < membership.size())) {
      run_due_membership();
      fx.Settle(Millis(100));
    }
    for (auto& w : workers) {
      w->Stop();  // drain below completes in-flight ops, issues nothing new
    }
  }
  if (fx.loop().now() < plan_end) {
    fx.Settle(plan_end - fx.loop().now());
  }
  run_due_membership();  // anything the deadline cut off still executes once
  fx.faults().Heal();
  fx.Settle(kDrainTime);
  if (!membership.empty()) {
    fx.Settle(Seconds(2));  // re-elections after a leader removal
  }

  CheckReport report = zk ? CheckZkHistory(recorder) : CheckDsHistory(recorder);
  result.num_calls = zk ? recorder.zk_calls.size() : recorder.ds_calls.size();
  result.num_responses = zk ? recorder.zk_responses.size() : recorder.ds_responses.size();
  result.num_commits = zk ? recorder.zk_commits.size() : recorder.ds_execs.size();
  result.violations = std::move(report.violations);
  if (zk) {
    std::string why;
    if (!PrefixConsistentLogs(fx.zk_servers, &why)) {
      result.violations.push_back("prefix-consistent logs violated: " + why);
    }
    // Membership agreement: after the drain, every running replica that is
    // still a member holds the same activated configuration. Removed
    // replicas retire (running() == false) and are excluded.
    if (!membership.empty()) {
      ZkServer* ref = nullptr;
      for (const auto& s : fx.zk_servers) {
        if (!s->running() || !s->zab().membership().Contains(s->id())) {
          continue;
        }
        if (ref == nullptr) {
          ref = s.get();
          continue;
        }
        const ZabMembership& a = ref->zab().membership();
        const ZabMembership& b = s->zab().membership();
        if (a.voters != b.voters || a.observers != b.observers) {
          result.violations.push_back(
              "membership diverges: node " + std::to_string(ref->id()) + " vs node " +
              std::to_string(s->id()));
        }
      }
    }
  } else {
    std::string why;
    if (!fx.CheckEdsInvariants(&why)) {
      result.violations.push_back("EDS invariants violated: " + why);
    }
  }
  result.passed = result.violations.empty();
  return result;
}

PlanSpec ShrinkPlan(const ExplorerOptions& options, const PlanSpec& plan) {
  auto still_fails = [&options](const PlanSpec& candidate) {
    return !RunSchedule(options, candidate).passed;
  };
  // Episode i of the spec: the fault episodes, then the membership ones.
  auto size = [](const PlanSpec& p) { return p.faults.episodes.size() + p.membership.size(); };
  auto drop = [](PlanSpec& p, size_t i) {
    size_t faults = p.faults.episodes.size();
    if (i < faults) {
      p.faults.episodes.erase(p.faults.episodes.begin() + static_cast<ptrdiff_t>(i));
    } else {
      p.membership.erase(p.membership.begin() + static_cast<ptrdiff_t>(i - faults));
    }
  };
  PlanSpec current = plan;
  // Pass 1: greedily drop whole episodes.
  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t i = 0; i < size(current); ++i) {
      PlanSpec candidate = current;
      drop(candidate, i);
      if (still_fails(candidate)) {
        current = std::move(candidate);
        progress = true;
        break;
      }
    }
  }
  // Pass 2: halve durations and delays of what remains (two rounds).
  for (int round = 0; round < 2; ++round) {
    for (size_t i = 0; i < size(current); ++i) {
      PlanSpec candidate = current;
      size_t faults = candidate.faults.episodes.size();
      Duration* duration = i < faults ? &candidate.faults.episodes[i].duration
                                      : &candidate.membership[i - faults].duration;
      if (*duration < Millis(100)) {
        continue;
      }
      *duration /= 2;
      if (i < faults) {
        candidate.faults.episodes[i].faults.extra_delay /= 2;
      }
      if (still_fails(candidate)) {
        current = std::move(candidate);
      }
    }
  }
  return current;
}

ScheduleResult ExploreOne(const ExplorerOptions& options) {
  PlanSpec plan = GeneratePlan(options.system, options.seed);
  ScheduleResult result = RunSchedule(options, plan);
  if (!result.passed) {
    PlanSpec shrunk = ShrinkPlan(options, plan);
    result = RunSchedule(options, shrunk);
    result.plan = shrunk;
    if (result.passed) {
      // Shrinking must preserve failure by construction; if the final rerun
      // passes, report the original so the caller still sees the violation.
      result = RunSchedule(options, plan);
      result.plan = plan;
    }
  }
  return result;
}

}  // namespace edc
