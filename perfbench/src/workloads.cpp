#include "workloads.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>

#include "driver.h"
#include "edc/common/strings.h"
#include "edc/harness/fixture.h"
#include "edc/harness/invariants.h"
#include "edc/recipes/recipes.h"
#include "layers.h"

namespace perfbench {

using edc::CoordFixture;
using edc::Duration;
using edc::Millis;
using edc::Seconds;
using edc::SimTime;

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double WallSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames{"ezk_counter", "eds_queue", "ezk_mixed",
                                               "ezk_leader_crash"};
  return kNames;
}

namespace {

constexpr size_t kClients = 50;
// ezk_mixed: queue clients first, then readers, then writers (paper Fig. 13).
constexpr size_t kMixedQueueClients = 20;
constexpr size_t kMixedReaders = 15;
constexpr size_t kObjectBytes = 256;

struct Spec {
  edc::SystemKind system = edc::SystemKind::kExtensibleZooKeeper;
  Duration warmup = 0;
  Duration window = 0;
  // Long enough for an attempt timeout plus its retry to resolve.
  Duration drain = Seconds(2);
  int64_t open_rate_per_s = 0;
  // ezk_leader_crash: leader crash and restart, after the window starts.
  Duration crash_after = 0;
  Duration restart_after = 0;
};

// Windows hold at least 10^4 successful ops, so p99.9 has ten samples
// beyond it, and cost about a second of host time each.
Spec SpecOf(const std::string& name) {
  Spec s;
  if (name == "ezk_counter") {
    s.warmup = Millis(250);
    s.window = Millis(1000);
  } else if (name == "eds_queue") {
    s.system = edc::SystemKind::kExtensibleDepSpace;
    s.warmup = Millis(200);
    s.window = Millis(500);
  } else if (name == "ezk_mixed") {
    s.warmup = Millis(250);
    s.window = Millis(1000);
  } else {
    s.warmup = Millis(250);
    s.window = Millis(1500);
    s.open_rate_per_s = 30000;
    s.crash_after = Millis(300);
    s.restart_after = Millis(800);
  }
  return s;
}

// Seeded filler for object payloads: the workload's only generated input
// besides the fixture seed.
std::string Filler(uint64_t seed, size_t salt, size_t bytes) {
  edc::Rng rng(seed * 1000003 + salt);
  std::string out(bytes, 'a');
  for (char& c : out) {
    c = static_cast<char>('a' + rng.UniformU64(26));
  }
  return out;
}

// Runs the simulation in the figure benches' 100 ms steps until `flag`.
bool WaitFor(CoordFixture& fixture, const bool& flag, Duration max = Seconds(10)) {
  SimTime deadline = fixture.loop().now() + max;
  while (!flag && fixture.loop().now() < deadline) {
    fixture.Settle(Millis(100));
  }
  return flag;
}

// Setup on the first client, Attach on the rest; the same sequence as the
// figure benches, so the simulated schedule matches theirs.
template <typename Recipe>
std::string SetupRecipes(CoordFixture& fixture, size_t n,
                         std::vector<std::unique_ptr<Recipe>>* out) {
  for (size_t i = 0; i < n; ++i) {
    out->push_back(std::make_unique<Recipe>(fixture.coord(i), true));
  }
  std::string error;
  bool ready = false;
  (*out)[0]->Setup([&](edc::Status s) {
    if (!s.ok()) {
      error = "recipe setup: " + s.ToString();
    }
    ready = true;
  });
  if (!WaitFor(fixture, ready) || !error.empty()) {
    return error.empty() ? "recipe setup timed out" : error;
  }
  size_t attached = 1;
  bool all = n == 1;
  for (size_t i = 1; i < n; ++i) {
    (*out)[i]->Attach([&](edc::Status s) {
      if (!s.ok() && error.empty()) {
        error = "recipe attach: " + s.ToString();
      }
      all = ++attached == n;
    });
  }
  if (!WaitFor(fixture, all) || !error.empty()) {
    return error.empty() ? "recipe attach timed out" : error;
  }
  return "";
}

// Everything the op functions and checks share within one run.
struct State {
  std::vector<std::unique_ptr<edc::SharedCounter>> counters;
  int64_t increments_sent = 0;
  int64_t increments_acked = 0;
  std::vector<int64_t> returned;
  bool skip_pending = false;
  std::vector<uint64_t> sessions;  // per client: session that acknowledged

  std::vector<std::unique_ptr<edc::DistributedQueue>> queues;
  std::vector<std::string> added;
  std::vector<std::string> removed;

  std::vector<std::string> initial;     // regular object r's created payload
  std::vector<std::string> last_acked;  // regular object r's last acknowledged write
  std::string read_violation;
};

std::string RegularPath(size_t r) { return "/reg-" + std::to_string(r); }

OpFn CounterOp(CoordFixture& fixture, State& st) {
  st.sessions.resize(fixture.num_clients());
  for (size_t c = 0; c < fixture.num_clients(); ++c) {
    st.sessions[c] = fixture.zk_client(c)->session();
  }
  return [&fixture, &st](const OpCall& call, OpDone done) {
    if (st.skip_pending) {
      st.skip_pending = false;
      ++st.increments_acked;
      done(true);
      return;
    }
    // Extension acknowledgements belong to a session: a client that failed
    // over to a new one acknowledges again before its next increment, as an
    // application would on the session event.
    uint64_t session = fixture.zk_client(call.client)->session();
    if (session != 0 && session != st.sessions[call.client]) {
      st.sessions[call.client] = session;
      st.counters[call.client]->Attach([](edc::Status) {});
    }
    ++st.increments_sent;
    st.counters[call.client]->Increment([&st, done](edc::Result<int64_t> r) {
      if (r.ok()) {
        ++st.increments_acked;
        st.returned.push_back(*r);
      }
      done(r.ok());
    });
  };
}

// Queue clients alternate Add and Remove; each is one op (paper Fig. 8).
void QueueOp(State& st, const OpCall& call, OpDone done) {
  if (call.seq % 2 == 0) {
    std::string id = "c" + std::to_string(call.client) + "-" + std::to_string(call.seq / 2);
    if (call.attempt == 1) {
      st.added.push_back(id);
    }
    // A retried Add whose first attempt landed finds its element present.
    st.queues[call.client]->Add(id, id, [done, retry = call.attempt > 1](edc::Status s) {
      done(s.ok() || (retry && s.code() == edc::ErrorCode::kNodeExists));
    });
    return;
  }
  st.queues[call.client]->Remove([&st, done](edc::Result<std::string> r) {
    if (r.ok()) {
      st.removed.push_back(*r);
    }
    done(r.ok());
  });
}

OpFn MixedOp(CoordFixture& fixture, State& st) {
  return [&fixture, &st](const OpCall& call, OpDone done) {
    if (call.client < kMixedQueueClients) {
      QueueOp(st, call, std::move(done));
      return;
    }
    size_t r = call.client - kMixedQueueClients;
    if (r < kMixedReaders) {
      fixture.coord(call.client)
          ->Read(RegularPath(r), [&st, r, done](edc::Result<std::string> v) {
            if (v.ok() && *v != st.initial[r] && st.read_violation.empty()) {
              st.read_violation = "read of " + RegularPath(r) + " returned a value never written to it";
            }
            done(v.ok());
          });
      return;
    }
    std::string tag = "w" + std::to_string(r) + "-" + std::to_string(call.seq) + "-";
    std::string value = tag + st.initial[r].substr(tag.size());
    fixture.coord(call.client)
        ->Update(RegularPath(r), value, [&st, r, value, done](edc::Status s) {
          if (s.ok()) {
            st.last_acked[r] = value;
          }
          done(s.ok());
        });
  };
}

// Reads `path` through client 0 once the run has drained.
std::string FinalRead(CoordFixture& fixture, const std::string& path, std::string* value) {
  bool got = false;
  std::string error;
  fixture.coord(0)->Read(path, [&](edc::Result<std::string> r) {
    if (r.ok()) {
      *value = *r;
    } else {
      error = "final read of " + path + ": " + r.status().ToString();
    }
    got = true;
  });
  if (!WaitFor(fixture, got)) {
    return "final read of " + path + " timed out";
  }
  return error;
}

// Registry counters sampled at the window's edges.
struct CounterSnap {
  std::map<std::string, int64_t> v;
  void Take(const edc::MetricsRegistry& m) {
    for (const auto& [name, c] : m.counters()) {
      v[name] = c.total();
    }
  }
  int64_t Delta(const CounterSnap& later, const std::string& name) const {
    auto a = v.find(name);
    auto b = later.v.find(name);
    return (b == later.v.end() ? 0 : b->second) - (a == v.end() ? 0 : a->second);
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

RunResult RunWorkload(const RunConfig& config) {
  RunResult out;
  Spec spec = SpecOf(config.workload);
  if (config.warmup > 0) {
    spec.warmup = config.warmup;
  }
  if (config.window > 0) {
    spec.window = config.window;
  }
  const bool counter_workload =
      config.workload == "ezk_counter" || config.workload == "ezk_leader_crash";
  const bool mixed = config.workload == "ezk_mixed";

  const double wall0 = WallSeconds();
  double phase_wall = wall0;
  double phase_cpu = CpuSeconds();
  auto phase = [&](const char* name) {
    double wall = WallSeconds();
    double cpu = CpuSeconds();
    out.phases.push_back(Phase{name, phase_wall - wall0, wall - phase_wall, cpu - phase_cpu});
    phase_wall = wall;
    phase_cpu = cpu;
    return cpu;
  };
  const double run_cpu0 = phase_cpu;

  edc::FixtureOptions options;
  options.system = spec.system;
  options.num_clients = kClients;
  options.seed = config.seed;
  options.observability = config.traced;
  CoordFixture fixture(options);
  fixture.Start();
  phase("boot");

  State st;
  std::string setup_error;
  OpFn op;
  if (counter_workload) {
    setup_error = SetupRecipes(fixture, kClients, &st.counters);
    op = CounterOp(fixture, st);
  } else if (config.workload == "eds_queue") {
    setup_error = SetupRecipes(fixture, kClients, &st.queues);
    op = [&st](const OpCall& call, OpDone done) { QueueOp(st, call, std::move(done)); };
  } else if (mixed) {
    setup_error = SetupRecipes(fixture, kMixedQueueClients, &st.queues);
    size_t regular = kClients - kMixedQueueClients;
    size_t created = 0;
    bool objects_ready = false;
    for (size_t r = 0; r < regular && setup_error.empty(); ++r) {
      st.initial.push_back(Filler(config.seed, r, kObjectBytes));
      fixture.coord(kMixedQueueClients + r)
          ->Create(RegularPath(r), st.initial.back(), [&](edc::Result<std::string> res) {
            if (!res.ok() && setup_error.empty()) {
              setup_error = "create regular object: " + res.status().ToString();
            }
            objects_ready = ++created == regular;
          });
    }
    st.last_acked = st.initial;
    if (setup_error.empty() && !WaitFor(fixture, objects_ready)) {
      setup_error = "regular objects timed out";
    }
    op = MixedOp(fixture, st);
  } else {
    out.violation = "unknown workload '" + config.workload + "'";
    return out;
  }
  if (!setup_error.empty()) {
    out.violation = setup_error;
    return out;
  }
  phase("recipe_setup");

  edc::EventLoop& loop = fixture.loop();
  const SimTime start = loop.now() + spec.warmup;
  const SimTime end = start + spec.window;
  const SimTime drain_end = end + spec.drain;

  DriverOptions dopts;
  dopts.window_start = start;
  dopts.window_end = end;
  dopts.open_rate_per_s = spec.open_rate_per_s;
  if (mixed) {
    dopts.kind_of = [](size_t client) {
      if (client < kMixedQueueClients) {
        return 0;
      }
      return client < kMixedQueueClients + kMixedReaders ? kKindRead : kKindWrite;
    };
  }
  // Leader changes, polled through ZkServer::leader() on the driver's tick.
  int64_t leader_changes = 0;
  edc::NodeId seen_leader = 0;
  auto poll_leader = [&]() {
    for (const auto& server : fixture.zk_servers) {
      if (server->running() && server->leader() != 0) {
        if (seen_leader != 0 && server->leader() != seen_leader) {
          ++leader_changes;
        }
        seen_leader = server->leader();
        return;
      }
    }
  };
  if (!fixture.zk_servers.empty()) {
    poll_leader();
    dopts.on_tick = poll_leader;
  }

  // ezk_leader_crash: crash whichever replica leads at the fixed instant.
  edc::NodeId crashed = 0;
  if (spec.crash_after > 0) {
    loop.ScheduleAt(start + spec.crash_after, [&]() {
      poll_leader();
      crashed = seen_leader;
      if (crashed != 0) {
        fixture.faults().Crash(crashed);
      }
    });
    loop.ScheduleAt(start + spec.restart_after, [&]() {
      if (crashed != 0) {
        fixture.faults().Restart(crashed);
      }
    });
  }

  LoadDriver driver(&fixture, op, dopts);
  driver.Start(drain_end);

  // Per-layer bookkeeping at the window's edges.
  edc::MetricsRegistry& metrics = fixture.obs().metrics;
  const char* kWindowHistograms[] = {"cpu.queue_wait_ns", "logstore.batch_records",
                                     "logstore.inflight"};
  auto server_busy = [&]() {
    std::vector<std::pair<int64_t, int>> busy;
    for (const auto& s : fixture.zk_servers) {
      busy.emplace_back(s->cpu().busy_ns(), s->cpu().cores());
    }
    for (const auto& s : fixture.ds_servers) {
      busy.emplace_back(s->cpu().busy_ns(), s->cpu().cores());
    }
    return busy;
  };

  loop.RunUntil(start);
  out.setup_cpu_s = phase("warmup") - run_cpu0;
  st.skip_pending = config.skip_one_increment;
  CounterSnap at_start;
  at_start.Take(metrics);
  for (const char* h : kWindowHistograms) {
    metrics.GetHistogram(h)->Clear();
  }
  const auto busy_start = server_busy();
  const int64_t bytes_start = fixture.ClientBytesSent();
  const uint64_t events_start = loop.events_processed();
  const size_t pending_start = loop.pending();

  const double window_cpu0 = CpuSeconds();
  loop.RunUntil(end);
  out.window_cpu_s = CpuSeconds() - window_cpu0;
  phase("measure");

  out.window_events = static_cast<int64_t>(loop.events_processed() - events_start);
  const int64_t window_bytes = fixture.ClientBytesSent() - bytes_start;
  CounterSnap at_end;
  at_end.Take(metrics);
  const auto busy_end = server_busy();
  std::map<std::string, edc::Recorder> hist;
  for (const char* h : kWindowHistograms) {
    hist[h] = *metrics.GetHistogram(h);
  }

  loop.RunUntil(drain_end);
  driver.Finish();
  CounterSnap at_drain;
  at_drain.Take(metrics);
  const int64_t pending_end = static_cast<int64_t>(loop.pending());
  phase("drain");

  // --- simulated-clock results
  const OpAccounting& acc = driver.window();
  SimResult& sim = out.sim;
  sim.attempted = acc.attempted();
  sim.failed = acc.failed();
  sim.samples = static_cast<int64_t>(acc.latency().count());
  sim.ops_per_s = static_cast<double>(driver.completed_in_window()) / edc::ToSeconds(spec.window);
  sim.p50_ms = static_cast<double>(acc.latency().Percentile(0.5)) / 1e6;
  sim.p999_ms = static_cast<double>(acc.latency().Percentile(kTailQuantile)) / 1e6;
  sim.kb_per_op = Ratio(static_cast<double>(window_bytes) / 1024.0,
                        static_cast<double>(acc.attempted()));
  sim.attempts_per_op = acc.AttemptsPerOp();
  sim.slo_ok_ratio = acc.SloOkRatio();
  sim.unavail_ms = edc::ToMillis(LongestServiceWait(driver.served(), start));
  sim.read_p999_ms =
      static_cast<double>(driver.latency_of(kKindRead).Percentile(kTailQuantile)) / 1e6;
  sim.write_p999_ms =
      static_cast<double>(driver.latency_of(kKindWrite).Percentile(kTailQuantile)) / 1e6;

  // --- correctness
  std::string& bad = out.violation;
  if (!SupportsQuantile(sim.samples, kTailQuantile)) {
    bad = std::to_string(sim.samples) + " samples cannot support p99.9";
  }
  if (bad.empty() && driver.max_lateness() != 0) {
    bad = "open-loop generator ran late";
  }
  int64_t final_counter = 0;
  if (bad.empty() && counter_workload) {
    std::string value;
    bad = FinalRead(fixture, "/ctr", &value);
    if (bad.empty()) {
      auto parsed = edc::ParseInt64(value);
      final_counter = parsed.ok() ? *parsed : -1;
      bad = CheckCounter(final_counter, st.increments_acked, st.increments_sent, st.returned);
    }
  }
  if (bad.empty() && !st.queues.empty()) {
    bad = CheckQueue(st.added, st.removed);
  }
  if (bad.empty() && mixed) {
    bad = st.read_violation;
    for (size_t r = kMixedReaders; r < st.initial.size() && bad.empty(); ++r) {
      std::string value;
      bad = FinalRead(fixture, RegularPath(r), &value);
      if (bad.empty() && value != st.last_acked[r]) {
        bad = RegularPath(r) + " does not hold its writer's last acknowledged write";
      }
    }
  }
  if (bad.empty() && !fixture.zk_servers.empty()) {
    std::string why;
    if (!edc::PrefixConsistentLogs(fixture.zk_servers, &why)) {
      bad = "replica logs diverge: " + why;
    }
  }
  if (bad.empty()) {
    std::string why;
    if (!fixture.CheckEdsInvariants(&why)) {
      bad = "EDS invariants: " + why;
    }
  }
  phase("check");
  if (!bad.empty() || !config.traced) {
    return out;
  }

  // --- per-layer values (traced run)
  auto& L = out.layers;
  const double ops = static_cast<double>(acc.attempted());
  auto per_op = [&](const std::string& name) {
    return Ratio(static_cast<double>(at_start.Delta(at_end, name)), ops);
  };
  auto in_run = [&](const std::string& name) {
    return static_cast<double>(at_start.Delta(at_drain, name));
  };
  L["sim.events_per_op"] = Ratio(static_cast<double>(out.window_events), ops);
  L["sim.pending_end"] = static_cast<double>(pending_end);

  L["net.packets_per_op"] = per_op("net.packets");
  L["net.bytes_per_op"] = per_op("net.bytes");
  L["net.drops"] = in_run("net.drops");

  double busy_max = 0;
  for (size_t i = 0; i < busy_start.size(); ++i) {
    double share = static_cast<double>(busy_end[i].first - busy_start[i].first) /
                   (static_cast<double>(spec.window) * busy_start[i].second);
    busy_max = std::max(busy_max, share);
  }
  L["cpu.busy_share_max"] = busy_max;
  L["cpu.queue_wait_p99_ms"] =
      static_cast<double>(hist["cpu.queue_wait_ns"].Percentile(0.99)) / 1e6;
  const edc::StageBreakdown& stages = driver.stage_sums();
  const double traced = static_cast<double>(driver.traced_ops());
  auto stage_ms = [&](edc::Stage s) { return Ratio(static_cast<double>(stages.of(s)) / 1e6, traced); };
  L["stage.queue_ms"] = stage_ms(edc::Stage::kQueue);
  L["stage.cpu_ms"] = stage_ms(edc::Stage::kCpu);
  L["stage.network_ms"] = stage_ms(edc::Stage::kNetwork);
  L["stage.fsync_ms"] = stage_ms(edc::Stage::kFsync);
  L["stage.other_ms"] = stage_ms(edc::Stage::kOther);

  L["logstore.syncs_per_op"] = per_op("logstore.syncs");
  L["logstore.batch_records_mean"] = hist["logstore.batch_records"].Mean();
  L["logstore.inflight_mean"] = hist["logstore.inflight"].Mean();

  L["zab.proposals_per_op"] = per_op("zab.proposals");
  L["zab.commits_per_op"] = per_op("zab.commits");
  L["zab.heartbeats"] = in_run("zab.heartbeats");
  L["zab.leader_changes"] = static_cast<double>(leader_changes);

  L["bft.prepares_per_op"] = per_op("bft.prepares");
  L["bft.commits_per_op"] = per_op("bft.commits");
  L["bft.checkpoints_per_op"] = per_op("bft.checkpoints");
  L["bft.state_transfers"] = in_run("bft.state_transfers");

  const double invocations = static_cast<double>(at_start.Delta(at_end, "ext.invocations"));
  L["ext.invocations_per_op"] = per_op("ext.invocations");
  L["ext.steps_per_invocation"] =
      Ratio(static_cast<double>(at_start.Delta(at_end, "ext.steps")), invocations);
  L["ext.vm_share"] =
      Ratio(static_cast<double>(at_start.Delta(at_end, "ext.vm_dispatches")), invocations);

  L["client.zk.failovers"] = in_run("client.zk.failovers");
  L["client.zk.reconnect_attempts"] = in_run("client.zk.reconnect_attempts");
  L["client.zk.sessions_expired"] = in_run("client.zk.sessions_expired");
  L["client.ds.retransmits"] = in_run("client.ds.retransmits");
  L["client.ds.give_ups"] = in_run("client.ds.give_ups");
  L["client.lost_callbacks"] = static_cast<double>(acc.lost_attempts());
  L["client.late_callbacks"] = static_cast<double>(driver.late_callbacks());
  L["client.failed_op_ratio"] = acc.FailedAttemptRatio();
  L["client.gen_lateness_ms"] = edc::ToMillis(driver.max_lateness());

  int64_t recipe_retries = 0;
  for (const auto& c : st.counters) {
    recipe_retries += c->retries();
  }
  for (const auto& q : st.queues) {
    recipe_retries += q->retries();
  }
  L["recipes.retries_per_op"] = Ratio(static_cast<double>(recipe_retries), ops);
  L["recipes.extra_applies"] =
      counter_workload ? static_cast<double>(final_counter - st.increments_acked) : 0.0;

  L["e2e.samples"] = static_cast<double>(sim.samples);
  L["e2e.unavail_ms"] = sim.unavail_ms;
  L["e2e.read_p999_ms"] = sim.read_p999_ms;
  L["e2e.write_p999_ms"] = sim.write_p999_ms;

  // --- replays, sized from this run
  constexpr int64_t kReplayEvents = 1 << 20;
  L["sim.host_ns_schedule_run"] = ReplayScheduleRunNs(pending_start, kReplayEvents);
  L["sim.host_ns_cancel"] = ReplayCancelNs(kReplayEvents);
  const double packets = static_cast<double>(at_start.Delta(at_end, "net.packets"));
  const double mean_payload =
      Ratio(static_cast<double>(at_start.Delta(at_end, "net.bytes")), packets) -
      static_cast<double>(edc::kFrameOverheadBytes);
  L["net.host_ns_per_send"] =
      ReplayNetworkSendNs(static_cast<size_t>(std::max(0.0, mean_payload)), kReplayEvents / 2);
  SnapshotReplay snap;
  if (!fixture.ds_servers.empty()) {
    snap = ReplaySnapshot(*fixture.ds_servers[0], 200);
  }
  L["bft.host_us_per_snapshot"] = snap.host_us;
  L["bft.snapshot_bytes"] = snap.bytes;
  const size_t queue_len =
      std::max<size_t>(1, st.added.size() > st.removed.size() ? st.added.size() - st.removed.size() : 0);
  ExtensionReplay ext = ReplayExtension(
      counter_workload ? Handler::kCounter : Handler::kQueueRemove, queue_len, 1 << 17,
      options);
  L["ext.host_ns_per_invocation"] = ext.host_ns;
  if (!ext.vm) {
    bad = "extension replay did not run on the VM";
  }
  phase("replay");
  return out;
}

}  // namespace perfbench
