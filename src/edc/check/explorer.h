// Randomized schedule explorer for conformance checking.
//
// A PlanSpec is a small, shrinkable schedule: a FaultPlan (crash+restart,
// partition+heal, degraded link windows; sim/faults.h) plus the membership
// episodes only the fixture can run, all with times relative to the instant
// the schedule starts. GeneratePlan draws a spec from the grammar for a seed
// (the same seed always yields the same spec); RunSchedule boots a fixture,
// attaches a HistoryRecorder, drives a seeded client workload while the plan
// executes, and runs the conformance checker over the recorded history. On a
// violation, ShrinkPlan delta-debugs the spec — dropping episodes, then
// halving durations and delays — to a minimal plan that still reproduces it.
//
// Grammar soundness: faults only ever target server-server links and server
// processes, never the client side. Client-visible packet duplication or
// loss would produce histories the checker correctly flags but the real
// protocols do not defend against (a duplicated reply or watch-event packet
// is indistinguishable from a server bug). For the ZooKeeper family the
// grammar additionally avoids drops and duplicates even between servers:
// Zab's pairwise streams assume the FIFO transport the simulator provides,
// and a duplicated forwarded write would legitimately commit twice. The EDS
// family draws crash-restart episodes for its BFT replicas: episodes are
// sequential, so at most one replica (= f) is down at a time, and a restarted
// replica must rejoin via checkpoint state transfer — RunSchedule checks the
// fixture's EDS invariants (CoordFixture::CheckEdsInvariants) after the
// drain on top of the history conformance check.

#ifndef EDC_CHECK_EXPLORER_H_
#define EDC_CHECK_EXPLORER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "edc/check/conformance.h"
#include "edc/harness/fixture.h"

namespace edc {

// Membership episodes (ZK family only, docs/reconfig.md). The fault
// injector cannot run these: RunSchedule executes them inline from its drive
// loop via the fixture's membership drivers, because a join blocks on
// snapshot-shipped catch-up and a removal must resolve "the leader" at
// execution time, not plan-generation time.
enum class MembershipKind : uint8_t {
  kJoin,             // boot `node` as observer, catch it up, promote to voter
  kRemoveFollower,   // remove the first running non-leader voter
  kRemoveLeader,     // remove the current leader (step-down + re-election)
  kObserverPromote,  // add `node` as observer at `start`; promote at
                     // `start + duration` (two-phase join)
};

struct MembershipEpisode {
  MembershipKind kind = MembershipKind::kJoin;
  NodeId node = 0;
  Duration start = 0;  // offset from the instant the plan is run
  Duration duration = 0;
};

struct PlanSpec {
  FaultPlan faults;
  std::vector<MembershipEpisode> membership;

  // FaultPlan::ToString's lines, then one line per membership episode.
  std::string ToString() const;
};

struct ExplorerOptions {
  SystemKind system = SystemKind::kZooKeeper;
  uint64_t seed = 1;
  size_t num_clients = 3;
  size_t ops_per_client = 12;
  enum class Workload {
    kRandom,     // seeded mixed operations on a shared namespace
    kWatchPair,  // deterministic: client 0 arms a watch, client 1 trips it
  };
  Workload workload = Workload::kRandom;
  // Forwarded verbatim to every ZK-family replica. The pipeline crash sweep
  // plants an aggressively pipelined LogStoreConfig here so crash episodes
  // land while several batches are in flight, and the checker's negative
  // tests plant test_double_fire_watches to prove a double-fired watch is
  // caught and shrunk; defaults reproduce the plain sweep configuration.
  ZkServerOptions zk_server;
};

struct ScheduleResult {
  bool passed = true;
  std::vector<std::string> violations;
  PlanSpec plan;  // the plan that produced `violations` (shrunk if explored)
  // History volume, so callers can assert a schedule exercised the system
  // (an empty history passes every check vacuously).
  size_t num_calls = 0;
  size_t num_responses = 0;
  size_t num_commits = 0;  // ZK commit records / DS exec records
};

// Deterministic draw from the per-family fault grammar.
PlanSpec GeneratePlan(SystemKind system, uint64_t seed);

// GeneratePlan's fault episodes plus one or two membership episodes (join /
// remove-follower / remove-leader / observer-promote) that start after them.
// ZK family only: DepSpace has no reconfig path.
PlanSpec GenerateReconfigPlan(SystemKind system, uint64_t seed);

// One complete run: fixture + recorder + workload + plan + checker.
ScheduleResult RunSchedule(const ExplorerOptions& options, const PlanSpec& plan);

// Requires RunSchedule(options, plan) to fail; returns a locally minimal
// spec that still fails (greedy episode drops, then duration/delay halving,
// over the fault episodes followed by the membership episodes).
PlanSpec ShrinkPlan(const ExplorerOptions& options, const PlanSpec& plan);

// GeneratePlan + RunSchedule, shrinking on violation. The returned result's
// violations are those of the *shrunk* plan.
ScheduleResult ExploreOne(const ExplorerOptions& options);

}  // namespace edc

#endif  // EDC_CHECK_EXPLORER_H_
