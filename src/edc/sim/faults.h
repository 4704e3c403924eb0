// Deterministic fault-injection subsystem.
//
// A FaultInjector sits between a test/harness and the simulated cluster and
// turns "chaos" into a replayable schedule: every fault — crash, restart,
// partition, heal, lossy/duplicating/slow links — is an event on the shared
// EventLoop, and every probabilistic decision is drawn from the Network's
// seeded Rng. A FaultPlan lists the faults as episodes, each with a start
// and a duration. Two runs with the same seed and the same FaultPlan therefore
// produce byte-identical event traces; TraceDigest() folds the trace (and,
// when packet tracing is on, every delivered packet) into a single uint64
// that tests compare across runs.
//
// Processes register under their NodeId with crash/restart closures; the
// injector does not know whether a node is a Zab replica, a BFT replica or a
// client — the closures encapsulate the type-specific recovery path (log
// replay, re-election, state transfer).

#ifndef EDC_SIM_FAULTS_H_
#define EDC_SIM_FAULTS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "edc/sim/event_loop.h"
#include "edc/sim/network.h"
#include "edc/sim/time.h"

namespace edc {

// One fault over the window [start, start + duration): its begin and its
// end are injector actions.
enum class EpisodeKind : uint8_t {
  kCrashRestart,  // crash `node`; restart it
  kPartition,     // cut every group_a x group_b pair; reconnect those pairs
  kLinkFaults,    // install `faults` on link node <-> peer; clear the link
};

// Every member has a default initializer, so a designated initializer names
// only the kind's targets.
struct Episode {
  EpisodeKind kind = EpisodeKind::kCrashRestart;
  Duration start = 0;  // offset from the instant the plan is run
  Duration duration = 0;
  NodeId node = 0;  // crash-restart target; link endpoint
  NodeId peer = 0;  // link endpoint
  std::vector<NodeId> group_a = {};  // partition sides
  std::vector<NodeId> group_b = {};
  LinkFaults faults = {};
};

// A fault schedule, executed by FaultInjector::Run. Partition episodes
// compose: a pair cut by two live episodes stays cut until both have ended.
// Two live episodes on one node or one link do not: the earlier end
// restarts the node or clears the link.
struct FaultPlan {
  std::vector<Episode> episodes;

  // One line per episode, readable and sufficient to rebuild the plan, e.g.
  // "  partition {1}|{2,3} start=+500ms dur=700ms".
  std::string ToString() const;
};

class FaultInjector {
 public:
  FaultInjector(EventLoop* loop, Network* net) : loop_(loop), net_(net) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Registers the crash/restart closures for a process. Both must be safe to
  // invoke repeatedly (Crash on a crashed node is a no-op, etc.).
  void RegisterProcess(NodeId id, std::function<void()> crash, std::function<void()> restart);

  // Immediate fault actions (also usable directly from tests). Each appends
  // a line to the trace.
  void Crash(NodeId id);
  void Restart(NodeId id);
  void Partition(const std::vector<NodeId>& group_a, const std::vector<NodeId>& group_b);
  // Undoes one Partition(group_a, group_b): pairs another live partition
  // also cut stay cut.
  void Heal(const std::vector<NodeId>& group_a, const std::vector<NodeId>& group_b);
  // Heals every partition on the network.
  void Heal();
  void SetLinkFaults(NodeId a, NodeId b, const LinkFaults& faults);
  void ClearLinkFaults(NodeId a, NodeId b);

  // Schedules the begin and end of every episode of `plan`, offset from now.
  void Run(const FaultPlan& plan);

  // Appends an arbitrary event line to the trace (and digest). Harness-level
  // actions that perturb the cluster but are not faults — membership joins,
  // removals, promotions — record themselves here so TraceDigest() stays a
  // whole-run fingerprint.
  void Note(const std::string& line) { Record(line); }

  // Folds every delivered packet (time, src, dst, type, payload hash) into
  // the digest. Off by default: packet tracing is what makes the digest a
  // whole-run fingerprint, but it touches every delivery, so tests opt in.
  void EnablePacketTrace();

  bool IsUp(NodeId id) const { return net_->IsNodeUp(id); }

  // Human-readable fault log, one line per event, in execution order.
  const std::vector<std::string>& trace() const { return trace_; }
  // Order-sensitive FNV-1a fold of the trace (and packet stream when packet
  // tracing is enabled). Equal digests => identical runs.
  uint64_t TraceDigest() const { return digest_; }

  // Time-free, order-insensitive companion to TraceDigest(): a commutative
  // (wrapping-sum) fold of per-packet FNV hashes over (src, dst, type,
  // payload) only. Two runs that deliver the same multiset of packets — e.g.
  // a depth-1 vs pipelined replication run whose delivery timing shifts but
  // whose protocol traffic is byte-identical — compare equal here even
  // though the time-stamped TraceDigest() differs. Requires
  // EnablePacketTrace().
  uint64_t SemanticPacketDigest() const { return semantic_digest_; }

 private:
  // The begin or the end of one episode, as one of the actions above.
  void Apply(const Episode& ep, bool begin);
  void Record(const std::string& line);

  EventLoop* loop_;
  Network* net_;
  struct Process {
    std::function<void()> crash;
    std::function<void()> restart;
  };
  std::unordered_map<NodeId, Process> procs_;
  std::vector<std::string> trace_;
  uint64_t digest_ = 0xcbf29ce484222325ULL;  // kFnvOffset
  uint64_t semantic_digest_ = 0;
  bool packet_trace_ = false;
};

}  // namespace edc

#endif  // EDC_SIM_FAULTS_H_
