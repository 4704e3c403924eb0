// The benchmark's own load generator. Unlike the figure benches' ClosedLoop
// it accounts for failure: a non-OK status or a callback that never arrives
// fails the attempt, the op is retried, and a client whose callback is lost
// moves on instead of silently dropping out of the loop.
//
// Closed loop: each client issues its next op when the previous one ends.
// Open loop: ops fall due on a fixed schedule on the simulated clock,
// round-robin over the clients, whatever is still outstanding; each is timed
// from its due time.

#ifndef PERFBENCH_DRIVER_H_
#define PERFBENCH_DRIVER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "edc/harness/fixture.h"
#include "edc/obs/trace.h"
#include "stats.h"

namespace perfbench {

// One attempt of one logical op. `seq` numbers the ops of one client.
struct OpCall {
  size_t client = 0;
  int64_t seq = 0;
  int attempt = 1;
};

// Ops report success or failure exactly once per attempt (a lost callback
// is the exception the driver exists to survive).
using OpDone = std::function<void(bool ok)>;
using OpFn = std::function<void(const OpCall& call, OpDone done)>;

// Latency classes a workload may give its clients; 0 is the only class of
// single-class workloads.
inline constexpr int kKinds = 3;
inline constexpr int kKindRead = 1;
inline constexpr int kKindWrite = 2;

// An attempt without a callback after this long is lost and retried.
inline constexpr edc::Duration kAttemptTimeout = edc::Seconds(1);
// Pause before retrying an attempt that failed, so a client that fails fast
// while it reconnects does not spin at one simulated instant. It doubles per
// failed attempt up to the cap.
inline constexpr edc::Duration kRetryBackoff = edc::Millis(10);
inline constexpr edc::Duration kRetryBackoffMax = edc::Millis(160);
inline constexpr int kMaxAttempts = 30;
// Lost-attempt sweep period; the workload's `on_tick` runs at the same
// instants.
inline constexpr edc::Duration kTick = edc::Millis(50);

struct DriverOptions {
  // Ops due in [window_start, window_end) are measured; none are due after.
  edc::SimTime window_start = 0;
  edc::SimTime window_end = 0;
  // 0 = closed loop; otherwise ops per simulated second (open loop).
  int64_t open_rate_per_s = 0;
  // Latency class of each client's ops; unset = class 0.
  std::function<int(size_t client)> kind_of;
  std::function<void()> on_tick;
};

class LoadDriver {
 public:
  LoadDriver(edc::CoordFixture* fixture, OpFn op, DriverOptions options);
  LoadDriver(const LoadDriver&) = delete;
  LoadDriver& operator=(const LoadDriver&) = delete;

  // Starts issuing at the current simulated instant; ticks run until
  // `stop_ticks_at` (the end of the drain).
  void Start(edc::SimTime stop_ticks_at);
  // After the drain: every op still outstanding has lost its callback.
  void Finish();

  // Ops due in the window.
  const OpAccounting& window() const { return window_; }
  // Successful window ops that also completed inside the window (the
  // figure benches' throughput rule).
  int64_t completed_in_window() const { return completed_in_window_; }
  const std::vector<Served>& served() const { return served_; }
  const edc::Recorder& latency_of(int kind) const { return kind_latency_[kind]; }
  const edc::StageBreakdown& stage_sums() const { return stage_sums_; }
  int64_t traced_ops() const { return traced_ops_; }
  // Callbacks that arrived after their attempt was declared lost.
  int64_t late_callbacks() const { return late_callbacks_; }
  // Largest delay between an open-loop op's due time and its issue.
  edc::Duration max_lateness() const { return max_lateness_; }

 private:
  struct Op {
    size_t client = 0;
    int64_t seq = 0;
    edc::SimTime due = 0;
    edc::SimTime attempt_at = -1;  // -1: no attempt outstanding
    int attempts = 0;
    bool done = false;
    edc::TraceContext root;
  };

  void NewOp(size_t client, edc::SimTime due);
  void Issue(size_t id);
  void OnAttempt(size_t id, int attempt, bool ok);
  void RetryLater(size_t id);
  void End(size_t id, bool ok);
  void Tick();
  void FireOpenLoop(int64_t k);
  bool InWindow(const Op& op) const {
    return op.due >= options_.window_start && op.due < options_.window_end;
  }

  edc::CoordFixture* fixture_;
  OpFn op_;
  DriverOptions options_;
  edc::SimTime loop_start_ = 0;
  edc::SimTime stop_ticks_at_ = 0;
  std::vector<Op> ops_;
  std::vector<int64_t> next_seq_;
  std::vector<size_t> outstanding_;  // ids with an attempt in flight (may hold done ids)
  OpAccounting window_;
  int64_t completed_in_window_ = 0;
  std::vector<Served> served_;
  edc::Recorder kind_latency_[kKinds];
  edc::StageBreakdown stage_sums_;
  int64_t traced_ops_ = 0;
  int64_t late_callbacks_ = 0;
  edc::Duration max_lateness_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_H_
