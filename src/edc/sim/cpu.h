// Per-host CPU model.
//
// Each simulated server owns a CpuQueue: submitted work items occupy a core
// for their service cost and complete in submission order per core. This is
// what produces realistic saturation — when offered load exceeds capacity the
// queue grows and latency climbs, exactly the regime the paper's contention
// experiments (Fig. 6/8) exercise.
//
// The queue also carries the host's incarnation, shared by every layer that
// runs on the host (ZkServer and its ZabNode, DsServer and its BftReplica).
// A crash, a restart and a retirement each begin a new incarnation; work,
// timers and log callbacks armed in an older one are skipped when they fire
// (docs/fault_model.md, "Process faults").

#ifndef EDC_SIM_CPU_H_
#define EDC_SIM_CPU_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "edc/obs/obs.h"
#include "edc/sim/event_loop.h"
#include "edc/sim/time.h"

namespace edc {

// Cores of every simulated replica's CpuQueue.
inline constexpr int kReplicaCores = 1;

class CpuQueue {
 public:
  // `cores` parallel workers; work is dispatched to the earliest-free core
  // (single run queue, like a work-conserving scheduler). `track` is the
  // owning node's id, the Perfetto track of its spans.
  CpuQueue(EventLoop* loop, int cores, uint32_t track = 0);

  CpuQueue(const CpuQueue&) = delete;
  CpuQueue& operator=(const CpuQueue&) = delete;

  // Runs `done` once `cost` ns of CPU time have been spent, after all
  // previously submitted work on the chosen core, unless the host has begun
  // a new incarnation by then (the core time and the event are spent anyway).
  template <class F>
  void Submit(Duration cost, F done) {
    loop_->ScheduleAt(Charge(cost), Guard(std::move(done)));
  }

  // Occupies a core exactly as Submit does but schedules nothing: for work
  // whose completion nobody waits on. Returns the time it finishes.
  SimTime Charge(Duration cost);

  // Total CPU-ns consumed so far (across cores).
  int64_t busy_ns() const { return busy_ns_; }

  // Instantaneous backlog estimate: ns until a newly submitted zero-cost item
  // would run.
  Duration QueueDelay() const;

  int cores() const { return static_cast<int>(free_at_.size()); }

  // Ends the host's current incarnation: a crash, a restart or a retirement.
  void NextIncarnation() { ++incarnation_; }

  // Wraps `fn` (a timer or a log callback) so that it runs only if the host
  // is still in the incarnation current at this call.
  template <class F>
  auto Guard(F fn) {
    return [this, incarnation = incarnation_, fn = std::move(fn)]() {
      if (incarnation == incarnation_) {
        fn();
      }
    };
  }

 private:
  EventLoop* loop_;
  std::vector<SimTime> free_at_;
  int64_t busy_ns_ = 0;
  uint64_t incarnation_ = 0;
  // Observability (the loop's Obs, while it is on): queue-wait + run spans
  // under the submitter's trace context (both endpoints are known at Submit
  // time), a queue-wait histogram, and a cpu-ns counter.
  uint32_t track_;
  Recorder* m_queue_wait_;
  Counter* m_busy_;
  Counter* m_submits_;
};

}  // namespace edc

#endif  // EDC_SIM_CPU_H_
