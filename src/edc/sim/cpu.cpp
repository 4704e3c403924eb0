#include "edc/sim/cpu.h"

#include <algorithm>
#include <cassert>

namespace edc {

CpuQueue::CpuQueue(EventLoop* loop, int cores, uint32_t track)
    : loop_(loop),
      track_(track),
      m_queue_wait_(loop->obs().metrics.GetHistogram("cpu.queue_wait_ns")),
      m_busy_(loop->obs().metrics.GetCounter("cpu.busy_ns")),
      m_submits_(loop->obs().metrics.GetCounter("cpu.submits")) {
  assert(cores >= 1);
  free_at_.assign(static_cast<size_t>(cores), 0);
}

SimTime CpuQueue::Charge(Duration cost) {
  if (cost < 0) {
    cost = 0;
  }
  // Earliest-free core wins; ties go to the lowest index, deterministically.
  size_t best = 0;
  for (size_t i = 1; i < free_at_.size(); ++i) {
    if (free_at_[i] < free_at_[best]) {
      best = i;
    }
  }
  SimTime start = std::max(loop_->now(), free_at_[best]);
  SimTime finish = start + cost;
  free_at_[best] = finish;
  busy_ns_ += cost;
  if (Obs& obs = loop_->obs(); obs.enabled()) {
    m_submits_->Increment();
    m_busy_->Add(cost);
    m_queue_wait_->Record(start - loop_->now());
    const TraceContext& ctx = obs.tracer.current();
    if (start > loop_->now()) {
      obs.tracer.RecordSpanIn(ctx, "cpu.wait", Stage::kQueue, track_, loop_->now(), start);
    }
    if (cost > 0) {
      obs.tracer.RecordSpanIn(ctx, "cpu.run", Stage::kCpu, track_, start, finish);
    }
  }
  return finish;
}

Duration CpuQueue::QueueDelay() const {
  SimTime earliest = free_at_[0];
  for (SimTime t : free_at_) {
    earliest = std::min(earliest, t);
  }
  return std::max<Duration>(0, earliest - loop_->now());
}

}  // namespace edc
