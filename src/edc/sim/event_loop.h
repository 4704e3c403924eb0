// Deterministic discrete-event loop.
//
// Events fire in (time, insertion-sequence) order, so two events scheduled
// for the same instant run in the order they were scheduled — this, plus the
// seeded Rng, is what makes whole-cluster runs replayable.
//
// The queue is a binary heap of small (time, seq, slot, generation) keys over
// an arena of callback slots. A TimerId names a slot and its generation, so
// Cancel() is exact and O(1): it frees the slot (and the callback's captures)
// at once, and an id whose event already fired or was cancelled no longer
// matches its slot's generation and is ignored. The cancelled event's key
// stays in the heap until it reaches the top or until cancelled keys make up
// half the heap, when the heap is compacted. Compaction keeps every surviving
// key, so firing order is unchanged.

#ifndef EDC_SIM_EVENT_LOOP_H_
#define EDC_SIM_EVENT_LOOP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "edc/sim/time.h"

namespace edc {

using TimerId = uint64_t;
constexpr TimerId kInvalidTimer = 0;

class EventLoop {
 public:
  using Callback = std::function<void()>;

  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  SimTime now() const { return now_; }

  // Schedules `cb` to run `delay` ns from now. Returns an id usable with
  // Cancel(). Negative delays are clamped to zero.
  TimerId Schedule(Duration delay, Callback cb);
  TimerId ScheduleAt(SimTime at, Callback cb);

  // Cancels a pending timer and releases its callback; no-op if it already
  // fired or was cancelled.
  void Cancel(TimerId id);

  // Runs until no events remain or Stop() is called. Returns events processed.
  uint64_t Run();

  // Runs events with timestamp <= deadline, then advances now() to deadline.
  uint64_t RunUntil(SimTime deadline);

  // Makes Run()/RunUntil() return after the current event completes.
  void Stop() { stopped_ = true; }

  // Causal-context propagation (observability): `capture` runs at
  // Schedule()/ScheduleAt() time and its result is stored with the event;
  // `activate` runs with that value right before the event's callback and
  // with a default EventContext right after, restoring ambient state around
  // every hop of the event graph. The loop itself never interprets the
  // payload. Hooks must not schedule events — they exist precisely so that
  // tracing cannot perturb the simulation.
  struct EventContext {
    uint64_t a = 0;
    uint64_t b = 0;
  };
  using ContextCapture = std::function<EventContext()>;
  using ContextActivate = std::function<void(const EventContext&)>;
  void SetContextHooks(ContextCapture capture, ContextActivate activate) {
    capture_ = std::move(capture);
    activate_ = std::move(activate);
  }

  // Events scheduled and neither fired nor cancelled.
  size_t pending() const { return heap_.size() - cancelled_; }
  // Heap keys, including cancelled ones not yet compacted away.
  size_t queued() const { return heap_.size(); }
  // Cancelled keys still in the heap (at most half of it, or a few).
  size_t cancelled() const { return cancelled_; }
  uint64_t events_processed() const { return events_processed_; }

 private:
  struct Key {
    SimTime at;
    uint64_t seq;
    uint32_t slot;
    uint32_t gen;
  };
  struct KeyLater {
    bool operator()(const Key& a, const Key& b) const {
      if (a.at != b.at) {
        return a.at > b.at;
      }
      return a.seq > b.seq;
    }
  };
  struct Slot {
    Callback cb;
    EventContext ctx;
    uint32_t gen = 1;  // bumped whenever the slot is freed; never 0
  };

  bool PopAndRun();
  void FreeSlot(uint32_t slot);
  void Compact();

  SimTime now_ = 0;
  uint64_t next_seq_ = 1;
  bool stopped_ = false;
  uint64_t events_processed_ = 0;
  std::vector<Key> heap_;
  size_t cancelled_ = 0;  // keys in heap_ whose slot was freed by Cancel()
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  ContextCapture capture_;
  ContextActivate activate_;
};

}  // namespace edc

#endif  // EDC_SIM_EVENT_LOOP_H_
