#include "edc/sim/event_loop.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace edc {

namespace {

// TimerId layout: generation in the high 32 bits, slot + 1 in the low 32, so
// no valid id equals kInvalidTimer.
TimerId MakeId(uint32_t slot, uint32_t gen) {
  return (static_cast<uint64_t>(gen) << 32) | (static_cast<uint64_t>(slot) + 1);
}

// Below this many keys the heap is never compacted: the cancelled keys cost
// less than the rebuild.
constexpr size_t kMinCompactSize = 64;

}  // namespace

TimerId EventLoop::Schedule(Duration delay, Callback cb) {
  if (delay < 0) {
    delay = 0;
  }
  return ScheduleAt(now_ + delay, std::move(cb));
}

TimerId EventLoop::ScheduleAt(SimTime at, Callback cb) {
  assert(cb && "null callback scheduled");
  if (at < now_) {
    at = now_;
  }
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.cb = std::move(cb);
  if (capture_) {
    s.ctx = capture_();
  }
  heap_.push_back(Key{at, next_seq_++, slot, s.gen});
  std::push_heap(heap_.begin(), heap_.end(), KeyLater());
  return MakeId(slot, s.gen);
}

void EventLoop::FreeSlot(uint32_t slot) {
  Slot& s = slots_[slot];
  s.cb = nullptr;
  s.ctx = EventContext{};
  if (++s.gen == 0) {
    s.gen = 1;
  }
  free_slots_.push_back(slot);
}

void EventLoop::Cancel(TimerId id) {
  if (id == kInvalidTimer) {
    return;
  }
  uint64_t slot = (id & 0xffffffffu) - 1;
  auto gen = static_cast<uint32_t>(id >> 32);
  if (slot >= slots_.size() || slots_[slot].gen != gen) {
    return;  // already fired or cancelled
  }
  FreeSlot(static_cast<uint32_t>(slot));
  ++cancelled_;
  if (heap_.size() >= kMinCompactSize && cancelled_ * 2 >= heap_.size()) {
    Compact();
  }
}

void EventLoop::Compact() {
  auto stale = [this](const Key& k) { return slots_[k.slot].gen != k.gen; };
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(), stale), heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), KeyLater());
  cancelled_ = 0;
}

bool EventLoop::PopAndRun() {
  std::pop_heap(heap_.begin(), heap_.end(), KeyLater());
  Key key = heap_.back();
  heap_.pop_back();
  Slot& s = slots_[key.slot];
  if (s.gen != key.gen) {
    --cancelled_;
    return false;
  }
  Callback cb = std::move(s.cb);
  EventContext ctx = s.ctx;
  // Freed before the callback runs, so a callback that cancels its own id
  // (or re-arms a timer stored in the same variable) is a no-op on it.
  FreeSlot(key.slot);
  assert(key.at >= now_);
  now_ = key.at;
  if (activate_) {
    activate_(ctx);
    cb();
    activate_(EventContext{});
  } else {
    cb();
  }
  ++events_processed_;
  return true;
}

uint64_t EventLoop::Run() {
  stopped_ = false;
  uint64_t n = 0;
  while (!heap_.empty() && !stopped_) {
    if (PopAndRun()) {
      ++n;
    }
  }
  return n;
}

uint64_t EventLoop::RunUntil(SimTime deadline) {
  stopped_ = false;
  uint64_t n = 0;
  while (!heap_.empty() && !stopped_ && heap_.front().at <= deadline) {
    if (PopAndRun()) {
      ++n;
    }
  }
  if (!stopped_ && now_ < deadline) {
    now_ = deadline;
  }
  return n;
}

}  // namespace edc
