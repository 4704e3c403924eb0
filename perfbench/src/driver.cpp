#include "driver.h"

#include <algorithm>
#include <utility>

namespace perfbench {

using edc::Duration;
using edc::SimTime;

LoadDriver::LoadDriver(edc::CoordFixture* fixture, OpFn op, DriverOptions options)
    : fixture_(fixture),
      op_(std::move(op)),
      options_(std::move(options)),
      next_seq_(fixture->num_clients(), 0) {}

void LoadDriver::Start(SimTime stop_ticks_at) {
  edc::EventLoop& loop = fixture_->loop();
  loop_start_ = loop.now();
  stop_ticks_at_ = stop_ticks_at;
  loop.ScheduleAt(loop_start_ + kTick, [this]() { Tick(); });
  if (options_.open_rate_per_s > 0) {
    loop.ScheduleAt(loop_start_, [this]() { FireOpenLoop(0); });
    return;
  }
  for (size_t c = 0; c < fixture_->num_clients(); ++c) {
    NewOp(c, loop_start_);
  }
}

void LoadDriver::FireOpenLoop(int64_t k) {
  edc::EventLoop& loop = fixture_->loop();
  SimTime due = loop_start_ + k * edc::Seconds(1) / options_.open_rate_per_s;
  max_lateness_ = std::max(max_lateness_, loop.now() - due);
  NewOp(static_cast<size_t>(k) % fixture_->num_clients(), due);
  SimTime next = loop_start_ + (k + 1) * edc::Seconds(1) / options_.open_rate_per_s;
  if (next < options_.window_end) {
    loop.ScheduleAt(next, [this, k]() { FireOpenLoop(k + 1); });
  }
}

void LoadDriver::NewOp(size_t client, SimTime due) {
  Op op;
  op.client = client;
  op.seq = next_seq_[client]++;
  op.due = due;
  ops_.push_back(op);
  Issue(ops_.size() - 1);
}

void LoadDriver::Issue(size_t id) {
  SimTime now = fixture_->loop().now();
  int attempt = ++ops_[id].attempts;
  ops_[id].attempt_at = now;
  outstanding_.push_back(id);
  // One trace per logical op: retries land under the same root, so the stage
  // breakdown covers the whole wait the op's caller saw.
  edc::Tracer& tracer = fixture_->obs().tracer;
  edc::TraceContext prev = tracer.current();
  if (tracer.enabled()) {
    if (!ops_[id].root.active()) {
      ops_[id].root = tracer.BeginTrace(
          "client.op", static_cast<uint32_t>(fixture_->client_node(ops_[id].client)), now);
    } else {
      tracer.SetCurrent(ops_[id].root);
    }
  }
  OpCall call{ops_[id].client, ops_[id].seq, attempt};
  op_(call, [this, id, attempt](bool ok) { OnAttempt(id, attempt, ok); });
  if (tracer.enabled()) {
    tracer.SetCurrent(prev);
  }
}

void LoadDriver::OnAttempt(size_t id, int attempt, bool ok) {
  Op& op = ops_[id];
  if (op.done || attempt != op.attempts || op.attempt_at < 0) {
    ++late_callbacks_;
    return;
  }
  op.attempt_at = -1;
  if (ok) {
    End(id, true);
    return;
  }
  if (InWindow(op)) {
    window_.AddFailedAttempt();
  }
  if (op.attempts >= kMaxAttempts) {
    End(id, false);
    return;
  }
  RetryLater(id);
}

void LoadDriver::RetryLater(size_t id) {
  Duration backoff = kRetryBackoff;
  for (int i = 1; i < ops_[id].attempts && backoff < kRetryBackoffMax; ++i) {
    backoff *= 2;
  }
  backoff = std::min(backoff, kRetryBackoffMax);
  fixture_->loop().Schedule(backoff, [this, id]() {
    if (!ops_[id].done) {
      Issue(id);
    }
  });
}

void LoadDriver::End(size_t id, bool ok) {
  SimTime now = fixture_->loop().now();
  Op& op = ops_[id];
  op.done = true;
  op.attempt_at = -1;
  edc::StageBreakdown breakdown;
  if (op.root.active()) {
    breakdown = fixture_->obs().tracer.FinishTrace(op.root, now);
  }
  if (InWindow(op)) {
    window_.AddOutcome(OpOutcome{ok, now - op.due, op.attempts});
    if (ok) {
      served_.push_back(Served{op.due, now});
      int kind = options_.kind_of ? options_.kind_of(op.client) : 0;
      kind_latency_[kind].Record(now - op.due);
      if (now <= options_.window_end) {
        ++completed_in_window_;
      }
      if (op.root.active()) {
        stage_sums_ += breakdown;
        ++traced_ops_;
      }
    }
  }
  size_t client = op.client;
  if (options_.open_rate_per_s == 0 && now < options_.window_end) {
    NewOp(client, now);
  }
}

void LoadDriver::Tick() {
  edc::EventLoop& loop = fixture_->loop();
  SimTime now = loop.now();
  std::vector<size_t> lost;
  size_t kept = 0;
  for (size_t id : outstanding_) {
    const Op& op = ops_[id];
    if (op.done || op.attempt_at < 0) {
      continue;
    }
    if (now - op.attempt_at >= kAttemptTimeout) {
      lost.push_back(id);
    } else {
      outstanding_[kept++] = id;
    }
  }
  outstanding_.resize(kept);
  // An op retried between two ticks appears once per issue; re-checking the
  // timeout makes every copy after the first a no-op.
  for (size_t id : lost) {
    Op& op = ops_[id];
    if (op.done || op.attempt_at < 0 || now - op.attempt_at < kAttemptTimeout) {
      continue;
    }
    op.attempt_at = -1;
    if (InWindow(op)) {
      window_.AddLostAttempt();
    }
    if (op.attempts >= kMaxAttempts) {
      End(id, false);
    } else {
      Issue(id);
    }
  }
  if (options_.on_tick) {
    options_.on_tick();
  }
  if (now + kTick <= stop_ticks_at_) {
    loop.ScheduleAt(now + kTick, [this]() { Tick(); });
  }
}

void LoadDriver::Finish() {
  for (size_t id = 0; id < ops_.size(); ++id) {
    Op& op = ops_[id];
    if (op.done) {
      continue;
    }
    if (op.attempt_at >= 0 && InWindow(op)) {
      window_.AddLostAttempt();
    }
    End(id, false);
  }
}

}  // namespace perfbench
