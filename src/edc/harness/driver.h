// Closed-loop workload driver for the figure benches.
//
// Mirrors the paper's methodology (§6): every client continuously re-issues
// the operation under test (at most one outstanding request per client);
// measurements cover a window after warmup; each configuration is run with
// several seeds and averaged.

#ifndef EDC_HARNESS_DRIVER_H_
#define EDC_HARNESS_DRIVER_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "edc/common/histogram.h"
#include "edc/harness/fixture.h"

namespace edc {

// Per-stage latency attribution accumulated across the ops of one run
// (populated only when the fixture runs with observability on).
struct StageSums {
  int64_t ns[kStageCount] = {};
  int64_t traced_ops = 0;

  void Add(const StageBreakdown& b) {
    for (size_t i = 0; i < kStageCount; ++i) {
      ns[i] += b.ns[i];
    }
    ++traced_ops;
  }
  double MeanMs(Stage stage) const {
    return traced_ops > 0 ? static_cast<double>(ns[static_cast<size_t>(stage)]) / 1e6 /
                                static_cast<double>(traced_ops)
                          : 0.0;
  }
};

struct RunStats {
  int64_t ops = 0;             // completed in the measure window
  Recorder latency;            // per-op latency, ns
  int64_t client_bytes = 0;    // bytes sent by clients during the window
  Duration window = 0;
  StageSums stages;            // queue/cpu/network/fsync/other attribution

  double ThroughputOpsPerSec() const {
    return window > 0 ? static_cast<double>(ops) / ToSeconds(window) : 0.0;
  }
  double MeanLatencyMs() const { return latency.Mean() / 1e6; }
  double KbPerOp() const {
    return ops > 0 ? static_cast<double>(client_bytes) / 1024.0 /
                         static_cast<double>(ops)
                   : 0.0;
  }
};

class ClosedLoop {
 public:
  // `op` must invoke its completion callback exactly once (success or not).
  using OpFn = std::function<void(size_t client, std::function<void()> done)>;

  ClosedLoop(CoordFixture* fixture, OpFn op) : fixture_(fixture), op_(std::move(op)) {}

  RunStats Run(Duration warmup, Duration measure) {
    // All mutable state lives behind a shared_ptr: straggler completions that
    // fire after Run() returns keep it alive instead of touching dead stack.
    struct Ctx {
      CoordFixture* fixture = nullptr;
      OpFn op;
      RunStats stats;
      SimTime measure_start = 0;
      SimTime measure_end = 0;
      int64_t bytes_at_start = 0;
      std::function<void(size_t)> issue;
    };
    auto ctx = std::make_shared<Ctx>();
    ctx->fixture = fixture_;
    ctx->op = op_;
    ctx->stats.window = measure;
    ctx->measure_start = fixture_->loop().now() + warmup;
    ctx->measure_end = ctx->measure_start + measure;

    // Weak self-reference breaks the ctx->issue->ctx ownership cycle.
    std::weak_ptr<Ctx> weak = ctx;
    ctx->issue = [weak](size_t i) {
      auto self = weak.lock();
      if (!self) {
        return;
      }
      SimTime issued = self->fixture->loop().now();
      if (issued >= self->measure_end) {
        return;
      }
      // Open a trace per operation; everything the op causally triggers
      // (packets, cpu, fsync) lands under it via the event-loop hooks.
      Tracer& tracer = self->fixture->obs().tracer;
      TraceContext prev = tracer.current();
      TraceContext root;
      if (tracer.enabled()) {
        root = tracer.BeginTrace("client.op",
                                 static_cast<uint32_t>(self->fixture->client_node(i)),
                                 issued);
      }
      self->op(i, [weak, i, issued, root]() {
        auto inner = weak.lock();
        if (!inner) {
          return;
        }
        SimTime done_at = inner->fixture->loop().now();
        StageBreakdown breakdown;
        if (root.active()) {
          breakdown = inner->fixture->obs().tracer.FinishTrace(root, done_at);
        }
        if (issued >= inner->measure_start && done_at <= inner->measure_end) {
          inner->stats.latency.Record(done_at - issued);
          ++inner->stats.ops;
          if (root.active()) {
            inner->stats.stages.Add(breakdown);
          }
        }
        inner->issue(i);
      });
      if (root.active()) {
        tracer.SetCurrent(prev);
      }
    };

    // Snapshot byte counters exactly at the measure boundary.
    fixture_->loop().ScheduleAt(ctx->measure_start, [ctx]() {
      ctx->bytes_at_start = ctx->fixture->ClientBytesSent();
    });

    for (size_t i = 0; i < fixture_->num_clients(); ++i) {
      ctx->issue(i);
    }
    fixture_->loop().RunUntil(ctx->measure_end);
    ctx->stats.client_bytes = fixture_->ClientBytesSent() - ctx->bytes_at_start;
    RunStats out = ctx->stats;
    // Let stragglers drain so the fixture can be reused.
    fixture_->loop().RunUntil(ctx->measure_end + Seconds(2));
    return out;
  }

 private:
  CoordFixture* fixture_;
  OpFn op_;
};

}  // namespace edc

#endif  // EDC_HARNESS_DRIVER_H_
