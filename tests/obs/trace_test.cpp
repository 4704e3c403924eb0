// Unit tests for the causal tracer: span bookkeeping, the priority-sweep
// stage breakdown (buckets must partition the measured latency exactly), and
// Chrome trace_event export.

#include "edc/obs/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace edc {
namespace {

int64_t SumBuckets(const StageBreakdown& b) {
  int64_t sum = 0;
  for (size_t i = 0; i < kStageCount; ++i) {
    sum += b.ns[i];
  }
  return sum;
}

TEST(TracerTest, DisabledTracerNoOps) {
  Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  TraceContext ctx = tracer.BeginTrace("op", 1, 0);
  EXPECT_FALSE(ctx.active());
  EXPECT_EQ(tracer.BeginSpanIn(ctx, "child", Stage::kCpu, 1, 10), 0u);
  StageBreakdown b = tracer.FinishTrace(ctx, 100);
  EXPECT_EQ(b.total, 0);
  EXPECT_EQ(tracer.live_traces(), 0u);
}

TEST(TracerTest, BreakdownPartitionsTotal) {
  Tracer tracer;
  tracer.Enable();
  TraceContext root = tracer.BeginTrace("op", 1, 0);
  ASSERT_TRUE(root.active());
  tracer.RecordSpanIn(root, "net", Stage::kNetwork, 2, 10, 30);
  tracer.RecordSpanIn(root, "wait", Stage::kQueue, 2, 30, 40);
  tracer.RecordSpanIn(root, "run", Stage::kCpu, 2, 40, 60);
  tracer.RecordSpanIn(root, "fsync", Stage::kFsync, 2, 60, 90);
  StageBreakdown b = tracer.FinishTrace(root, 100);
  EXPECT_EQ(b.total, 100);
  EXPECT_EQ(b.of(Stage::kNetwork), 20);
  EXPECT_EQ(b.of(Stage::kQueue), 10);
  EXPECT_EQ(b.of(Stage::kCpu), 20);
  EXPECT_EQ(b.of(Stage::kFsync), 30);
  // Root keeps kOther active: uncovered [0,10) and [90,100) fall there.
  EXPECT_EQ(b.of(Stage::kOther), 20);
  EXPECT_EQ(SumBuckets(b), b.total);
}

TEST(TracerTest, OverlapResolvedByStagePriority) {
  Tracer tracer;
  tracer.Enable();
  TraceContext root = tracer.BeginTrace("op", 1, 0);
  // A cpu span inside a network span: cpu (priority 3) owns the overlap.
  tracer.RecordSpanIn(root, "net", Stage::kNetwork, 2, 0, 40);
  tracer.RecordSpanIn(root, "run", Stage::kCpu, 2, 10, 30);
  StageBreakdown b = tracer.FinishTrace(root, 40);
  EXPECT_EQ(b.total, 40);
  EXPECT_EQ(b.of(Stage::kCpu), 20);
  EXPECT_EQ(b.of(Stage::kNetwork), 20);
  EXPECT_EQ(b.of(Stage::kOther), 0);
  EXPECT_EQ(SumBuckets(b), b.total);
}

TEST(TracerTest, SpansClippedToRootInterval) {
  Tracer tracer;
  tracer.Enable();
  TraceContext root = tracer.BeginTrace("op", 1, 10);
  // Work that outlives the reply is clipped to the root interval.
  tracer.RecordSpanIn(root, "late", Stage::kCpu, 2, 40, 500);
  // Work entirely after the reply is clipped away.
  tracer.RecordSpanIn(root, "gone", Stage::kFsync, 2, 200, 300);
  StageBreakdown b = tracer.FinishTrace(root, 50);
  EXPECT_EQ(b.total, 40);
  EXPECT_EQ(b.of(Stage::kCpu), 10);
  EXPECT_EQ(b.of(Stage::kFsync), 0);
  EXPECT_EQ(SumBuckets(b), b.total);
}

TEST(TracerTest, OpenSpansClosedAtFinish) {
  Tracer tracer;
  tracer.Enable();
  TraceContext root = tracer.BeginTrace("op", 1, 0);
  SpanId open = tracer.BeginSpanIn(root, "queued", Stage::kQueue, 2, 20);
  EXPECT_NE(open, 0u);
  // Never EndSpan'd (request cut short): FinishTrace closes it at `now`.
  StageBreakdown b = tracer.FinishTrace(root, 50);
  EXPECT_EQ(b.total, 50);
  EXPECT_EQ(b.of(Stage::kQueue), 30);
  EXPECT_EQ(SumBuckets(b), b.total);
}

TEST(TracerTest, FinishReleasesSpansUnlessRetained) {
  Tracer tracer;
  tracer.Enable(/*retain_spans=*/false);
  TraceContext root = tracer.BeginTrace("op", 1, 0);
  tracer.RecordSpanIn(root, "net", Stage::kNetwork, 2, 0, 10);
  EXPECT_EQ(tracer.live_traces(), 1u);
  tracer.FinishTrace(root, 20);
  EXPECT_EQ(tracer.live_traces(), 0u);
  EXPECT_EQ(tracer.retained_spans(), 0u);

  tracer.Enable(/*retain_spans=*/true);
  TraceContext r2 = tracer.BeginTrace("op", 1, 100);
  tracer.RecordSpanIn(r2, "net", Stage::kNetwork, 2, 100, 110);
  tracer.FinishTrace(r2, 120);
  EXPECT_EQ(tracer.retained_spans(), 2u);  // root + child
}

TEST(TracerTest, StragglerSpanAfterFinishIgnored) {
  Tracer tracer;
  tracer.Enable();
  TraceContext root = tracer.BeginTrace("op", 1, 0);
  tracer.FinishTrace(root, 10);
  // The context still names the finished trace; instrumentation must no-op.
  EXPECT_EQ(tracer.BeginSpanIn(root, "late", Stage::kCpu, 2, 20), 0u);
  tracer.RecordSpanIn(root, "late", Stage::kNetwork, 2, 20, 30);
  EXPECT_EQ(tracer.live_traces(), 0u);
}

TEST(TracerTest, CurrentContextClearedByFinish) {
  Tracer tracer;
  tracer.Enable();
  TraceContext root = tracer.BeginTrace("op", 1, 0);
  EXPECT_EQ(tracer.current().trace, root.trace);
  tracer.FinishTrace(root, 10);
  EXPECT_FALSE(tracer.current().active());
}

TEST(TracerTest, ExportJsonWritesTraceEvents) {
  Tracer tracer;
  tracer.Enable(/*retain_spans=*/true);
  TraceContext root = tracer.BeginTrace("client.op", 100, 0);
  tracer.RecordSpanIn(root, "net.pkt", Stage::kNetwork, 1, 0, 1000);
  tracer.FinishTrace(root, 2000);

  std::string path = ::testing::TempDir() + "/edc_trace_test.json";
  ASSERT_TRUE(tracer.ExportJson(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  std::string body = ss.str();
  EXPECT_NE(body.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(body.find("\"client.op\""), std::string::npos);
  EXPECT_NE(body.find("\"net.pkt\""), std::string::npos);
  EXPECT_NE(body.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(body.find("\"cat\": \"network\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(TracerTest, BreakdownAccumulates) {
  StageBreakdown a;
  a.ns[static_cast<size_t>(Stage::kCpu)] = 5;
  a.total = 5;
  StageBreakdown b;
  b.ns[static_cast<size_t>(Stage::kCpu)] = 7;
  b.ns[static_cast<size_t>(Stage::kFsync)] = 3;
  b.total = 10;
  a += b;
  EXPECT_EQ(a.of(Stage::kCpu), 12);
  EXPECT_EQ(a.of(Stage::kFsync), 3);
  EXPECT_EQ(a.total, 15);
}

}  // namespace
}  // namespace edc
