#include "stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace perfbench {
namespace {

TEST(PercentileRuleTest, TenThousandSamplesSupportP999) {
  EXPECT_EQ(SamplesBeyond(10000, kTailQuantile), 10);
  EXPECT_TRUE(SupportsQuantile(10000, kTailQuantile));
  EXPECT_EQ(SamplesBeyond(5000, kTailQuantile), 5);
  EXPECT_FALSE(SupportsQuantile(5000, kTailQuantile));
  EXPECT_FALSE(SupportsQuantile(0, kTailQuantile));
}

TEST(PercentileRuleTest, CountsSamplesRankedAboveTheInterpolatedValue) {
  // Median of 21: rank 10 exactly; ranks 11..20 lie beyond it.
  EXPECT_EQ(SamplesBeyond(21, 0.5), 10);
  // Median of 20: rank 9.5, between two samples; ranks 10..19 lie beyond it.
  EXPECT_EQ(SamplesBeyond(20, 0.5), 10);
  EXPECT_TRUE(SupportsQuantile(20, 0.5));
  EXPECT_EQ(SamplesBeyond(19, 0.5), 9);
  EXPECT_FALSE(SupportsQuantile(19, 0.5));
}

TEST(OpAccountingTest, FailedOpsMissTheSloAndCarryNoLatency) {
  OpAccounting acc;
  acc.AddOutcome(OpOutcome{true, edc::Millis(1), 1});
  acc.AddOutcome(OpOutcome{true, kSloLimit + 1, 1});
  acc.AddOutcome(OpOutcome{false, 0, 3});
  acc.AddOutcome(OpOutcome{true, kSloLimit, 2});
  EXPECT_EQ(acc.attempted(), 4);
  EXPECT_EQ(acc.ok(), 3);
  EXPECT_EQ(acc.failed(), 1);
  EXPECT_EQ(acc.latency().count(), 3u);
  // The over-limit op and the failed op miss; an op at the limit meets it.
  EXPECT_DOUBLE_EQ(acc.SloMissRatio(), 0.5);
  EXPECT_DOUBLE_EQ(acc.SloOkRatio(), 0.5);
  EXPECT_DOUBLE_EQ(acc.AttemptsPerOp(), 7.0 / 4.0);
}

TEST(OpAccountingTest, FailedAndLostAttemptsCountAgainstAttempts) {
  OpAccounting acc;
  acc.AddFailedAttempt();
  acc.AddLostAttempt();
  acc.AddOutcome(OpOutcome{true, edc::Millis(1), 3});
  acc.AddOutcome(OpOutcome{true, edc::Millis(1), 1});
  EXPECT_EQ(acc.failed_attempts(), 1);
  EXPECT_EQ(acc.lost_attempts(), 1);
  EXPECT_DOUBLE_EQ(acc.FailedAttemptRatio(), 2.0 / 4.0);
  EXPECT_EQ(acc.failed(), 0);
}

TEST(OpAccountingTest, EmptyWindowReportsZeros) {
  OpAccounting acc;
  EXPECT_DOUBLE_EQ(acc.SloMissRatio(), 0.0);
  EXPECT_DOUBLE_EQ(acc.AttemptsPerOp(), 0.0);
  EXPECT_DOUBLE_EQ(acc.FailedAttemptRatio(), 0.0);
}

TEST(ServiceWaitTest, HealthyRunWaitsAboutOneLatency) {
  // Ops due every 10 ns, each served 3 ns later.
  std::vector<Served> ops;
  for (edc::SimTime due = 100; due < 200; due += 10) {
    ops.push_back(Served{due, due + 3});
  }
  // Just after each due time the next op is due 10 ns later and served 3 ns
  // after that.
  EXPECT_EQ(LongestServiceWait(ops, 100), 13);
  EXPECT_EQ(LongestServiceWait({}, 100), 0);
}

TEST(ServiceWaitTest, OutageRunsToTheFirstOpDueAfterItThatIsServed) {
  // Ops due every 10 ns and served 3 ns later, except that nothing due in
  // [140, 200) is served before 260, and the op due at 170 never is.
  std::vector<Served> ops;
  for (edc::SimTime due = 100; due < 300; due += 10) {
    if (due == 170) {
      continue;
    }
    ops.push_back(Served{due, due >= 140 && due < 200 ? 260 : due + 3});
  }
  // From just after 130 the first op served is the one due at 200 (at 203).
  EXPECT_EQ(LongestServiceWait(ops, 100), 203 - 130);
  // Input order does not matter.
  std::reverse(ops.begin(), ops.end());
  EXPECT_EQ(LongestServiceWait(ops, 100), 203 - 130);
}

TEST(CorrectnessCheckTest, CounterAcceptsAtLeastOnceApplies) {
  EXPECT_EQ(CheckCounter(5, 5, 5, {1, 2, 3, 4, 5}), "");
  // A retried increment may apply twice without being acknowledged twice.
  EXPECT_EQ(CheckCounter(6, 5, 7, {1, 2, 4, 5, 6}), "");
}

TEST(CorrectnessCheckTest, CounterRejectsASkippedIncrement) {
  EXPECT_NE(CheckCounter(4, 5, 5, {1, 2, 3, 4}), "");
}

TEST(CorrectnessCheckTest, CounterRejectsPhantomAndDuplicateIncrements) {
  EXPECT_NE(CheckCounter(6, 5, 5, {1, 2, 3, 4, 5}), "");
  EXPECT_NE(CheckCounter(5, 5, 5, {1, 2, 3, 3, 5}), "");
  EXPECT_NE(CheckCounter(5, 5, 5, {1, 2, 3, 4, 9}), "");
}

TEST(CorrectnessCheckTest, QueueRemovesEachAddedIdAtMostOnce) {
  EXPECT_EQ(CheckQueue({"a", "b", "c"}, {"b", "a"}), "");
  EXPECT_NE(CheckQueue({"a", "b"}, {"a", "x"}), "");
  EXPECT_NE(CheckQueue({"a", "b"}, {"a", "a"}), "");
}

}  // namespace
}  // namespace perfbench
