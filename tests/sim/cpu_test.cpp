#include "edc/sim/cpu.h"

#include <gtest/gtest.h>

#include <vector>

namespace edc {
namespace {

TEST(CpuQueueTest, SingleCoreSerializesWork) {
  EventLoop loop;
  CpuQueue cpu(&loop, 1);
  std::vector<int> order;
  cpu.Submit(Micros(10), [&] {
    order.push_back(1);
    EXPECT_EQ(loop.now(), Micros(10));
  });
  cpu.Submit(Micros(5), [&] {
    order.push_back(2);
    EXPECT_EQ(loop.now(), Micros(15));
  });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(cpu.busy_ns(), Micros(15));
}

TEST(CpuQueueTest, TwoCoresRunInParallel) {
  EventLoop loop;
  CpuQueue cpu(&loop, 2);
  int done = 0;
  cpu.Submit(Micros(10), [&] { ++done; });
  cpu.Submit(Micros(10), [&] { ++done; });
  loop.Run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(loop.now(), Micros(10));  // not 20: two cores
}

TEST(CpuQueueTest, QueueDelayReflectsBacklog) {
  EventLoop loop;
  CpuQueue cpu(&loop, 1);
  EXPECT_EQ(cpu.QueueDelay(), 0);
  cpu.Submit(Micros(100), [] {});
  EXPECT_EQ(cpu.QueueDelay(), Micros(100));
  cpu.Submit(Micros(50), [] {});
  EXPECT_EQ(cpu.QueueDelay(), Micros(150));
  loop.Run();
  EXPECT_EQ(cpu.QueueDelay(), 0);
}

TEST(CpuQueueTest, ZeroAndNegativeCostRunImmediately) {
  EventLoop loop;
  CpuQueue cpu(&loop, 1);
  int runs = 0;
  cpu.Submit(0, [&] { ++runs; });
  cpu.Submit(-5, [&] { ++runs; });
  loop.Run();
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(loop.now(), 0);
}

TEST(CpuQueueTest, IdleGapDoesNotAccumulateBusyTime) {
  EventLoop loop;
  CpuQueue cpu(&loop, 1);
  cpu.Submit(Micros(10), [] {});
  loop.Run();
  loop.Schedule(Millis(1), [&] { cpu.Submit(Micros(10), [] {}); });
  loop.Run();
  EXPECT_EQ(cpu.busy_ns(), Micros(20));
  // Schedule() was relative to now()==10us after the first Run().
  EXPECT_EQ(loop.now(), Millis(1) + Micros(20));
}

// A crash and a restart at the same instant: work and timers armed before
// the crash never run, yet the work keeps its core time and both keep their
// events; work and timers armed after the restart run.
TEST(CpuQueueTest, OlderIncarnationSkippedButKeepsCoreTime) {
  EventLoop loop;
  CpuQueue cpu(&loop, 1);
  std::vector<int> ran;
  cpu.Submit(Micros(10), [&] { ran.push_back(1); });
  loop.Schedule(Micros(5), cpu.Guard([&] { ran.push_back(2); }));
  cpu.NextIncarnation();  // crash
  cpu.NextIncarnation();  // restart
  cpu.Submit(Micros(10), [&] {
    ran.push_back(3);
    EXPECT_EQ(loop.now(), Micros(20));  // behind the skipped item's core time
  });
  loop.Schedule(Micros(5), cpu.Guard([&] { ran.push_back(4); }));
  EXPECT_EQ(loop.Run(), 4u);
  EXPECT_EQ(ran, (std::vector<int>{4, 3}));
  EXPECT_EQ(cpu.busy_ns(), Micros(20));
}

}  // namespace
}  // namespace edc
