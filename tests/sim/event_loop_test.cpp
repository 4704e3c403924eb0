#include "edc/sim/event_loop.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "edc/common/rng.h"
#include "tests/zab/zab_cluster.h"

namespace edc {
namespace {

TEST(EventLoopTest, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.Schedule(Millis(3), [&] { order.push_back(3); });
  loop.Schedule(Millis(1), [&] { order.push_back(1); });
  loop.Schedule(Millis(2), [&] { order.push_back(2); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), Millis(3));
}

TEST(EventLoopTest, SameTimeFifoBySchedulingOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.Schedule(Millis(5), [&order, i] { order.push_back(i); });
  }
  loop.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EventLoopTest, NestedScheduling) {
  EventLoop loop;
  int fired = 0;
  loop.Schedule(Millis(1), [&] {
    loop.Schedule(Millis(1), [&] {
      ++fired;
      EXPECT_EQ(loop.now(), Millis(2));
    });
  });
  loop.Run();
  EXPECT_EQ(fired, 1);
}

TEST(EventLoopTest, CancelPreventsExecution) {
  EventLoop loop;
  bool ran = false;
  TimerId id = loop.Schedule(Millis(1), [&] { ran = true; });
  loop.Cancel(id);
  loop.Run();
  EXPECT_FALSE(ran);
}

TEST(EventLoopTest, CancelAfterFireIsNoop) {
  EventLoop loop;
  int runs = 0;
  TimerId id = loop.Schedule(Millis(1), [&] { ++runs; });
  loop.Run();
  loop.Cancel(id);  // must not crash or affect later timers
  loop.Schedule(Millis(1), [&] { ++runs; });
  loop.Run();
  EXPECT_EQ(runs, 2);
}

TEST(EventLoopTest, RunUntilAdvancesClockToDeadline) {
  EventLoop loop;
  int fired = 0;
  loop.Schedule(Millis(10), [&] { ++fired; });
  loop.Schedule(Millis(30), [&] { ++fired; });
  loop.RunUntil(Millis(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.now(), Millis(20));
  loop.RunUntil(Millis(40));
  EXPECT_EQ(fired, 2);
}

TEST(EventLoopTest, StopHaltsRun) {
  EventLoop loop;
  int fired = 0;
  loop.Schedule(Millis(1), [&] {
    ++fired;
    loop.Stop();
  });
  loop.Schedule(Millis(2), [&] { ++fired; });
  loop.Run();
  EXPECT_EQ(fired, 1);
  loop.Run();
  EXPECT_EQ(fired, 2);
}

TEST(EventLoopTest, NegativeDelayClampsToNow) {
  EventLoop loop;
  loop.Schedule(Millis(5), [&] {
    loop.Schedule(-Millis(10), [&] { EXPECT_EQ(loop.now(), Millis(5)); });
  });
  loop.Run();
}

TEST(EventLoopTest, PendingCountExcludesCancelled) {
  EventLoop loop;
  TimerId a = loop.Schedule(Millis(1), [] {});
  loop.Schedule(Millis(2), [] {});
  EXPECT_EQ(loop.pending(), 2u);
  loop.Cancel(a);
  EXPECT_EQ(loop.pending(), 1u);
}

TEST(EventLoopTest, CancelReleasesCallbackAtOnce) {
  EventLoop loop;
  auto token = std::make_shared<int>(0);
  TimerId id = loop.Schedule(Seconds(1), [token] {});
  EXPECT_EQ(token.use_count(), 2);
  loop.Cancel(id);
  EXPECT_EQ(token.use_count(), 1);  // captures freed before the event is due
  loop.Cancel(id);                  // second cancel is a no-op
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_EQ(loop.cancelled(), 1u);
  loop.Run();
  EXPECT_EQ(loop.queued(), 0u);
  EXPECT_EQ(loop.cancelled(), 0u);
}

// Zab voters with 1 ms heartbeats: the leader's SendHeartbeats re-arms its
// own timer from inside the timer callback (ArmTimer cancels the id that just
// fired), and every heartbeat makes each follower cancel and re-arm its
// pending leader timeout.
TEST(EventLoopTest, ZabHeartbeatTimersStayBounded) {
  ZabConfig cfg;
  cfg.heartbeat_interval = Millis(1);
  ZabCluster cluster;
  cluster.Boot(3, /*seed=*/5, cfg);
  EventLoop& loop = cluster.loop();
  ZabReplica* leader = cluster.Leader();
  ASSERT_NE(leader, nullptr);

  // 10^5 heartbeats at 1 ms, sampled every 100. An underflowing pending()
  // would read as a huge count.
  size_t max_queued = 0;
  size_t max_pending = 0;
  for (int chunk = 0; chunk < 1000; ++chunk) {
    loop.RunUntil(loop.now() + Millis(100));
    ASSERT_LE(loop.cancelled(), loop.queued());
    max_queued = std::max(max_queued, loop.queued());
    max_pending = std::max(max_pending, loop.pending());
  }
  EXPECT_TRUE(leader->zab->is_leader());  // one leadership throughout
  // A handful of live timers and in-flight packets per node, plus cancelled
  // keys awaiting compaction (at most half the heap once past 64 keys).
  EXPECT_LE(max_pending, 64u);
  EXPECT_LE(max_queued, 128u);
  EXPECT_LE(loop.cancelled(), 64u);
}

// Seeded random Schedule / Cancel / RunUntil mix, including callbacks that
// schedule, cancel other timers and cancel themselves. A reference model of
// live (time, seq) keys must name exactly the event the loop fires next.
TEST(EventLoopTest, RandomMixFiresInReferenceOrder) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    EventLoop loop;
    Rng rng(seed);
    std::set<std::tuple<SimTime, uint64_t, int>> model;  // (at, seq, tag)
    std::map<int, std::tuple<SimTime, uint64_t, int>> live;  // tag -> key
    std::vector<TimerId> ids;
    uint64_t seq = 0;
    int fired = 0;
    int compactions = 0;

    std::function<void(SimTime)> schedule;
    auto cancel = [&](int tag) {
      size_t before = loop.queued();
      loop.Cancel(ids[static_cast<size_t>(tag)]);
      if (loop.queued() < before) {
        ++compactions;
      }
      auto it = live.find(tag);
      if (it != live.end()) {
        model.erase(it->second);
        live.erase(it);
      }
    };
    auto on_fire = [&](int tag) {
      ASSERT_FALSE(model.empty());
      auto expected = *model.begin();
      ASSERT_EQ(std::get<2>(expected), tag);
      ASSERT_EQ(std::get<0>(expected), loop.now());
      model.erase(model.begin());
      live.erase(tag);
      ++fired;
      if (tag % 4 == 0) {
        schedule(loop.now() + tag % 5);
      }
      if (tag % 5 == 0 && tag > 0) {
        cancel(tag - 1);
      }
      if (tag % 7 == 0) {
        cancel(tag);  // already fired: no-op
      }
    };
    schedule = [&](SimTime at) {
      int tag = static_cast<int>(ids.size());
      ids.push_back(loop.ScheduleAt(at, [&on_fire, tag] { on_fire(tag); }));
      auto key = std::make_tuple(at, seq++, tag);
      model.insert(key);
      live[tag] = key;
    };

    for (int op = 0; op < 20000; ++op) {
      uint64_t dice = rng.UniformU64(100);
      if (dice < 55) {
        // Near events fire soon; far ones pile up so cancels trigger
        // compaction.
        uint64_t horizon = rng.UniformU64(2) == 0 ? 50 : 5000;
        schedule(loop.now() + static_cast<Duration>(rng.UniformU64(horizon)));
      } else if (dice < 88) {
        // Mostly recent ids (often still pending), sometimes any id ever
        // issued (often already fired or cancelled).
        if (!ids.empty()) {
          uint64_t back = rng.UniformU64(2) == 0 ? std::min<uint64_t>(ids.size(), 100)
                                                 : ids.size();
          cancel(static_cast<int>(ids.size() - 1 - rng.UniformU64(back)));
        }
      } else if (dice < 90) {
        // Mass cancel (a crashed node's timers): enough to force compaction.
        std::vector<int> tags;
        for (const auto& [tag, key] : live) {
          tags.push_back(tag);
        }
        for (int tag : tags) {
          cancel(tag);
        }
      } else {
        loop.RunUntil(loop.now() + static_cast<Duration>(rng.UniformU64(30)));
        ASSERT_TRUE(model.empty() || std::get<0>(*model.begin()) > loop.now());
      }
      ASSERT_EQ(loop.pending(), model.size());
    }
    loop.Run();
    EXPECT_TRUE(model.empty());
    EXPECT_EQ(loop.pending(), 0u);
    EXPECT_EQ(loop.queued(), 0u);
    EXPECT_GT(fired, 1000);
    EXPECT_GT(compactions, 0);
  }
}

}  // namespace
}  // namespace edc
