#include "edc/sim/faults.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "edc/common/rng.h"
#include "edc/sim/event_loop.h"
#include "edc/sim/network.h"

namespace edc {
namespace {

class Sink : public NetworkNode {
 public:
  explicit Sink(EventLoop* loop) : loop_(loop) {}

  void HandlePacket(Packet&& pkt) override {
    received.push_back(std::move(pkt));
    times.push_back(loop_->now());
  }

  std::vector<Packet> received;
  std::vector<SimTime> times;

 private:
  EventLoop* loop_;
};

class FaultsTest : public ::testing::Test {
 protected:
  FaultsTest()
      : net_(&loop_, Rng(1), LinkParams{}),
        injector_(&loop_, &net_),
        a_(&loop_),
        b_(&loop_),
        c_(&loop_) {
    net_.Register(1, &a_);
    net_.Register(2, &b_);
    net_.Register(3, &c_);
  }

  Packet Make(NodeId src, NodeId dst, uint32_t type) {
    Packet p;
    p.src = src;
    p.dst = dst;
    p.type = type;
    p.payload.assign(16, 0x5a);
    return p;
  }

  EventLoop loop_;
  Network net_;
  FaultInjector injector_;
  Sink a_;
  Sink b_;
  Sink c_;
};

TEST_F(FaultsTest, FullDropLosesEverythingUntilCleared) {
  injector_.SetLinkFaults(1, 2, LinkFaults{1.0, 0.0, 0});
  for (uint32_t i = 0; i < 5; ++i) {
    net_.Send(Make(1, 2, i));
  }
  loop_.Run();
  EXPECT_TRUE(b_.received.empty());

  injector_.ClearLinkFaults(1, 2);
  net_.Send(Make(1, 2, 99));
  loop_.Run();
  ASSERT_EQ(b_.received.size(), 1u);
  EXPECT_EQ(b_.received[0].type, 99u);
  EXPECT_EQ(injector_.trace().size(), 2u);
}

TEST_F(FaultsTest, DuplicationDeliversTwoCopiesInOrder) {
  injector_.SetLinkFaults(1, 2, LinkFaults{0.0, 1.0, 0});
  net_.Send(Make(1, 2, 7));
  net_.Send(Make(1, 2, 8));
  loop_.Run();
  ASSERT_EQ(b_.received.size(), 4u);
  EXPECT_EQ(b_.received[0].type, 7u);
  EXPECT_EQ(b_.received[1].type, 7u);
  EXPECT_EQ(b_.received[2].type, 8u);
  EXPECT_EQ(b_.received[3].type, 8u);
}

TEST_F(FaultsTest, ExtraDelayPostponesDelivery) {
  injector_.SetLinkFaults(1, 2, LinkFaults{0.0, 0.0, Millis(50)});
  net_.Send(Make(1, 2, 0));
  loop_.Run();
  ASSERT_EQ(b_.times.size(), 1u);
  EXPECT_GE(b_.times[0], Millis(50));
}

// Installing all-zero fault knobs must not change the Rng draw sequence, so a
// knob-free run and a zero-knob run deliver at identical instants.
TEST_F(FaultsTest, ZeroKnobsLeaveTheRngStreamUntouched) {
  auto deliveries = [](bool install_zero_faults) {
    EventLoop loop;
    Network net(&loop, Rng(77), LinkParams{});
    FaultInjector injector(&loop, &net);
    Sink src(&loop);
    Sink dst(&loop);
    net.Register(1, &src);
    net.Register(2, &dst);
    if (install_zero_faults) {
      injector.SetLinkFaults(1, 2, LinkFaults{0.0, 0.0, 0});
    }
    for (uint32_t i = 0; i < 20; ++i) {
      Packet p;
      p.src = 1;
      p.dst = 2;
      p.type = i;
      p.payload.assign(8, 0x11);
      net.Send(std::move(p));
    }
    loop.Run();
    return dst.times;
  };
  EXPECT_EQ(deliveries(false), deliveries(true));
}

TEST_F(FaultsTest, PlanFiresStepsAtScheduledTimes) {
  SimTime crashed_at = 0;
  SimTime restarted_at = 0;
  injector_.RegisterProcess(
      3, [&]() { crashed_at = loop_.now(); }, [&]() { restarted_at = loop_.now(); });

  FaultPlan plan;
  plan.episodes.push_back({.kind = EpisodeKind::kCrashRestart,
                           .start = Millis(10),
                           .duration = Millis(20),
                           .node = 3});
  injector_.Run(plan);
  loop_.Run();

  EXPECT_EQ(crashed_at, Millis(10));
  EXPECT_EQ(restarted_at, Millis(30));
  ASSERT_EQ(injector_.trace().size(), 2u);
  EXPECT_NE(injector_.trace()[0].find("crash"), std::string::npos);
  EXPECT_NE(injector_.trace()[1].find("restart"), std::string::npos);
}

TEST_F(FaultsTest, UnregisteredNodeFallsBackToNetworkUpDown) {
  injector_.Crash(2);
  EXPECT_FALSE(injector_.IsUp(2));
  net_.Send(Make(1, 2, 0));
  loop_.Run();
  EXPECT_TRUE(b_.received.empty());
  injector_.Restart(2);
  EXPECT_TRUE(injector_.IsUp(2));
  net_.Send(Make(1, 2, 1));
  loop_.Run();
  EXPECT_EQ(b_.received.size(), 1u);
}

TEST_F(FaultsTest, PlanPartitionBlocksTrafficUntilHeal) {
  FaultPlan plan;
  plan.episodes.push_back({.kind = EpisodeKind::kPartition,
                           .start = Millis(1),
                           .duration = Millis(19),
                           .group_a = {1},
                           .group_b = {2}});
  injector_.Run(plan);
  loop_.ScheduleAt(Millis(5), [this]() { net_.Send(Make(1, 2, 1)); });
  loop_.ScheduleAt(Millis(25), [this]() { net_.Send(Make(1, 2, 2)); });
  loop_.Run();
  ASSERT_EQ(b_.received.size(), 1u);
  EXPECT_EQ(b_.received[0].type, 2u);
}

// Overlapping partition episodes compose: the end of the first reconnects
// only its own pairs, so the second's pairs keep dropping traffic.
TEST_F(FaultsTest, OverlappingPartitionsEachHealOnlyTheirOwnPairs) {
  FaultPlan plan;
  plan.episodes.push_back({.kind = EpisodeKind::kPartition,
                           .start = Millis(1),
                           .duration = Millis(10),
                           .group_a = {1},
                           .group_b = {2}});
  plan.episodes.push_back({.kind = EpisodeKind::kPartition,
                           .start = Millis(5),
                           .duration = Millis(20),
                           .group_a = {1},
                           .group_b = {3}});
  injector_.Run(plan);
  loop_.ScheduleAt(Millis(15), [this]() {
    net_.Send(Make(1, 2, 1));  // first episode over: delivered
    net_.Send(Make(1, 3, 2));  // second episode live: dropped
    net_.Send(Make(3, 1, 3));
  });
  loop_.ScheduleAt(Millis(30), [this]() { net_.Send(Make(1, 3, 4)); });
  loop_.Run();
  ASSERT_EQ(b_.received.size(), 1u);
  EXPECT_EQ(b_.received[0].type, 1u);
  EXPECT_TRUE(a_.received.empty());
  ASSERT_EQ(c_.received.size(), 1u);
  EXPECT_EQ(c_.received[0].type, 4u);
}

// A pair cut by two live episodes stays cut until the later one ends.
TEST_F(FaultsTest, PairCutTwiceStaysCutUntilTheLaterEpisodeEnds) {
  FaultPlan plan;
  plan.episodes.push_back({.kind = EpisodeKind::kPartition,
                           .start = Millis(1),
                           .duration = Millis(10),
                           .group_a = {1},
                           .group_b = {2}});
  plan.episodes.push_back({.kind = EpisodeKind::kPartition,
                           .start = Millis(5),
                           .duration = Millis(15),
                           .group_a = {1, 3},
                           .group_b = {2}});
  injector_.Run(plan);
  loop_.ScheduleAt(Millis(15), [this]() {
    net_.Send(Make(1, 2, 1));
    net_.Send(Make(2, 1, 2));
  });
  loop_.ScheduleAt(Millis(25), [this]() {
    net_.Send(Make(1, 2, 3));
    net_.Send(Make(2, 1, 4));
  });
  loop_.Run();
  ASSERT_EQ(b_.received.size(), 1u);
  EXPECT_EQ(b_.received[0].type, 3u);
  ASSERT_EQ(a_.received.size(), 1u);
  EXPECT_EQ(a_.received[0].type, 4u);
  // Begin and end of each episode, in time order.
  ASSERT_EQ(injector_.trace().size(), 4u);
  EXPECT_EQ(injector_.trace()[2], "heal t=" + std::to_string(Millis(11)));
  EXPECT_EQ(injector_.trace()[3], "heal t=" + std::to_string(Millis(20)));
}

TEST_F(FaultsTest, PlanToStringIsDeterministicAndPrintsEachEpisodeOnce) {
  FaultPlan plan;
  EXPECT_EQ(plan.ToString(), "(no fault episodes)");
  plan.episodes.push_back({.kind = EpisodeKind::kCrashRestart,
                           .start = Millis(10),
                           .duration = Millis(20),
                           .node = 3});
  plan.episodes.push_back({.kind = EpisodeKind::kPartition,
                           .start = Millis(1),
                           .duration = Millis(19),
                           .group_a = {1},
                           .group_b = {2, 3}});
  plan.episodes.push_back({.kind = EpisodeKind::kLinkFaults,
                           .start = Millis(1),
                           .duration = Micros(15500),
                           .node = 1,
                           .peer = 2,
                           .faults = LinkFaults{0.5, 0.3, Micros(300)}});
  const std::string printed = plan.ToString();
  EXPECT_EQ(printed,
            "  crash-restart node=3 start=+10ms dur=20ms\n"
            "  partition {1}|{2,3} start=+1ms dur=19ms\n"
            "  link-faults 1<->2 drop=0.5 dup=0.3 delay=+300us start=+1ms dur=15500us\n");
  EXPECT_EQ(plan.ToString(), printed);
}

// The headline property: a chaos schedule over a lossy, duplicating, slow
// link replays exactly under the same seed, and diverges under another.
TEST_F(FaultsTest, SameSeedSamePlanSameDigest) {
  auto run = [](uint64_t seed) {
    EventLoop loop;
    Network net(&loop, Rng(seed), LinkParams{});
    FaultInjector injector(&loop, &net);
    Sink s1(&loop);
    Sink s2(&loop);
    Sink s3(&loop);
    net.Register(1, &s1);
    net.Register(2, &s2);
    net.Register(3, &s3);
    injector.EnablePacketTrace();

    FaultPlan plan;
    plan.episodes.push_back({.kind = EpisodeKind::kLinkFaults,
                             .start = Millis(1),
                             .duration = Millis(15),
                             .node = 1,
                             .peer = 2,
                             .faults = LinkFaults{0.5, 0.3, Micros(300)}});
    plan.episodes.push_back({.kind = EpisodeKind::kCrashRestart,
                             .start = Millis(8),
                             .duration = Millis(6),
                             .node = 3});
    injector.Run(plan);
    for (uint32_t i = 0; i < 50; ++i) {
      loop.ScheduleAt(Millis(2) + i * Micros(400), [&net, i]() {
        Packet p;
        p.src = 1;
        p.dst = (i % 2 == 0) ? NodeId{2} : NodeId{3};
        p.type = i;
        p.payload.assign(12, static_cast<uint8_t>(i));
        net.Send(std::move(p));
      });
    }
    loop.Run();
    return injector.TraceDigest();
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

}  // namespace
}  // namespace edc
