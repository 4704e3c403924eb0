#include "edc/sim/network.h"

#include <gtest/gtest.h>

#include <vector>

#include "edc/common/rng.h"

namespace edc {
namespace {

class Sink : public NetworkNode {
 public:
  void HandlePacket(Packet&& pkt) override { received.push_back(std::move(pkt)); }
  std::vector<Packet> received;
};

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : net_(&loop_, Rng(1), LinkParams{}) {
    net_.Register(1, &a_);
    net_.Register(2, &b_);
  }

  Packet Make(NodeId src, NodeId dst, uint32_t type, size_t bytes = 10) {
    Packet p;
    p.src = src;
    p.dst = dst;
    p.type = type;
    p.payload.assign(bytes, 0x7f);
    return p;
  }

  EventLoop loop_;
  Network net_;
  Sink a_;
  Sink b_;
};

TEST_F(NetworkTest, DeliversWithLatency) {
  net_.Send(Make(1, 2, 7));
  loop_.Run();
  ASSERT_EQ(b_.received.size(), 1u);
  EXPECT_EQ(b_.received[0].type, 7u);
  EXPECT_GE(loop_.now(), Micros(100));  // at least base latency
}

TEST_F(NetworkTest, FifoPerPairEvenWithJitter) {
  for (uint32_t i = 0; i < 50; ++i) {
    net_.Send(Make(1, 2, i));
  }
  loop_.Run();
  ASSERT_EQ(b_.received.size(), 50u);
  for (uint32_t i = 0; i < 50; ++i) {
    EXPECT_EQ(b_.received[i].type, i);
  }
}

TEST_F(NetworkTest, CountsBytesIncludingFrameOverhead) {
  net_.Send(Make(1, 2, 0, 100));
  loop_.Run();
  EXPECT_EQ(net_.StatsFor(1).bytes_sent, static_cast<int64_t>(100 + kFrameOverheadBytes));
  EXPECT_EQ(net_.StatsFor(1).packets_sent, 1);
  EXPECT_EQ(net_.StatsFor(2).bytes_received, static_cast<int64_t>(100 + kFrameOverheadBytes));
}

TEST_F(NetworkTest, PartitionDropsBothDirections) {
  net_.Disconnect(1, 2);
  net_.Send(Make(1, 2, 0));
  net_.Send(Make(2, 1, 0));
  loop_.Run();
  EXPECT_TRUE(a_.received.empty());
  EXPECT_TRUE(b_.received.empty());
  net_.Reconnect(1, 2);
  net_.Send(Make(1, 2, 0));
  loop_.Run();
  EXPECT_EQ(b_.received.size(), 1u);
}

TEST_F(NetworkTest, DownNodeNeitherSendsNorReceives) {
  net_.SetNodeUp(2, false);
  net_.Send(Make(1, 2, 0));
  net_.Send(Make(2, 1, 0));
  loop_.Run();
  EXPECT_TRUE(a_.received.empty());
  EXPECT_TRUE(b_.received.empty());
  net_.SetNodeUp(2, true);
  net_.Send(Make(1, 2, 0));
  loop_.Run();
  EXPECT_EQ(b_.received.size(), 1u);
}

TEST_F(NetworkTest, InFlightPacketLostIfReceiverCrashes) {
  net_.Send(Make(1, 2, 0));
  net_.SetNodeUp(2, false);  // crash while packet in flight
  loop_.Run();
  EXPECT_TRUE(b_.received.empty());
}

TEST_F(NetworkTest, CrashClearsStaleFifoFloor) {
  // Regression: the per-pair FIFO floor must die with the connection when a
  // node crashes. A packet sent over a very slow link pushes the (1,2) floor
  // far into the future; after 2 crashes and restarts, fresh packets belong
  // to a NEW connection and must arrive at normal link latency instead of
  // being held behind the dead connection's floor.
  net_.SetLinkFaults(1, 2, LinkFaults{.extra_delay = Seconds(30)});
  net_.Send(Make(1, 2, 1));                // floors (1,2) delivery near t=30s
  net_.SetNodeUp(2, false);                // crash tears down the connection + its floor
  net_.SetNodeUp(2, true);                 // restart
  net_.SetLinkFaults(1, 2, LinkFaults{});  // restarted node talks over a normal link

  SimTime delivered = 0;
  net_.SetDeliverySink([&](SimTime at, const Packet& pkt) {
    if (pkt.type == 2) {
      delivered = at;
    }
  });
  net_.Send(Make(1, 2, 2));
  loop_.Run();
  // The post-restart packet must arrive at normal latency, ahead of the
  // pre-crash straggler — not held >= 30s behind the stale floor.
  ASSERT_FALSE(b_.received.empty());
  EXPECT_EQ(b_.received[0].type, 2u);
  EXPECT_GT(delivered, 0);
  EXPECT_LT(delivered, Seconds(1));
}

TEST_F(NetworkTest, UnregisterClearsStaleFifoFloor) {
  net_.SetLinkFaults(1, 2, LinkFaults{.extra_delay = Seconds(30)});
  net_.Send(Make(1, 2, 1));
  net_.Unregister(2);
  Sink b2;
  net_.Register(2, &b2);
  net_.SetLinkFaults(1, 2, LinkFaults{});

  SimTime delivered = 0;
  net_.SetDeliverySink([&](SimTime at, const Packet& pkt) {
    if (pkt.type == 2) {
      delivered = at;
    }
  });
  net_.Send(Make(1, 2, 2));
  loop_.Run();
  ASSERT_FALSE(b2.received.empty());
  EXPECT_EQ(b2.received[0].type, 2u);
  EXPECT_GT(delivered, 0);
  EXPECT_LT(delivered, Seconds(1));
}

TEST_F(NetworkTest, DropProbabilityOneLosesEverything) {
  net_.SetLinkFaults(1, 2, LinkFaults{.drop_probability = 1.0});
  for (int i = 0; i < 10; ++i) {
    net_.Send(Make(1, 2, 0));
  }
  loop_.Run();
  EXPECT_TRUE(b_.received.empty());
  // Bytes still counted as sent (the sender paid for them).
  EXPECT_EQ(net_.StatsFor(1).packets_sent, 10);
}

TEST_F(NetworkTest, BandwidthAddsSerializationDelay) {
  EventLoop loop;
  Network net(&loop, Rng(1),
              LinkParams{.latency = 0, .jitter = 0, .bandwidth_bps = 8000.0});  // 1000 bytes/s
  Sink a;
  Sink b;
  net.Register(1, &a);
  net.Register(2, &b);
  net.Send(Make(1, 2, 0, 1000 - kFrameOverheadBytes));  // 1000 wire bytes
  loop.Run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_NEAR(static_cast<double>(loop.now()), 1e9, 1e7);  // ~1 simulated second
}

TEST_F(NetworkTest, LinkFaultsApplyInBothDirections) {
  net_.SetLinkFaults(1, 2, LinkFaults{.extra_delay = Millis(20)});
  net_.Send(Make(2, 1, 0));
  loop_.Run();
  EXPECT_GE(loop_.now(), Millis(20));
}

}  // namespace
}  // namespace edc
