// The PBFT-level test substrate: counter replicas behind BftReplica, a voting
// client, and helpers to crash, restart and forge protocol packets. Every raw
// PBFT suite (BftClusterTest, the batching tests, BftRecovery's dedup check)
// runs on it; the service-level suites run on CoordFixture instead.

#ifndef EDC_TESTS_BFT_BFT_CLUSTER_H_
#define EDC_TESTS_BFT_BFT_CLUSTER_H_

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "edc/bft/replica.h"
#include "edc/common/rng.h"
#include "edc/sim/cpu.h"
#include "edc/sim/network.h"

namespace edc {

inline std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}
inline std::string Str(const std::vector<uint8_t>& b) { return std::string(b.begin(), b.end()); }

// Deterministic state machine: applies "add:<n>" requests to a counter and
// replies with the post-state, so divergence between replicas is visible to
// the voting client; any other request is echoed back unchanged. Execute() checks the BftCallbacks contract: op numbers
// rise by one and timestamps strictly increase. Both are part of the
// snapshot, so after a state transfer the check also covers the op count the
// replica restored from the checkpoint header.
class CounterReplica : public NetworkNode, public BftCallbacks {
 public:
  CounterReplica(EventLoop* loop, Network* net, NodeId id, std::vector<NodeId> members)
      : cpu(loop, 1), loop_(loop) {
    replica = std::make_unique<BftReplica>(loop, net, &cpu, CostModel{}, id, std::move(members),
                                           this);
    net->Register(id, this);
  }

  void HandlePacket(Packet&& pkt) override {
    if (IsBftPacket(pkt.type)) {
      first_seen.emplace(static_cast<BftMsgType>(pkt.type), loop_->now());
      replica->HandlePacket(std::move(pkt));
    }
  }

  BftExecOutcome Execute(uint64_t seq, SimTime ts, const BftRequest& request) override {
    EXPECT_EQ(seq, last_seq + 1);
    EXPECT_GT(ts, last_ts);
    last_seq = seq;
    last_ts = ts;
    std::string body = Str(request.payload);
    std::string reply = body;
    if (body.rfind("add:", 0) == 0) {
      counter += std::stoll(body.substr(4));
      reply = std::to_string(counter);
    }
    order.push_back(body);
    executed.emplace_back(request.client, request.req_id);
    replica->SendReply(request.client, request.req_id, Bytes(reply));
    return BftExecOutcome{};
  }

  std::vector<uint8_t> TakeSnapshot() override {
    Encoder enc;
    enc.I64(counter);
    enc.U64(last_seq);
    enc.I64(last_ts);
    return enc.Release();
  }

  Status RestoreSnapshot(const std::vector<uint8_t>& snapshot) override {
    Decoder dec(snapshot);
    int64_t value = 0;
    uint64_t seq = 0;
    SimTime ts = 0;
    dec.I64(value);
    dec.U64(seq);
    dec.I64(ts);
    if (!dec.ok()) {
      return Status(ErrorCode::kDecodeError, "bad counter snapshot");
    }
    counter = value;
    last_seq = seq;
    last_ts = ts;
    return Status::Ok();
  }

  // Service-side half of a crash-restart: the state machine starts empty.
  void ResetState() {
    counter = 0;
    last_seq = 0;
    last_ts = -1;
    order.clear();
    executed.clear();
  }

  CpuQueue cpu;
  std::unique_ptr<BftReplica> replica;
  int64_t counter = 0;
  uint64_t last_seq = 0;
  SimTime last_ts = -1;
  std::vector<std::string> order;
  std::vector<std::pair<NodeId, uint64_t>> executed;  // (client, req_id)
  std::map<BftMsgType, SimTime> first_seen;           // first delivery per type

 private:
  EventLoop* loop_;
};

// Client that multicasts a request to all replicas and accepts a reply once
// f+1 matching responses arrive; retransmits on timeout.
class VotingClient : public NetworkNode {
 public:
  VotingClient(EventLoop* loop, Network* net, NodeId id, std::vector<NodeId> replicas, int f)
      : loop_(loop), net_(net), id_(id), replicas_(std::move(replicas)), f_(f) {
    net->Register(id, this);
  }

  void Send(const std::string& body, std::function<void(std::string)> done) {
    uint64_t req_id = ++next_req_;
    calls_[req_id] = Call{body, std::move(done), {}};
    Transmit(req_id);
    ArmRetry(req_id);
  }

  void HandlePacket(Packet&& pkt) override {
    if (pkt.type != static_cast<uint32_t>(BftMsgType::kReply)) {
      return;
    }
    auto reply = DecodeMsg<ReplyMsg>(pkt.payload);
    if (!reply.ok()) {
      return;
    }
    auto it = calls_.find(reply->req_id);
    if (it == calls_.end()) {
      return;
    }
    std::string body = Str(reply->payload);
    int votes = ++it->second.votes[body];
    if (votes >= f_ + 1) {
      auto done = std::move(it->second.done);
      calls_.erase(it);
      done(body);
    }
  }

  size_t outstanding() const { return calls_.size(); }

 private:
  struct Call {
    std::string body;
    std::function<void(std::string)> done;
    std::map<std::string, int> votes;
  };

  void Transmit(uint64_t req_id) {
    auto it = calls_.find(req_id);
    if (it == calls_.end()) {
      return;
    }
    BftRequest req;
    req.client = id_;
    req.req_id = req_id;
    req.payload = Bytes(it->second.body);
    for (NodeId r : replicas_) {
      Packet pkt;
      pkt.src = id_;
      pkt.dst = r;
      pkt.type = static_cast<uint32_t>(BftMsgType::kRequest);
      pkt.payload = EncodeMsg(req);
      net_->Send(std::move(pkt));
    }
  }

  void ArmRetry(uint64_t req_id) {
    loop_->Schedule(Millis(800), [this, req_id]() {
      if (calls_.count(req_id) > 0) {
        Transmit(req_id);
        ArmRetry(req_id);
      }
    });
  }

  EventLoop* loop_;
  Network* net_;
  NodeId id_;
  std::vector<NodeId> replicas_;
  int f_;
  uint64_t next_req_ = 0;
  std::map<uint64_t, Call> calls_;
};

// Replicas 1..n on one network and a voting client (node kClient) that
// accepts a reply from f + 1 of them, f = (n - 1) / 3.
class BftCluster {
 public:
  static constexpr NodeId kClient = 100;

  // Builds every replica, then starts them in id order.
  void Boot(int n = 4, LinkParams link = LinkParams{}, uint64_t seed = 3) {
    net_ = std::make_unique<Network>(&loop_, Rng(seed), link);
    for (int i = 1; i <= n; ++i) {
      members_.push_back(static_cast<NodeId>(i));
    }
    for (NodeId id : members_) {
      replicas_.push_back(std::make_unique<CounterReplica>(&loop_, net_.get(), id, members_));
    }
    for (auto& r : replicas_) {
      r->replica->Start();
    }
    client_ = std::make_unique<VotingClient>(&loop_, net_.get(), kClient, members_, (n - 1) / 3);
  }

  // A crash stops replica `id` and takes it off the network; a restart puts
  // it back, empties its state machine and restarts the replica.
  void Crash(NodeId id) {
    replicas_[id - 1]->replica->Crash();
    net_->SetNodeUp(id, false);
  }

  void Restart(NodeId id) {
    net_->SetNodeUp(id, true);
    replicas_[id - 1]->ResetState();
    replicas_[id - 1]->replica->Restart();
  }

  void Settle(Duration d = Seconds(2)) { loop_.RunUntil(loop_.now() + d); }

  // Sends `n` concurrent "add:1" requests and settles until all replied.
  void Burst(int n) {
    int done = 0;
    for (int i = 0; i < n; ++i) {
      client_->Send("add:1", [&done](std::string) { ++done; });
    }
    SimTime deadline = loop_.now() + Seconds(20);
    while (done < n && loop_.now() < deadline) {
      Settle(Millis(50));
    }
    ASSERT_EQ(done, n);
  }

  // Delivers a protocol message that claims to come from replica `src`
  // (links are authenticated in the model, so this is what a Byzantine
  // replica `src` could send).
  void Forge(NodeId src, NodeId dst, BftMsgType type, std::vector<uint8_t> payload) {
    Packet pkt;
    pkt.src = src;
    pkt.dst = dst;
    pkt.type = static_cast<uint32_t>(type);
    pkt.payload = std::move(payload);
    net_->Send(std::move(pkt));
  }

  EventLoop& loop() { return loop_; }
  Network& net() { return *net_; }
  const std::vector<NodeId>& members() const { return members_; }
  const std::vector<std::unique_ptr<CounterReplica>>& replicas() const { return replicas_; }
  VotingClient* client() { return client_.get(); }

 private:
  EventLoop loop_;
  std::unique_ptr<Network> net_;
  std::vector<NodeId> members_;
  std::vector<std::unique_ptr<CounterReplica>> replicas_;
  std::unique_ptr<VotingClient> client_;
};

class BftClusterTest : public ::testing::Test, protected BftCluster {};

}  // namespace edc

#endif  // EDC_TESTS_BFT_BFT_CLUSTER_H_
