// The Zab-level test substrate: one replica shell around a ZabNode and one
// cluster of them on a simulated network. Every Zab suite (ZabClusterTest,
// ReconfigZabTest, the pipeline suites, the heartbeat timer bound) runs on
// these; the service-level suites run on CoordFixture instead.

#ifndef EDC_TESTS_ZAB_ZAB_CLUSTER_H_
#define EDC_TESTS_ZAB_ZAB_CLUSTER_H_

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "edc/common/hash.h"
#include "edc/common/rng.h"
#include "edc/logstore/logstore.h"
#include "edc/sim/cpu.h"
#include "edc/sim/faults.h"
#include "edc/sim/network.h"
#include "edc/zab/node.h"

namespace edc {

inline std::vector<uint8_t> Txn(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}
inline std::string TxnStr(std::span<const uint8_t> b) { return std::string(b.begin(), b.end()); }

// A replica shell: routes Zab packets to its node and records what the node
// tells it. The state is every delivered txn followed by ';', and it is the
// snapshot, so state transfer is observable.
class ZabReplica : public NetworkNode, public ZabCallbacks {
 public:
  ZabReplica(EventLoop* loop, Network* net, NodeId id, std::vector<NodeId> members,
             const LogStoreConfig& log_cfg, const ZabConfig& cfg)
      : id(id), cpu(loop, 1), log(loop, log_cfg) {
    zab = std::make_unique<ZabNode>(loop, net, &cpu, &log, CostModel{}, id, std::move(members),
                                    cfg, this);
    net->Register(id, this);
  }

  void HandlePacket(Packet&& pkt) override {
    if (IsZabPacket(pkt.type)) {
      zab->HandlePacket(std::move(pkt));
    }
  }

  void OnDeliver(uint64_t zxid, std::span<const uint8_t> txn) override {
    delivered.push_back(TxnStr(txn));
    delivered_zxids.push_back(zxid);
    state += TxnStr(txn) + ";";
  }

  void OnRoleChange(bool leader, NodeId leader_id, uint32_t epoch) override {
    is_leader = leader;
    known_leader = leader_id;
    last_epoch = epoch;
  }

  void OnMembershipChange(uint64_t zxid, const ZabMembership& m) override {
    membership_changes.push_back({zxid, m});
  }

  std::vector<uint8_t> TakeSnapshot() override { return Txn(state); }

  bool InstallSnapshot(uint64_t zxid, const std::vector<uint8_t>& snap) override {
    if (reject_installs) {
      return false;
    }
    state = TxnStr(snap);
    last_install_zxid = zxid;
    snapshot_installs++;
    return true;
  }

  // Service-side half of a crash-restart: the state machine starts empty.
  void ResetServiceState() {
    state.clear();
    delivered.clear();
    delivered_zxids.clear();
  }

  NodeId id;
  CpuQueue cpu;
  LogStore log;
  std::unique_ptr<ZabNode> zab;
  std::vector<std::string> delivered;
  std::vector<uint64_t> delivered_zxids;
  std::string state;
  bool is_leader = false;
  NodeId known_leader = 0;
  uint32_t last_epoch = 0;
  std::vector<std::pair<uint64_t, ZabMembership>> membership_changes;
  int snapshot_installs = 0;
  uint64_t last_install_zxid = 0;
  // Fail every install, modeling a torn image / crash mid-install; the node
  // must re-request state transfer and succeed once the flag clears.
  bool reject_installs = false;
};

// Voters 1..n on one network, with a packet-traced FaultInjector. The
// injector has no processes registered: Crash/Restart below are the crash
// path, and the injector's own Crash/Restart only toggle a node's links.
class ZabCluster {
 public:
  // Builds every replica (replica i with log_cfgs[i], or LogStoreConfig{}
  // when log_cfgs is empty), then starts them in id order and runs 2 s of
  // election.
  void Boot(size_t n, uint64_t seed, const ZabConfig& cfg = ZabConfig{},
            std::vector<LogStoreConfig> log_cfgs = {}) {
    cfg_ = cfg;
    net_ = std::make_unique<Network>(&loop_, Rng(seed), LinkParams{});
    faults_ = std::make_unique<FaultInjector>(&loop_, net_.get());
    faults_->EnablePacketTrace();
    log_cfgs.resize(n);
    std::vector<NodeId> members;
    for (size_t i = 1; i <= n; ++i) {
      members.push_back(static_cast<NodeId>(i));
    }
    for (size_t i = 0; i < n; ++i) {
      replicas_.push_back(std::make_unique<ZabReplica>(&loop_, net_.get(), members[i], members,
                                                       log_cfgs[i], cfg_));
    }
    for (auto& r : replicas_) {
      r->zab->Start();
    }
    Settle();
  }

  // Boots and starts a fresh node whose contact list is the leader's voter
  // set, with the boot config; `observer` makes it a learner.
  ZabReplica* AddNode(NodeId id, bool observer) {
    ZabConfig cfg = cfg_;
    cfg.observer = observer;
    replicas_.push_back(std::make_unique<ZabReplica>(
        &loop_, net_.get(), id, Leader()->zab->membership().voters, LogStoreConfig{}, cfg));
    ZabReplica* raw = replicas_.back().get();
    raw->zab->Start();
    return raw;
  }

  ZabReplica* Leader() {
    for (auto& r : replicas_) {
      if (r->zab->is_leader()) {
        return r.get();
      }
    }
    return nullptr;
  }

  ZabReplica* ById(NodeId id) {
    for (auto& r : replicas_) {
      if (r->id == id) {
        return r.get();
      }
    }
    return nullptr;
  }

  ZabReplica* AnyFollower() {
    for (auto& r : replicas_) {
      if (r->zab->running() && !r->zab->is_leader()) {
        return r.get();
      }
    }
    return nullptr;
  }

  // A crash stops the node and takes it off the network; a restart puts it
  // back, empties its state machine and restarts the node from its log.
  void Crash(ZabReplica* r) {
    r->zab->Crash();
    net_->SetNodeUp(r->id, false);
  }

  void Restart(ZabReplica* r) {
    net_->SetNodeUp(r->id, true);
    r->ResetServiceState();
    r->zab->Restart();
  }

  void Settle(Duration d = Seconds(2)) { loop_.RunUntil(loop_.now() + d); }

  // Broadcasts `waves` waves of `per_wave` transactions, `gap` apart, from
  // the current leader, starting one `gap` from now. Transactions are named
  // t<index> so runs are comparable across configurations.
  void DriveWaves(size_t waves, size_t per_wave, Duration gap) {
    ZabReplica* leader = Leader();
    ASSERT_NE(leader, nullptr);
    size_t index = 0;
    for (size_t w = 0; w < waves; ++w) {
      for (size_t i = 0; i < per_wave; ++i) {
        std::string txn = "t" + std::to_string(index++);
        loop_.ScheduleAt(loop_.now() + gap * static_cast<Duration>(w + 1),
                         [leader, txn]() { leader->zab->Broadcast(Txn(txn)); });
      }
    }
  }

  // FNV fold of every replica's applied log: (zxid, txn) pairs in delivery
  // order, replicas in member order.
  uint64_t AppliedLogHash() const {
    uint64_t h = kFnvOffset;
    for (const auto& r : replicas_) {
      for (size_t i = 0; i < r->delivered.size(); ++i) {
        uint64_t z = r->delivered_zxids[i];
        h = Fnv1a64(reinterpret_cast<const uint8_t*>(&z), sizeof(z), h);
        h = Fnv1a64(r->delivered[i], h);
      }
    }
    return h;
  }

  EventLoop& loop() { return loop_; }
  Network& net() { return *net_; }
  FaultInjector& faults() { return *faults_; }
  const std::vector<std::unique_ptr<ZabReplica>>& replicas() const { return replicas_; }
  ZabReplica* replica(size_t i) { return replicas_[i].get(); }
  size_t size() const { return replicas_.size(); }

 private:
  EventLoop loop_;
  ZabConfig cfg_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<FaultInjector> faults_;
  std::vector<std::unique_ptr<ZabReplica>> replicas_;
};

}  // namespace edc

#endif  // EDC_TESTS_ZAB_ZAB_CLUSTER_H_
