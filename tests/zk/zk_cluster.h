// Shared in-simulator ZooKeeper cluster fixture for zk/ext/recipes tests.

#ifndef EDC_TESTS_ZK_ZK_CLUSTER_H_
#define EDC_TESTS_ZK_ZK_CLUSTER_H_

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "edc/common/rng.h"
#include "edc/sim/costs.h"
#include "edc/sim/event_loop.h"
#include "edc/sim/network.h"
#include "edc/zk/client.h"
#include "edc/zk/server.h"

namespace edc {

class ZkCluster {
 public:
  // Server NodeIds are 1..n; clients get ids from 100 up.
  explicit ZkCluster(size_t n = 3, uint64_t seed = 11) {
    net = std::make_unique<Network>(&loop, Rng(seed), LinkParams{});
    std::vector<NodeId> members;
    for (size_t i = 1; i <= n; ++i) {
      members.push_back(static_cast<NodeId>(i));
    }
    for (NodeId id : members) {
      auto server = std::make_unique<ZkServer>(&loop, net.get(), id, members, CostModel{},
                                               ZkServerOptions{});
      net->Register(id, server.get());
      servers.push_back(std::move(server));
    }
  }

  void Start() {
    for (auto& s : servers) {
      s->Start();
    }
    Settle(Seconds(2));
  }

  ZkServer* Leader() {
    for (auto& s : servers) {
      if (s->IsLeader()) {
        return s.get();
      }
    }
    return nullptr;
  }

  ZkServer* Follower() {
    for (auto& s : servers) {
      if (s->running() && !s->IsLeader()) {
        return s.get();
      }
    }
    return nullptr;
  }

  // Creates and connects a client against `server` (default: first server).
  ZkClient* AddClient(NodeId server = 1, ZkClientOptions options = ZkClientOptions{}) {
    NodeId id = next_client_id++;
    auto client = std::make_unique<ZkClient>(&loop, net.get(), id, server, options);
    ZkClient* raw = client.get();
    clients.push_back(std::move(client));
    bool connected = false;
    raw->Connect([&](Status s) { connected = s.ok(); });
    Settle(Seconds(1));
    EXPECT_TRUE(connected) << "client failed to connect";
    return raw;
  }

  void Settle(Duration d = Millis(500)) { loop.RunUntil(loop.now() + d); }

  EventLoop loop;
  std::unique_ptr<Network> net;
  std::vector<std::unique_ptr<ZkServer>> servers;
  std::vector<std::unique_ptr<ZkClient>> clients;
  NodeId next_client_id = 100;
};

}  // namespace edc

#endif  // EDC_TESTS_ZK_ZK_CLUSTER_H_
