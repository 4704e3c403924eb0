// Test-side helpers over CoordFixture, the one way tests stand up a service
// replica group: the replica lookups, raw clients that connect the way the
// service suites connect them, and the applied-log fold the pinned digests
// are recorded with.

#ifndef EDC_TESTS_HARNESS_FIXTURE_HELPERS_H_
#define EDC_TESTS_HARNESS_FIXTURE_HELPERS_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "edc/harness/fixture.h"

namespace edc {

// A replica group of `system` with no fixture clients: the test adds its
// own (AddZkClient / AddDsClient, or the helpers below).
inline FixtureOptions GroupOptions(SystemKind system, uint64_t seed) {
  FixtureOptions options;
  options.system = system;
  options.num_clients = 0;
  options.seed = seed;
  return options;
}

// The running ZK leader, or null. (By id: CoordFixture::ZkServerById.)
inline ZkServer* ZkLeader(CoordFixture& fix) {
  for (auto& s : fix.zk_servers) {
    if (s->running() && s->IsLeader()) {
      return s.get();
    }
  }
  return nullptr;
}

// The running ZK leader's id, or 0.
inline NodeId ZkLeaderId(CoordFixture& fix) {
  ZkServer* leader = ZkLeader(fix);
  return leader == nullptr ? 0 : leader->id();
}

// The first running ZK replica that does not lead, or null.
inline ZkServer* ZkFollower(CoordFixture& fix) {
  for (auto& s : fix.zk_servers) {
    if (s->running() && !s->IsLeader()) {
      return s.get();
    }
  }
  return nullptr;
}

// Adds a raw ZK client over `servers`, connects it and settles 1 s.
inline ZkClient* ConnectZkClient(CoordFixture& fix, ServerList servers,
                                 const ZkClientOptions& options = ZkClientOptions{}) {
  ZkClient* client = fix.AddZkClient(std::move(servers), options);
  bool connected = false;
  client->Connect([&connected](Status s) { connected = s.ok(); });
  fix.Settle(Seconds(1));
  EXPECT_TRUE(connected) << "client " << client->id() << " failed to connect";
  return client;
}

// Adds a raw DepSpace client over the whole (unsharded) replica group.
inline DsClient* AddGroupDsClient(CoordFixture& fix,
                                  const DsClientOptions& options = DsClientOptions{}) {
  return fix.AddDsClient(fix.shard_map().entry(0).ensemble, options);
}

// FNV-1a over the eight little-endian bytes of `v`, continuing from `h`.
inline uint64_t Fnv1aMix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

// The starting value of every state hash the digest tests pin.
inline constexpr uint64_t kStateHashSeed = 1469598103934665603ull;

// Folds `server`'s applied log, its (zxid, txn hash) pairs in delivery
// order, into `h`. Folding several replicas chains the calls.
inline uint64_t FoldAppliedLog(const ZkServer& server, uint64_t h = kStateHashSeed) {
  for (const auto& [zxid, txn_hash] : server.applied_log()) {
    h = Fnv1aMix(h, zxid);
    h = Fnv1aMix(h, txn_hash);
  }
  return h;
}

}  // namespace edc

#endif  // EDC_TESTS_HARNESS_FIXTURE_HELPERS_H_
