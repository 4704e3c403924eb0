// Sharded coordination-plane topology (docs/sharding.md).
//
// A ShardMap is the client-visible description of a sharded deployment: N
// shard entries, each a replica ensemble (ServerList), plus a monotonic
// map_version. Clients stamp the version on every request; replicas that have
// been told a newer version reject the request with kShardMapStale, which
// triggers a client-side map refresh and re-route (the map-version protocol).
//
// Routing is by CoordKey. EZK routes whole znode subtrees: the key of a path
// is its first component, so "/app/a" and "/app/b" always land on the same
// shard and GetChildren/watches stay single-shard. EDS routes tuples by their
// first field onto the same consistent-hash ring; path-shaped fields reduce
// to their first component so prefix templates stay single-shard too. The
// ring uses virtual nodes so that adding or removing a shard moves only about
// 1/N of the key space, and a key that moves always moves to (or from) the
// changed shard — never between two untouched shards.

#ifndef EDC_COMMON_SHARD_MAP_H_
#define EDC_COMMON_SHARD_MAP_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "edc/common/client_api.h"

namespace edc {

// The routing key of one coordination object (znode path or tuple field).
class CoordKey {
 public:
  // Znode-subtree key: "/app/x/y" -> "app". "/" and "" are routable (empty
  // key) so root-level operations still map to a shard.
  static CoordKey ForPath(const std::string& path);
  // EDS tuple/template first field. Path-shaped fields ("/q/item3") reduce to
  // their subtree key so tuples and the prefix templates that match them
  // colocate; other fields are used whole.
  static CoordKey ForField(const std::string& field);
  // A key that cannot be routed to a single shard (wildcard template field);
  // the router must scatter-gather or reject.
  static CoordKey Unroutable() { return CoordKey(); }

  bool routable() const { return routable_; }
  const std::string& key() const { return key_; }
  // Position of this key on the consistent-hash ring.
  uint64_t RingPoint() const;

 private:
  CoordKey() = default;
  explicit CoordKey(std::string key) : key_(std::move(key)), routable_(true) {}

  std::string key_;
  bool routable_ = false;
};

// One shard: a stable identity plus the replica ensemble serving it.
struct ShardEntry {
  uint32_t shard_id = 0;
  ServerList ensemble;
};

// The slice of a ShardMap one client (or per-shard sub-client) consumes: the
// ensemble it talks to, the shard's identity, and the map version to stamp on
// requests. map_version 0 means "unsharded/standalone" — servers that were
// never told a version accept everything, so pre-shard deployments behave
// exactly as before.
struct ShardView {
  uint32_t shard_id = 0;
  uint64_t map_version = 0;
  ServerList ensemble;

  static ShardView Standalone(ServerList servers) {
    return ShardView{0, 0, std::move(servers)};
  }
};

class ShardMap {
 public:
  // Virtual nodes per shard on the ring; enough to keep the spread tight at
  // the shard counts we run (1-16) while staying cheap to rebuild.
  static constexpr int kVnodesPerShard = 64;

  ShardMap() = default;

  // The degenerate one-shard map (version 1, shard id 0) a standalone
  // deployment is described by.
  static ShardMap Single(ServerList ensemble);

  uint64_t version() const { return version_; }
  void set_version(uint64_t v) { version_ = v; }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const ShardEntry& entry(size_t i) const { return entries_[i]; }
  const std::vector<ShardEntry>& entries() const { return entries_; }
  ShardView View(size_t i) const {
    return ShardView{entries_[i].shard_id, version_, entries_[i].ensemble};
  }

  // Both bump the map version.
  void AddShard(uint32_t shard_id, ServerList ensemble);
  void RemoveShard(uint32_t shard_id);

  // Entry index serving `key`. Requires key.routable() and !empty().
  size_t IndexFor(const CoordKey& key) const;

  // Deterministically finds a top-level path "<stem><salt>" whose subtree
  // routes to entries_[target] — benches and tests use it to pin a workload
  // to a chosen shard. `stem` must start with '/' and stay single-component.
  std::string SubtreeForShard(const std::string& stem, size_t target) const;

 private:
  void RebuildRing();

  uint64_t version_ = 0;
  std::vector<ShardEntry> entries_;
  // (ring point, entry index), sorted by point. A key is served by the first
  // vnode clockwise from its own ring point.
  std::vector<std::pair<uint64_t, uint32_t>> ring_;
};

}  // namespace edc

#endif  // EDC_COMMON_SHARD_MAP_H_
