// Benchmark fixture: boots one of the four evaluated systems (ZooKeeper,
// EXTENSIBLE ZOOKEEPER, DepSpace, EXTENSIBLE DEPSPACE) inside the simulator
// with the paper's fault threshold (f=1: three ZK replicas / four DepSpace
// replicas) and connects N coordination clients.

#ifndef EDC_HARNESS_FIXTURE_H_
#define EDC_HARNESS_FIXTURE_H_

#include <memory>
#include <string>
#include <vector>

#include "edc/common/rng.h"
#include "edc/common/shard_map.h"
#include "edc/ds/client.h"
#include "edc/ds/server.h"
#include "edc/obs/obs.h"
#include "edc/ext/ds_binding.h"
#include "edc/ext/zk_binding.h"
#include "edc/recipes/coord.h"
#include "edc/route/shard_router.h"
#include "edc/sim/costs.h"
#include "edc/sim/event_loop.h"
#include "edc/sim/faults.h"
#include "edc/sim/network.h"
#include "edc/zk/client.h"
#include "edc/zk/server.h"

namespace edc {

enum class SystemKind {
  kZooKeeper,
  kExtensibleZooKeeper,
  kDepSpace,
  kExtensibleDepSpace,
};

const char* SystemName(SystemKind kind);
bool IsExtensible(SystemKind kind);
bool IsZkFamily(SystemKind kind);

struct FixtureOptions {
  SystemKind system = SystemKind::kZooKeeper;
  size_t num_clients = 1;
  uint64_t seed = 1;
  LinkParams link;  // LAN defaults; override for the WAN experiment
  CostModel costs;
  ExtensionLimits limits;
  // Server/client knobs forwarded verbatim to every node of the matching
  // family (conformance tests tighten timeouts and plant test-only bugs).
  ZkServerOptions zk_server;
  ZkClientOptions zk_client;
  DsServerOptions ds_server;
  DsClientOptions ds_client;
  // Observability: when true, Start() wires a shared Obs (tracer + metrics
  // registry) through the network, every server and every client, and
  // installs the event-loop context hooks that carry trace contexts across
  // scheduled callbacks. Instrumentation only reads the simulated clock —
  // enabling it never changes schedules, packet traces or applied logs.
  bool observability = false;
  // Keep finished spans in memory for ExportJson (Perfetto); off = only
  // per-op breakdowns survive.
  bool retain_spans = false;
  // Sharded coordination plane (docs/sharding.md). Shard s is the replica
  // group ZK {1+10s..3+10s} / DepSpace {1+10s..4+10s}. 1 = the single
  // ensemble: coord(i) drives a raw client, with no map-version stamping and
  // no DepSpace admin client. >1 boots that many groups behind the ShardMap,
  // and every coord(i) drives a ZkShardRouter/DsShardRouter instead.
  size_t num_shards = 1;
};

class CoordFixture {
 public:
  explicit CoordFixture(FixtureOptions options);
  ~CoordFixture();

  // Boots servers and connects every client; runs the sim until ready.
  void Start();

  size_t num_clients() const { return coords_.size(); }
  CoordClient* coord(size_t i) { return coords_[i].get(); }
  // Sharded clients are routers owning one sub-client per shard, so their
  // node ids are spaced kRouterIdStride apart.
  NodeId client_node(size_t i) const {
    return options_.num_shards > 1 ? 1000 + static_cast<NodeId>(i) * kRouterIdStride
                                   : 100 + static_cast<NodeId>(i);
  }

  // Raw clients for observer attachment (history recording); index matches
  // coord(i). Null for the other family — and null in sharded mode, where
  // zk_router(i)/ds_router(i) expose the per-shard sub-clients instead.
  ZkClient* zk_client(size_t i) { return i < zk_clients_.size() ? zk_clients_[i].get() : nullptr; }
  DsClient* ds_client(size_t i) { return i < ds_clients_.size() ? ds_clients_[i].get() : nullptr; }
  // Builds one raw client over `servers` on the next client node id (100,
  // 101, ...; zk_client(i) / ds_client(i) list them). Start() builds every
  // unsharded client here; a test that boots with num_clients = 0 adds its
  // own. The caller connects it.
  ZkClient* AddZkClient(ServerList servers, const ZkClientOptions& options);
  DsClient* AddDsClient(ServerList servers, const DsClientOptions& options);

  // Sharded topology. The map lists every replica group (one, at version 1,
  // when num_shards == 1); the routers are null when num_shards == 1.
  size_t num_shards() const { return options_.num_shards; }
  const ShardMap& shard_map() const { return shard_map_; }
  ZkShardRouter* zk_router(size_t i) {
    return i < zk_routers_.size() ? zk_routers_[i].get() : nullptr;
  }
  DsShardRouter* ds_router(size_t i) {
    return i < ds_routers_.size() ? ds_routers_[i].get() : nullptr;
  }
  // Which shard a SERVER node id belongs to (boot scheme above).
  static uint32_t ServerShardOf(NodeId server_id) {
    return static_cast<uint32_t>((server_id - 1) / 10);
  }
  // This shard's slice of the flat zk_servers/ds_servers vectors.
  std::vector<ZkServer*> ZkShardServers(uint32_t shard) const;
  std::vector<DsServer*> DsShardServers(uint32_t shard) const;

  // Mid-run topology change: boots one more ensemble, adds it to the map
  // (bumping the version) and pushes the new expected version to every
  // replica — ZK admission config directly, DepSpace via the ordered
  // kSetMapVersion admin op. Routers keep using their old map until a
  // replica rejects them as stale; the refresh then re-routes onto the new
  // shard. ZK callers should Settle ~2s afterwards for the new ensemble's
  // election. Requires num_shards > 1 at construction.
  void AddShard();

  EventLoop& loop() { return loop_; }
  Network& net() { return *net_; }
  void Settle(Duration d) { loop_.RunUntil(loop_.now() + d); }

  // --- Dynamic ZK membership (docs/reconfig.md); single-ensemble ZK only ---
  // Boots a brand-new replica as a non-voting observer whose Zab contact list
  // is the current voter set, registers it with the network and the fault
  // injector, and starts it. Does not change the membership itself — pair
  // with AdminReconfig("add_observer N") or use JoinReplica for the full
  // flow. The new replica catches up by snapshot + log suffix as needed.
  ZkServer* BootExtraZkReplica(NodeId id);
  // Issues a single-change reconfig spec ("add_observer 4", "promote 4",
  // "remove 2", ...) through a dedicated admin session and runs the sim
  // until the activation reply arrives. kTimeout if it never does.
  Status AdminReconfig(const std::string& spec, Duration timeout = Seconds(5));
  // Full join flow, safe under concurrent client load: add the node as an
  // observer, boot it, let it catch up (snapshot-ship + log replay), then
  // promote it to voter — retrying while the leader still judges it lagging.
  Status JoinReplica(NodeId id, Duration timeout = Seconds(30));
  // Removes a member (voter or observer). The removed replica retires itself
  // when the change activates; its clients fail over via membership pushes.
  Status RemoveReplica(NodeId id, Duration timeout = Seconds(10));
  // The voter list as seen by any running replica (empty for non-ZK).
  std::vector<NodeId> CurrentZkVoters() const;
  ZkServer* ZkServerById(NodeId id);

  // Fault injection: every server is registered with crash/restart closures
  // at Start(), so plans and direct calls work on either system family.
  FaultInjector& faults() { return *faults_; }
  void RunPlan(const FaultPlan& plan) { faults_->Run(plan); }

  // Total bytes clients have sent so far (request side of "data sent by
  // client", Fig. 8/10).
  int64_t ClientBytesSent() const;

  // Shared observability sinks (valid whether or not observability is on;
  // metrics/spans only accumulate when it is).
  Obs& obs() { return obs_; }
  // Snapshots gauge-style state into the registry: per-link packet/byte
  // totals and per-server CPU busy time. Call before exporting metrics.
  void CollectMetrics();

  // Both one-shot EDS invariants (EdsDigestsMatch + EdsLogBounded) in one
  // call; `why` receives the first violation. Vacuously true for ZK-family
  // fixtures.
  bool CheckEdsInvariants(std::string* why = nullptr) const;

  // Direct server access for special benches (fault injection, CPU stats).
  std::vector<std::unique_ptr<ZkServer>> zk_servers;
  std::vector<std::unique_ptr<DsServer>> ds_servers;
  // Extensible systems only: the manager of zk_servers[i] / ds_servers[i].
  const std::vector<std::unique_ptr<ZkExtensionManager>>& zk_managers() const {
    return zk_managers_;
  }
  const std::vector<std::unique_ptr<DsExtensionManager>>& ds_managers() const {
    return ds_managers_;
  }

 private:
  void WireObservability();
  // Lazily-connected admin session used by AdminReconfig (node id 90001).
  ZkClient* AdminZk();
  // Boots shard `s`'s replica group, starts it, and adds it to shard_map_
  // (bumps the version).
  void BootShard(size_t s);
  // Every replica boots here: built, wired to the observability sinks, the
  // network and the fault injector (crash/restart closures), and given an
  // extension manager when the system is extensible. The caller starts it.
  template <typename Server, typename Manager>
  Server* AddReplica(std::unique_ptr<Server> server,
                     std::vector<std::unique_ptr<Server>>& servers,
                     std::vector<std::unique_ptr<Manager>>& managers);
  ZkServer* BootZkReplica(NodeId id, std::vector<NodeId> members, const ZkServerOptions& options);
  // Hands `node` to `owner` after wiring it to the observability sinks.
  template <typename Node>
  Node* Track(std::unique_ptr<Node> node, std::vector<std::unique_ptr<Node>>& owner);
  // Pushes shard_map_.version() to every replica as its expected version.
  void PushShardVersions();

  FixtureOptions options_;
  EventLoop loop_;
  // Record bytes of every ZK-family replica's log, stored once per fixture
  // (none for DepSpace-family fixtures, which have no LogStore).
  std::shared_ptr<RecordPool> log_pool_;
  Obs obs_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<FaultInjector> faults_;
  std::vector<std::unique_ptr<ZkExtensionManager>> zk_managers_;
  std::vector<std::unique_ptr<DsExtensionManager>> ds_managers_;
  std::vector<std::unique_ptr<ZkClient>> zk_clients_;
  std::vector<std::unique_ptr<DsClient>> ds_clients_;
  std::vector<std::unique_ptr<CoordClient>> coords_;
  std::unique_ptr<ZkClient> admin_zk_;  // AdminReconfig session
  ShardMap shard_map_;  // authoritative copy; routers pull it via their source
  // Sharded mode only.
  std::vector<std::unique_ptr<ZkShardRouter>> zk_routers_;
  std::vector<std::unique_ptr<DsShardRouter>> ds_routers_;
  std::vector<std::unique_ptr<DsClient>> ds_admins_;  // per-shard kSetMapVersion senders
};

// Chaos/fault tests read better against this name: a fixture-as-cluster with
// FaultPlan execution and registered crash/restart closures.
using ClusterFixture = CoordFixture;

}  // namespace edc

#endif  // EDC_HARNESS_FIXTURE_H_
