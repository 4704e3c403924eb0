#include "edc/harness/fixture.h"

#include <cassert>

#include "edc/harness/invariants.h"

namespace edc {

const char* SystemName(SystemKind kind) {
  switch (kind) {
    case SystemKind::kZooKeeper:
      return "ZooKeeper";
    case SystemKind::kExtensibleZooKeeper:
      return "EZK";
    case SystemKind::kDepSpace:
      return "DepSpace";
    case SystemKind::kExtensibleDepSpace:
      return "EDS";
  }
  return "?";
}

bool IsExtensible(SystemKind kind) {
  return kind == SystemKind::kExtensibleZooKeeper || kind == SystemKind::kExtensibleDepSpace;
}

bool IsZkFamily(SystemKind kind) {
  return kind == SystemKind::kZooKeeper || kind == SystemKind::kExtensibleZooKeeper;
}

CoordFixture::CoordFixture(FixtureOptions options) : options_(options) {
  if (IsZkFamily(options_.system)) {
    log_pool_ = std::make_shared<RecordPool>();
  }
  if (options_.observability) {
    loop_.obs().tracer.Enable(options_.retain_spans);
  }
  net_ = std::make_unique<Network>(&loop_, Rng(options_.seed), options_.link);
  faults_ = std::make_unique<FaultInjector>(&loop_, net_.get());
}

CoordFixture::~CoordFixture() = default;

void CoordFixture::CollectMetrics() {
  if (!options_.observability) {
    return;
  }
  MetricsRegistry& metrics = loop_.obs().metrics;
  net_->DumpLinkMetrics(&metrics);
  for (const auto& server : zk_servers) {
    metrics.SetGauge("server." + std::to_string(server->id()) + ".cpu_busy_ns",
                     server->cpu().busy_ns());
  }
  for (const auto& server : ds_servers) {
    metrics.SetGauge("server." + std::to_string(server->id()) + ".cpu_busy_ns",
                     server->cpu().busy_ns());
  }
}

template <typename Server, typename Manager>
Server* CoordFixture::AddReplica(std::unique_ptr<Server> server,
                                 std::vector<std::unique_ptr<Server>>& servers,
                                 std::vector<std::unique_ptr<Manager>>& managers) {
  Server* raw = server.get();
  servers.push_back(std::move(server));
  NodeId id = raw->id();
  net_->Register(id, raw);
  faults_->RegisterProcess(id, [raw]() { raw->Crash(); }, [raw]() { raw->Restart(); });
  if (IsExtensible(options_.system)) {
    managers.push_back(std::make_unique<Manager>(raw, options_.limits));
  }
  return raw;
}

void CoordFixture::Start() {
  for (size_t s = 0; s < options_.num_shards; ++s) {
    BootShard(s);
  }
  const bool zk = IsZkFamily(options_.system);
  const bool sharded = options_.num_shards > 1;
  if (zk) {
    loop_.RunUntil(loop_.now() + Seconds(2));  // leader elections
  }
  if (sharded) {
    PushShardVersions();
  }

  // One client per coord(i): a raw client on the single replica group, a
  // router over the shard map otherwise.
  auto source = [this]() { return shard_map_; };
  const ServerList& group = shard_map_.entry(0).ensemble;
  size_t connected = 0;
  for (size_t i = 0; i < options_.num_clients; ++i) {
    NodeId node = client_node(i);
    if (zk) {
      ZkApi* api = nullptr;
      if (sharded) {
        zk_routers_.push_back(std::make_unique<ZkShardRouter>(&loop_, net_.get(), node, shard_map_,
                                                              source, options_.zk_client));
        api = zk_routers_.back().get();
      } else {
        // Full ensemble list so fixture clients fail over during chaos runs;
        // preferred index keeps the historical round-robin initial placement.
        api = AddZkClient(ServerList{group.servers, i % group.size()}, options_.zk_client);
      }
      api->Connect([&connected](Status s) {
        if (s.ok()) {
          ++connected;
        }
      });
      coords_.push_back(std::make_unique<ZkCoordClient>(api, IsExtensible(options_.system)));
      continue;
    }
    DsApi* api = nullptr;
    if (sharded) {
      ds_routers_.push_back(std::make_unique<DsShardRouter>(&loop_, net_.get(), node, shard_map_,
                                                            source, options_.ds_client));
      api = ds_routers_.back().get();
    } else {
      api = AddDsClient(group, options_.ds_client);
    }
    coords_.push_back(std::make_unique<DsCoordClient>(&loop_, api));
  }
  loop_.RunUntil(loop_.now() + (zk ? Seconds(2) : Millis(500)));
  assert((!zk || connected == options_.num_clients) && "zk clients failed to connect");
  (void)connected;
}

ZkClient* CoordFixture::AddZkClient(ServerList servers, const ZkClientOptions& options) {
  NodeId node = 100 + static_cast<NodeId>(zk_clients_.size());
  zk_clients_.push_back(std::make_unique<ZkClient>(
      &loop_, net_.get(), node, ShardView::Standalone(std::move(servers)), options));
  return zk_clients_.back().get();
}

DsClient* CoordFixture::AddDsClient(ServerList servers, const DsClientOptions& options) {
  NodeId node = 100 + static_cast<NodeId>(ds_clients_.size());
  ds_clients_.push_back(std::make_unique<DsClient>(
      &loop_, net_.get(), node, ShardView::Standalone(std::move(servers)), options));
  return ds_clients_.back().get();
}

ZkServer* CoordFixture::BootZkReplica(NodeId id, std::vector<NodeId> members,
                                      const ZkServerOptions& options) {
  return AddReplica(std::make_unique<ZkServer>(&loop_, net_.get(), id, std::move(members),
                                               options_.costs, options, log_pool_),
                    zk_servers, zk_managers_);
}

void CoordFixture::BootShard(size_t s) {
  const bool zk = IsZkFamily(options_.system);
  NodeId base = static_cast<NodeId>(1 + 10 * s);
  std::vector<NodeId> members;
  for (NodeId id = base; id < base + (zk ? 3 : 4); ++id) {
    members.push_back(id);
  }
  // Build the whole group first, then start it in member order: the order of
  // the Start() calls sets the schedule.
  if (zk) {
    size_t first = zk_servers.size();
    for (NodeId id : members) {
      BootZkReplica(id, members, options_.zk_server);
    }
    for (size_t i = first; i < zk_servers.size(); ++i) {
      zk_servers[i]->Start();
    }
  } else {
    size_t first = ds_servers.size();
    for (NodeId id : members) {
      AddReplica(std::make_unique<DsServer>(&loop_, net_.get(), id, members, options_.costs,
                                            options_.ds_server),
                 ds_servers, ds_managers_);
    }
    for (size_t i = first; i < ds_servers.size(); ++i) {
      ds_servers[i]->Start();
    }
    if (options_.num_shards > 1) {
      // Per-shard admin client for the ordered kSetMapVersion op; version 0
      // in its own view so it is never rejected as stale itself.
      ds_admins_.push_back(std::make_unique<DsClient>(
          &loop_, net_.get(), static_cast<NodeId>(70000 + s),
          ShardView::Standalone(ServerList{members}), options_.ds_client));
    }
  }
  shard_map_.AddShard(static_cast<uint32_t>(s), ServerList{std::move(members)});
}

void CoordFixture::PushShardVersions() {
  uint64_t version = shard_map_.version();
  // ZK: admission-level configuration, set directly on every replica.
  for (auto& server : zk_servers) {
    server->SetShardInfo(ServerShardOf(server->id()), version);
  }
  // DepSpace: replicated state — an ordered admin op per shard so all
  // replicas of a group flip at the same execution point.
  for (auto& admin : ds_admins_) {
    DsOp op;
    op.type = DsOpType::kSetMapVersion;
    op.map_version = version;
    admin->Call(std::move(op), [](Result<DsReply>) {});
  }
  if (!ds_admins_.empty()) {
    loop_.RunUntil(loop_.now() + Millis(500));
  }
}

void CoordFixture::AddShard() {
  assert(options_.num_shards > 1 && "AddShard requires a sharded fixture");
  BootShard(shard_map_.size());
  options_.num_shards = shard_map_.size();
  PushShardVersions();
}

std::vector<NodeId> CoordFixture::CurrentZkVoters() const {
  // Prefer a running voter's view (authoritative for the active quorum);
  // fall back to any running replica (e.g. only observers are left).
  for (const auto& server : zk_servers) {
    if (server->running() && server->zab().is_voter()) {
      return server->zab().membership().voters;
    }
  }
  for (const auto& server : zk_servers) {
    if (server->running()) {
      return server->zab().membership().voters;
    }
  }
  return {};
}

ZkServer* CoordFixture::ZkServerById(NodeId id) {
  for (const auto& server : zk_servers) {
    if (server->id() == id) {
      return server.get();
    }
  }
  return nullptr;
}

ZkServer* CoordFixture::BootExtraZkReplica(NodeId id) {
  assert(IsZkFamily(options_.system) && options_.num_shards == 1 &&
         "BootExtraZkReplica: single-ensemble ZK fixtures only");
  ZkServerOptions opts = options_.zk_server;
  opts.zab.observer = true;
  ZkServer* server = BootZkReplica(id, CurrentZkVoters(), opts);
  faults_->Note("boot-observer " + std::to_string(id));
  server->Start();
  return server;
}

ZkClient* CoordFixture::AdminZk() {
  if (admin_zk_) {
    return admin_zk_.get();
  }
  std::vector<NodeId> voters = CurrentZkVoters();
  if (voters.empty()) {
    return nullptr;
  }
  admin_zk_ = std::make_unique<ZkClient>(&loop_, net_.get(), 90001,
                                         ShardView::Standalone(ServerList{std::move(voters)}),
                                         options_.zk_client);
  bool done = false;
  admin_zk_->Connect([&done](Status) { done = true; });
  SimTime deadline = loop_.now() + Seconds(5);
  while (!done && loop_.now() < deadline) {
    loop_.RunUntil(loop_.now() + Millis(1));  // fine slices: don't quantize timings
  }
  return admin_zk_.get();
}

Status CoordFixture::AdminReconfig(const std::string& spec, Duration timeout) {
  ZkClient* admin = AdminZk();
  if (admin == nullptr) {
    return Status(ErrorCode::kConnectionLoss, "no admin session (no running replica)");
  }
  bool done = false;
  Status out;
  admin->Reconfig(spec, [&done, &out](Status s) {
    done = true;
    out = s;
  });
  SimTime deadline = loop_.now() + timeout;
  while (!done && loop_.now() < deadline) {
    loop_.RunUntil(loop_.now() + Millis(1));  // fine slices: don't quantize timings
  }
  if (!done) {
    return Status(ErrorCode::kTimeout, "reconfig reply timed out: " + spec);
  }
  faults_->Note("reconfig '" + spec + "' -> " + (out.ok() ? "ok" : out.message()));
  return out;
}

Status CoordFixture::JoinReplica(NodeId id, Duration timeout) {
  SimTime deadline = loop_.now() + timeout;
  if (ZkServerById(id) == nullptr) {
    BootExtraZkReplica(id);
  }
  // Register the joiner as an observer first so it starts receiving the
  // commit stream; retry while an earlier reconfig is still in flight.
  Status s;
  do {
    s = AdminReconfig("add_observer " + std::to_string(id));
    if (!s.ok() && s.code() != ErrorCode::kNotReady) {
      return s;
    }
    if (!s.ok()) {
      Settle(Millis(200));
    }
  } while (!s.ok() && loop_.now() < deadline);
  if (!s.ok()) {
    return Status(ErrorCode::kTimeout, "add_observer never accepted");
  }
  // Catch-up happens via snapshot-ship + log suffix; the leader rejects the
  // promotion (kNotReady) while the joiner still lags the commit frontier by
  // more than promote_lag, so retry until it lands or we time out.
  while (loop_.now() < deadline) {
    Settle(Millis(200));
    s = AdminReconfig("promote " + std::to_string(id));
    if (s.ok()) {
      return Status::Ok();
    }
    if (s.code() != ErrorCode::kNotReady && s.code() != ErrorCode::kTimeout &&
        s.code() != ErrorCode::kConnectionLoss) {
      return s;
    }
  }
  return Status(ErrorCode::kTimeout, "joiner " + std::to_string(id) + " never promoted");
}

Status CoordFixture::RemoveReplica(NodeId id, Duration timeout) {
  SimTime deadline = loop_.now() + timeout;
  Status s;
  do {
    s = AdminReconfig("remove " + std::to_string(id));
    if (s.ok()) {
      return Status::Ok();
    }
    if (s.code() != ErrorCode::kNotReady && s.code() != ErrorCode::kTimeout &&
        s.code() != ErrorCode::kConnectionLoss) {
      return s;
    }
    Settle(Millis(200));
  } while (loop_.now() < deadline);
  return Status(ErrorCode::kTimeout, "remove " + std::to_string(id) + " never accepted");
}

std::vector<ZkServer*> CoordFixture::ZkShardServers(uint32_t shard) const {
  std::vector<ZkServer*> out;
  for (const auto& server : zk_servers) {
    if (ServerShardOf(server->id()) == shard) {
      out.push_back(server.get());
    }
  }
  return out;
}

std::vector<DsServer*> CoordFixture::DsShardServers(uint32_t shard) const {
  std::vector<DsServer*> out;
  for (const auto& server : ds_servers) {
    if (ServerShardOf(server->id()) == shard) {
      out.push_back(server.get());
    }
  }
  return out;
}

int64_t CoordFixture::ClientBytesSent() const {
  int64_t total = 0;
  if (options_.num_shards > 1) {
    for (const auto& router : zk_routers_) {
      for (NodeId id : router->sub_client_ids()) {
        total += net_->StatsFor(id).bytes_sent;
      }
    }
    for (const auto& router : ds_routers_) {
      for (NodeId id : router->sub_client_ids()) {
        total += net_->StatsFor(id).bytes_sent;
      }
    }
    return total;
  }
  for (size_t i = 0; i < coords_.size(); ++i) {
    total += net_->StatsFor(client_node(i)).bytes_sent;
  }
  return total;
}

bool CoordFixture::CheckEdsInvariants(std::string* why) const {
  // Each shard orders an independent history; digests are only comparable
  // within one replica group.
  for (const ShardEntry& entry : shard_map_.entries()) {
    std::vector<DsServer*> group = DsShardServers(entry.shard_id);
    if (!EdsDigestsMatch(group, why) || !EdsLogBounded(group, why)) {
      return false;
    }
  }
  return true;
}

}  // namespace edc
