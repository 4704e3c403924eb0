// Client-side shard routing for the coordination plane (docs/sharding.md).
//
// A router implements the same abstract client surface as a plain client
// (ZkApi / DsApi) but owns one lazily created sub-client per shard of a
// ShardMap. Each router routes in one function, its family's request entry
// point (ZkShardRouter::Submit, DsShardRouter::Call): the op's CoordKey
// picks the shard on the consistent-hash ring and the op is forwarded to
// that shard's sub-client unchanged, so recipes written against the API run
// on a sharded deployment without edits.
//
// Map refresh: sub-clients stamp the router's map version on every request.
// When a replica that has been told a newer version rejects with
// kShardMapStale, the router pulls a fresh map from its ShardMapSource,
// raises every sub-client's stamp, re-routes the op (possibly to a different,
// newly added shard) and retries — at most kStaleRetryLimit times, so a
// router whose source is itself behind surfaces the error instead of
// spinning.
//
// Cross-shard operations: ZK Multi spanning shards is rejected with
// kInvalidArgument (atomicity across shards is the TwoPhaseMulti recipe's
// job, recipes/two_phase.h); DS ops whose first template field is a wildcard
// cannot be routed — RdAll scatter-gathers across all shards, the
// single-tuple ops reject (a scattered Inp could consume one tuple per
// shard). Extension register/deregister/acknowledge fan out to every shard so
// an extension is callable wherever its trigger subtree lands.

#ifndef EDC_ROUTE_SHARD_ROUTER_H_
#define EDC_ROUTE_SHARD_ROUTER_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "edc/common/client_api.h"
#include "edc/common/shard_map.h"
#include "edc/ds/api.h"
#include "edc/ds/client.h"
#include "edc/sim/event_loop.h"
#include "edc/sim/network.h"
#include "edc/zk/api.h"
#include "edc/zk/client.h"

namespace edc {

// Pull-based map discovery: invoked on a stale rejection to fetch the current
// map (in the simulator this reads the harness's authoritative copy; a real
// deployment would ask a config service). May return a map no newer than the
// router's — the retry then only proceeds if some other path already raised
// the version.
using ShardMapSource = std::function<ShardMap()>;

// Refresh+retry rounds before a router surfaces kShardMapStale.
inline constexpr int kStaleRetryLimit = 3;
// Sub-client node id = base id + shard id: callers space router base ids at
// least this far apart and keep shard ids below it.
inline constexpr uint32_t kRouterIdStride = 64;

namespace route_internal {

inline bool IsStale(const ZkReplyMsg& r) { return r.code == ErrorCode::kShardMapStale; }
// A DS stale rejection is an ordered, executed reply — it arrives as a
// successful vote whose reply code is kShardMapStale.
inline bool IsStale(const Result<DsReply>& r) {
  return r.ok() ? r->code == ErrorCode::kShardMapStale
                : r.status().code() == ErrorCode::kShardMapStale;
}

// A failed fan-out leg: a transport error, or (DS) an error reply code.
inline bool Failed(const Status& s) { return !s.ok(); }
inline bool Failed(const Result<DsReply>& r) { return !r.ok() || r->code != ErrorCode::kOk; }

// Whether ops may go to a sub-client now: a ZK session must be up (ops wait
// for it), a DS client multicasts at once.
inline bool SessionUp(const ZkClient& c) { return c.connected(); }
inline bool SessionUp(const DsClient&) { return true; }

}  // namespace route_internal

// What both routers share: the map, the per-shard sub-clients, the stale-map
// refresh + retry, and the fan-out join. Each router adds only its family's
// sub-client setup and its routing rules.
template <typename Client, typename ClientOptions>
class ShardRouterCore {
 public:
  ShardRouterCore(const ShardRouterCore&) = delete;
  ShardRouterCore& operator=(const ShardRouterCore&) = delete;

  // Topology introspection (tests, harness, benches).
  size_t shard_count() const { return map_.size(); }
  uint64_t map_version() const { return map_.version(); }
  const ShardMap& map() const { return map_; }
  // The sub-client serving `shard_id`, or null if none was created yet.
  Client* shard_client(uint32_t shard_id) const {
    auto it = subs_.find(shard_id);
    return it == subs_.end() ? nullptr : it->second.client.get();
  }
  std::vector<NodeId> sub_client_ids() const {
    std::vector<NodeId> ids;
    ids.reserve(subs_.size());
    for (const auto& [shard_id, sub] : subs_) {
      ids.push_back(sub.client->id());
    }
    return ids;
  }
  int stale_refreshes() const { return stale_refreshes_; }

  // Invoked for every sub-client at creation (and immediately for existing
  // ones when set) — the conformance harness attaches per-shard observers
  // here. Runs before a ZK sub-client's Connect.
  void SetSubClientHook(std::function<void(uint32_t shard_id, Client*)> hook) {
    sub_hook_ = std::move(hook);
    if (!sub_hook_) {
      return;
    }
    for (auto& [shard_id, sub] : subs_) {
      sub_hook_(shard_id, sub.client.get());
    }
  }

 protected:
  struct Sub {
    std::unique_ptr<Client> client;
    bool ready = false;  // the first connect opened a session (ZK only)
    std::vector<std::function<void(Client*)>> waiting;
  };

  // `map` must be non-empty. `source` may be null (stale errors surface).
  ShardRouterCore(EventLoop* loop, Network* net, NodeId base_id, ShardMap map,
                  ShardMapSource source, ClientOptions options)
      : loop_(loop),
        net_(net),
        base_id_(base_id),
        map_(std::move(map)),
        source_(std::move(source)),
        options_(std::move(options)) {
    assert(!map_.empty() && "router needs at least one shard");
  }
  virtual ~ShardRouterCore() = default;

  // The family's setup of a sub-client just created for `shard_id`, after
  // the sub-client hook ran.
  virtual void OnNewSub(uint32_t shard_id, Client* client) = 0;

  Sub& EnsureSub(size_t entry_idx) {
    const ShardEntry& e = map_.entry(entry_idx);
    auto it = subs_.find(e.shard_id);
    if (it != subs_.end()) {
      return it->second;
    }
    ShardView view{e.shard_id, map_.version(), e.ensemble};
    // Spread the initial replica placement of a shard's many routers across
    // the ensemble instead of dog-piling replica 0.
    if (!view.ensemble.empty()) {
      view.ensemble.preferred = (base_id_ / kRouterIdStride + e.shard_id) % view.ensemble.size();
    }
    Sub& sub = subs_[e.shard_id];
    sub.client =
        std::make_unique<Client>(loop_, net_, base_id_ + e.shard_id, std::move(view), options_);
    if (sub_hook_) {
      sub_hook_(e.shard_id, sub.client.get());
    }
    OnNewSub(e.shard_id, sub.client.get());
    return sub;
  }

  // Runs `fn` on the sub-client for map entry `entry_idx` once it can take
  // ops (immediately if it already can).
  void WhenReady(size_t entry_idx, std::function<void(Client*)> fn) {
    Sub& sub = EnsureSub(entry_idx);
    if (sub.ready || route_internal::SessionUp(*sub.client)) {
      fn(sub.client.get());
      return;
    }
    sub.waiting.push_back(std::move(fn));
  }

  // Marks the sub-client of `shard_id` ready (or not) and runs the ops that
  // waited for it, in order. Runs them even when not ready: they then fail
  // through the sub-client with an honest error instead of hanging forever.
  void Flush(uint32_t shard_id, bool ready) {
    Sub& s = subs_[shard_id];
    s.ready = ready;
    std::vector<std::function<void(Client*)>> waiting;
    waiting.swap(s.waiting);
    for (auto& fn : waiting) {
      fn(s.client.get());
    }
  }

  bool RefreshMap() {
    if (!source_) {
      return false;
    }
    ShardMap fresh = source_();
    if (fresh.version() <= map_.version()) {
      return false;
    }
    map_ = std::move(fresh);
    ++stale_refreshes_;
    uint64_t version = map_.version();
    ForEachSub([version](Client* c) { c->set_map_version(version); });
    return true;
  }

  // The family's reply callback: a raw ZkReplyMsg, or a voted Result<DsReply>.
  using Reply = typename Client::ReplyCb;

  // Routes `issue` to the shard owning `key`; on a stale rejection, refreshes
  // the map and re-routes (the key may now land on a different shard).
  void Issue(const CoordKey& key, std::function<void(Client*, Reply)> issue, Reply done,
             int attempt = 0) {
    uint64_t issued = map_.version();
    WhenReady(map_.IndexFor(key), [this, key, issue, done, attempt, issued](Client* c) {
      issue(c, [this, key, issue, done, attempt, issued](auto&& r) {
        if (route_internal::IsStale(r) && attempt < kStaleRetryLimit &&
            (RefreshMap() || map_.version() > issued)) {
          Issue(key, issue, done, attempt + 1);
          return;
        }
        if (done) {
          done(std::forward<decltype(r)>(r));
        }
      });
    });
  }

  // Fans `issue` out to every shard in the current map; `done` fires once
  // after all legs returned, with the first failed leg or else the last one.
  template <typename R>
  void FanOut(std::function<void(Client*, std::function<void(R)>)> issue,
              std::function<void(R)> done) {
    struct Join {
      size_t remaining = 0;
      std::optional<R> outcome;
      bool failed = false;
    };
    auto join = std::make_shared<Join>();
    join->remaining = map_.size();
    for (size_t i = 0; i < map_.size(); ++i) {
      WhenReady(i, [issue, join, done](Client* c) {
        issue(c, [join, done](R r) {
          if (!join->failed) {
            join->failed = route_internal::Failed(r);
            join->outcome = std::move(r);
          }
          if (--join->remaining == 0 && done) {
            done(std::move(*join->outcome));
          }
        });
      });
    }
  }

  template <typename F>
  void ForEachSub(F fn) {
    for (auto& [shard_id, sub] : subs_) {
      fn(sub.client.get());
    }
  }

  EventLoop* loop_;
  Network* net_;
  NodeId base_id_;
  ShardMap map_;
  ShardMapSource source_;
  ClientOptions options_;  // applied to every sub-client
  std::map<uint32_t, Sub> subs_;  // by shard id; survives map refreshes
  std::function<void(uint32_t, Client*)> sub_hook_;
  int stale_refreshes_ = 0;
};

class ZkShardRouter : public ZkApi, public ShardRouterCore<ZkClient, ZkClientOptions> {
 public:
  ZkShardRouter(EventLoop* loop, Network* net, NodeId base_id, ShardMap map,
                ShardMapSource source, ZkClientOptions options);

  // ZkApi. Connect establishes the primary (entry 0) session — other shards'
  // sessions open on first use; ops issued before their shard is connected
  // queue and drain in order once it is.
  void Connect(VoidCb done) override;
  void Close(VoidCb done) override;
  // Routes by the op's path; a Multi by its sub-ops, which must all live on
  // one shard (an empty one is rejected too).
  void Submit(ZkOp op, ReplyCb done) override;
  void RegisterExtension(const std::string& name, const std::string& code,
                         VoidCb done) override;
  void DeregisterExtension(const std::string& name, VoidCb done) override;
  void AcknowledgeExtension(const std::string& name, VoidCb done) override;
  void SetWatchHandler(WatchCb handler) override;
  void SetSessionEventHandler(SessionEventCb handler) override;
  bool connected() const override;
  uint64_t session() const override;  // primary sub-session (entry 0)
  NodeId id() const override { return base_id_; }

  // Administrative ensemble reconfiguration of one shard (docs/reconfig.md):
  // pass-through to that shard's sub-client. The sub-client's failover list
  // refreshes from the membership push; the shard map itself (which replicas
  // make up the shard) is the map source's business, not the router's.
  void Reconfig(size_t entry_idx, const std::string& spec, VoidCb done);

 private:
  // Installs the handlers and opens the session; ops wait for it.
  void OnNewSub(uint32_t shard_id, ZkClient* client) override;

  WatchCb watch_handler_;
  SessionEventCb session_cb_;
};

class DsShardRouter : public DsApi, public ShardRouterCore<DsClient, DsClientOptions> {
 public:
  DsShardRouter(EventLoop* loop, Network* net, NodeId base_id, ShardMap map,
                ShardMapSource source, DsClientOptions options);

  // DsApi. Call routes by the op's first field: the tuple's for out, the
  // template's otherwise; cas and replace carry both, and the two must land
  // on one shard. A wildcard RdAll scatter-gathers; any other wildcard op is
  // rejected.
  void Call(DsOp op, ReplyCb done) override;
  // Routed like out; the sub-client that sent the lease renews it.
  void OutLease(DsTuple tuple, ReplyCb done) override;
  void ReleaseLease(const DsTemplate& templ) override;
  void EnableAutoRenewAll() override;
  void RegisterExtension(const std::string& name, const std::string& code,
                         ReplyCb done) override;
  void DeregisterExtension(const std::string& name, ReplyCb done) override;
  void AcknowledgeExtension(const std::string& name, ReplyCb done) override;
  NodeId id() const override { return base_id_; }

  // Routing keys (exposed for tests): a tuple routes by its first field, a
  // template by its first field when exact/prefix (wildcard = unroutable).
  static CoordKey KeyOf(const DsTuple& tuple);
  static CoordKey KeyOf(const DsTemplate& templ);

  void Kill();  // simulate process death across all sub-clients

 private:
  void OnNewSub(uint32_t shard_id, DsClient* client) override;
  // Issues on the shard owning `key`, or rejects when `key` is a wildcard.
  void Route(const CoordKey& key, std::function<void(DsClient*, ReplyCb)> issue, ReplyCb done);
  // A wildcard RdAll: every shard's matches, merged in shard-index order.
  void Gather(std::shared_ptr<const DsOp> op, ReplyCb done);

  bool auto_renew_all_ = false;
};

}  // namespace edc

#endif  // EDC_ROUTE_SHARD_ROUTER_H_
