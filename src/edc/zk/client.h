// Asynchronous client library for the ZooKeeper-like service.
//
// One client object = one session against one replica at a time, drawn from
// the ensemble of the ShardView it was constructed with (common/shard_map.h;
// ShardView::Standalone wraps a plain ServerList for unsharded deployments).
// All calls are callback-based (the
// simulator is a single event loop). The client detects replica failure by
// silence — no reply within the session timeout — fails outstanding calls
// with kConnectionLoss, and reconnects to the next replica in the list with
// exponential backoff. Watches and the old session do not survive failover;
// the application observes SessionEvents and re-arms what it needs.
//
// The EZK extension conveniences follow §5.1.2: registration and
// deregistration map to plain create/delete operations on the extension
// manager's /em subtree — the coordination kernel itself is unchanged.

#ifndef EDC_ZK_CLIENT_H_
#define EDC_ZK_CLIENT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "edc/common/client_api.h"
#include "edc/common/rng.h"
#include "edc/common/shard_map.h"
#include "edc/obs/obs.h"
#include "edc/sim/event_loop.h"
#include "edc/sim/network.h"
#include "edc/zk/api.h"
#include "edc/zk/types.h"

namespace edc {

struct ZkClientOptions {
  Duration session_timeout = Seconds(5);
  Duration ping_interval = Seconds(1);
  ReconnectOptions reconnect;
};

// Observation hooks for the model-conformance checker (src/edc/check): every
// request sent, every reply delivered to a callback (synthetic = generated
// client-side on connection loss / session expiry, not received off the
// wire), and every watch event. Unset members cost nothing.
struct ZkClientObserver {
  std::function<void(uint64_t session, uint64_t req_id, const ZkOp& op)> on_call;
  std::function<void(uint64_t req_id, const ZkReplyMsg& reply, bool synthetic)> on_reply;
  std::function<void(uint64_t session, const ZkWatchEventMsg& event)> on_watch;
};

class ZkClient : public NetworkNode, public ZkApi {
 public:
  // Delay before re-sending a connect the server refused (e.g. no leader yet).
  static constexpr Duration kConnectRetry = Millis(200);

  ZkClient(EventLoop* loop, Network* net, NodeId id, ShardView view,
           ZkClientOptions options);

  ZkClient(const ZkClient&) = delete;
  ZkClient& operator=(const ZkClient&) = delete;

  void Connect(VoidCb done) override;
  void Close(VoidCb done) override;
  void Submit(ZkOp op, ReplyCb done) override;

  // Administrative ensemble reconfiguration (docs/reconfig.md): a
  // single-change spec such as "add_observer 4", "promote 4" or "remove 2".
  // Completes when the change has committed and activated cluster-wide (the
  // reply is sent at activation); the membership push that accompanies it
  // refreshes this client's failover list.
  void Reconfig(const std::string& spec, VoidCb done);

  // EZK conveniences (§5.1.2).
  void RegisterExtension(const std::string& name, const std::string& code,
                         VoidCb done) override;
  void DeregisterExtension(const std::string& name, VoidCb done) override;
  void AcknowledgeExtension(const std::string& name, VoidCb done) override;

  // Watch notifications for this session (one handler; recipes demultiplex).
  void SetWatchHandler(WatchCb handler) override { watch_handler_ = std::move(handler); }
  // Session lifecycle notifications (failover, expiry, reconnect).
  void SetSessionEventHandler(SessionEventCb handler) override {
    session_cb_ = std::move(handler);
  }
  // History observation (conformance checking); pass {} to detach.
  void SetObserver(ZkClientObserver observer) { observer_ = std::move(observer); }
  // Observability (nullable): failover / reconnect-attempt / session-expiry
  // counters in the shared registry.
  void SetObs(Obs* obs);

  bool connected() const override { return session_ != 0; }
  uint64_t session() const override { return session_; }
  NodeId id() const override { return id_; }
  NodeId current_server() const { return server_; }
  // The failover list this client currently rotates over. Seeded at
  // construction; refreshed by kMembershipEvent pushes when the ensemble
  // reconfigures (historically it was fixed for the client's lifetime, so
  // failover could target removed replicas forever).
  const ServerList& servers() const { return servers_; }
  uint64_t membership_version() const { return membership_version_; }

  // Map-version protocol (docs/sharding.md): the version stamped on every
  // outgoing request. The router raises it after a map refresh; servers
  // reject anything older than their expected version with kShardMapStale.
  uint64_t map_version() const { return map_version_; }
  void set_map_version(uint64_t v) {
    if (v > map_version_) {
      map_version_ = v;
    }
  }
  uint32_t shard_id() const { return shard_id_; }

  // NetworkNode.
  void HandlePacket(Packet&& pkt) override;

 private:
  void SendConnect();
  void SendPing();
  void OnConnectionLoss();
  void OnSessionExpired();
  // Fails every call in `calls` (pending_ or parked_) with `code`.
  void Fail(std::map<uint64_t, ReplyCb>* calls, ErrorCode code);
  // Moves pending calls aside on connection loss; their fate (kConnectionLoss
  // vs kSessionExpired) is decided when the reconnect lands and the replica
  // reports whether the old session still exists.
  void ParkPending();
  void ScheduleReconnect();
  void Emit(SessionEvent event);

  EventLoop* loop_;
  Network* net_;
  NodeId id_;
  ServerList servers_;
  uint32_t shard_id_ = 0;
  uint64_t map_version_ = 0;
  uint64_t membership_version_ = 0;  // zxid of the newest membership push
  size_t server_idx_ = 0;
  NodeId server_ = 0;  // replica currently connected / being tried
  ZkClientOptions options_;

  uint64_t session_ = 0;
  uint64_t lost_session_ = 0;  // session held before the current reconnect
  uint64_t next_req_ = 0;
  VoidCb connect_cb_;
  std::map<uint64_t, ReplyCb> pending_;
  std::map<uint64_t, ReplyCb> parked_;  // pending at connection loss, fate TBD
  WatchCb watch_handler_;
  SessionEventCb session_cb_;
  ZkClientObserver observer_;
  SimTime last_rx_ = 0;       // last packet received from the current replica
  Duration backoff_ = 0;      // current reconnect backoff
  Rng jitter_rng_;            // private backoff-jitter stream (seeded per client)
  int reconnect_attempts_ = 0;
  bool ever_connected_ = false;
  TimerId ping_timer_ = kInvalidTimer;
  TimerId reconnect_timer_ = kInvalidTimer;
  bool closing_ = false;
  Obs* obs_ = nullptr;
  Counter* m_failovers_ = nullptr;
  Counter* m_reconnects_ = nullptr;
  Counter* m_expired_ = nullptr;
};

}  // namespace edc

#endif  // EDC_ZK_CLIENT_H_
