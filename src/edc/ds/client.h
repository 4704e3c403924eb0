// Client library for the DepSpace-like service.
//
// Requests are multicast to all 3f+1 replicas (this is why a DepSpace client
// sends ~4x the bytes a ZooKeeper client sends per operation — the paper's
// Fig. 8/10 measure exactly that); a result is accepted once f+1 replicas
// returned byte-identical replies. Lease tuples created through OutLease are
// renewed automatically until ReleaseLease — stopping renewal (client crash)
// makes them expire server-side, which is the failure-detection primitive
// the leader-election recipe builds on.

#ifndef EDC_DS_CLIENT_H_
#define EDC_DS_CLIENT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "edc/bft/messages.h"
#include "edc/common/client_api.h"
#include "edc/common/rng.h"
#include "edc/common/shard_map.h"
#include "edc/ds/api.h"
#include "edc/ds/types.h"
#include "edc/obs/obs.h"
#include "edc/sim/event_loop.h"
#include "edc/sim/network.h"

namespace edc {

// A client accepts a result once f + 1 replicas sent the same reply, with f
// the ensemble's BftFaultThreshold.
struct DsClientOptions {
  Duration lease = Seconds(2);
  Duration renew_interval = Millis(500);
  // Retransmit policy: initial_backoff is the first retransmit delay (loss
  // and primary failover are covered by retrying, replicas deduplicate),
  // doubling up to max_backoff; max_attempts > 0 gives up with
  // kConnectionLoss after that many retransmits.
  ReconnectOptions reconnect{Seconds(1), Seconds(8), 0};
};

// Observation hooks for the model-conformance checker (src/edc/check): every
// operation submitted and every result delivered to a callback (vote
// completion or retransmit exhaustion). Unset members cost nothing.
struct DsClientObserver {
  std::function<void(uint64_t req_id, const DsOp& op)> on_call;
  std::function<void(uint64_t req_id, const Result<DsReply>& result)> on_reply;
};

class DsClient : public NetworkNode, public DsApi {
 public:
  // A ShardView names the replica ensemble to multicast to plus the
  // shard-map version to stamp on every operation
  // (ShardView::Standalone(ServerList{...}) for unsharded deployments).
  DsClient(EventLoop* loop, Network* net, NodeId id, ShardView view,
           DsClientOptions options);

  DsClient(const DsClient&) = delete;
  DsClient& operator=(const DsClient&) = delete;

  void Call(DsOp op, ReplyCb done) override;
  void OutLease(DsTuple tuple, ReplyCb done) override;
  void ReleaseLease(const DsTemplate& templ) override;
  void EnableAutoRenewAll() override;
  void RegisterExtension(const std::string& name, const std::string& code,
                         ReplyCb done) override;
  void DeregisterExtension(const std::string& name, ReplyCb done) override;
  void AcknowledgeExtension(const std::string& name, ReplyCb done) override;

  // Simulate process death: stop renewing leases and drop pending calls.
  void Kill();

  // History observation (conformance checking); pass {} to detach.
  void SetHistoryObserver(DsClientObserver observer) { observer_ = std::move(observer); }

  NodeId id() const override { return id_; }
  size_t outstanding() const { return calls_.size(); }

  // Map-version protocol (docs/sharding.md): the version stamped on every
  // outgoing operation; raised by the router after a map refresh.
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
  struct PendingCall {
    DsOp op;
    ReplyCb done;
    std::map<std::string, size_t> votes;  // encoded reply -> count
    int attempts = 0;
    Duration backoff = 0;  // next retransmit delay
    TimerId retry_timer = kInvalidTimer;  // cancelled once the reply vote completes
  };

  void Transmit(uint64_t req_id);
  void ArmRetry(uint64_t req_id);
  void RenewTick();

  EventLoop* loop_;
  Network* net_;
  NodeId id_;
  ServerList replicas_;
  size_t f_;  // faulty replicas tolerated; f_ + 1 matching replies decide
  uint32_t shard_id_ = 0;
  uint64_t map_version_ = 0;
  DsClientOptions options_;

  uint64_t next_req_ = 0;
  std::map<uint64_t, PendingCall> calls_;
  DsClientObserver observer_;
  std::vector<DsTemplate> leases_;
  Rng jitter_rng_;  // private backoff-jitter stream (seeded per client)
  bool alive_ = true;
  bool auto_renew_all_ = false;
  TimerId renew_timer_ = kInvalidTimer;
  // Observability (the loop's Obs, while it is on): retransmit / give-up
  // counters.
  Counter* m_retransmits_;
  Counter* m_give_ups_;
};

}  // namespace edc

#endif  // EDC_DS_CLIENT_H_
