// Simulated switched network.
//
// Nodes register under a NodeId and receive packets via HandlePacket. Each
// (src, dst) pair behaves like a TCP connection: FIFO delivery, latency +
// jitter and serialization delay from the network-wide LinkParams, and
// optional per-link faults: drops (which break FIFO like a connection reset
// would; protocols that need reliability must retransmit), duplicates and
// extra delay. Crashed nodes and partitioned pairs silently discard traffic.
//
// The network charges every packet a fixed per-frame overhead
// (kFrameOverheadBytes, Ethernet+IP+TCP headers) on top of the encoded
// payload and keeps per-node byte counters; the paper's "KB sent per
// operation" series (Fig. 8/10) read these counters.

#ifndef EDC_SIM_NETWORK_H_
#define EDC_SIM_NETWORK_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "edc/common/rng.h"
#include "edc/obs/obs.h"
#include "edc/sim/event_loop.h"
#include "edc/sim/time.h"

namespace edc {

using NodeId = uint32_t;

struct Packet {
  NodeId src = 0;
  NodeId dst = 0;
  uint32_t type = 0;
  std::vector<uint8_t> payload;
};

// Ethernet + IPv4 + TCP headers, the per-frame cost a real deployment pays.
constexpr size_t kFrameOverheadBytes = 66;

inline size_t WireSize(const Packet& pkt) { return pkt.payload.size() + kFrameOverheadBytes; }

class NetworkNode {
 public:
  virtual ~NetworkNode() = default;
  virtual void HandlePacket(Packet&& pkt) = 0;
};

// Network-wide link defaults: every directed link shares them.
struct LinkParams {
  Duration latency = Micros(100);     // one-way propagation
  Duration jitter = Micros(20);       // uniform [0, jitter)
  double bandwidth_bps = 1e9;         // bits per second
};

// Fault knobs of one directed link, applied on top of LinkParams (see
// sim/faults.h). A knob at zero draws nothing from the network's Rng.
struct LinkFaults {
  double drop_probability = 0.0;
  // Probability that a delivered packet arrives twice.
  double duplicate_probability = 0.0;
  // Fixed delay added on top of latency + jitter.
  Duration extra_delay = 0;
};

struct NodeNetStats {
  int64_t packets_sent = 0;
  int64_t bytes_sent = 0;
  int64_t packets_received = 0;
  int64_t bytes_received = 0;
};

class Network {
 public:
  Network(EventLoop* loop, Rng rng, LinkParams defaults);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  void Register(NodeId id, NetworkNode* node);
  void Unregister(NodeId id);

  // Installs `faults` on both directions between a and b; LinkFaults{}
  // clears them.
  void SetLinkFaults(NodeId a, NodeId b, const LinkFaults& faults);

  // Partition control (bidirectional). Cuts nest: a pair disconnected twice
  // stays cut until it is reconnected twice, or until every cut is healed.
  void Disconnect(NodeId a, NodeId b);
  void Reconnect(NodeId a, NodeId b);
  void HealAllPartitions();

  // Observer invoked for every packet actually handed to a node (after
  // drops, partitions and crashes are resolved). The fault-injection layer
  // uses it to build the replayable event trace a determinism check
  // compares across same-seed runs.
  using DeliverySink = std::function<void(SimTime at, const Packet& pkt)>;
  void SetDeliverySink(DeliverySink sink) { delivery_sink_ = std::move(sink); }

  // A down node neither sends nor receives; packets in flight to it at the
  // time it goes down are lost on arrival.
  void SetNodeUp(NodeId id, bool up);
  bool IsNodeUp(NodeId id) const;

  // Queues `pkt` for delivery. Loss, partitions and down nodes are resolved
  // at send/arrival time.
  void Send(Packet pkt);

  NodeNetStats StatsFor(NodeId id) const {
    auto it = nodes_.find(id);
    return it == nodes_.end() ? NodeNetStats{} : it->second.stats;
  }
  void ResetStats();
  int64_t total_bytes_sent() const { return total_bytes_sent_; }

  // Observability (the loop's Obs, while it is on). Counters
  // net.{packets,bytes,drops,dups} are bumped live; per-directed-link totals
  // accumulate internally and are published as gauges by DumpLinkMetrics.
  // Packets in flight get a kNetwork span under the sender's current trace
  // context. Pure recording: no events scheduled, no extra randomness drawn.
  void DumpLinkMetrics(MetricsRegistry* metrics) const;

 private:
  struct LinkObsStats {
    int64_t packets = 0;
    int64_t bytes = 0;
    int64_t drops = 0;
    int64_t dups = 0;
  };
  // One directed link src -> dst.
  struct Link {
    LinkFaults faults;
    int cuts = 0;            // live Disconnects; while > 0 traffic is discarded
    SimTime fifo_floor = 0;  // latest arrival scheduled on the connection
    LinkObsStats obs;        // totals for DumpLinkMetrics (observability on)
  };
  // A node has a record once it is registered or toggled; a node without
  // one is down. Unregistering drops the handler and marks the node down but
  // keeps its byte counters.
  struct Node {
    NetworkNode* handler = nullptr;
    bool up = false;
    NodeNetStats stats;
  };

  // A node going away (crash or unregister) tears down its connections; the
  // FIFO floors die with them, while the links' faults and cuts stay.
  // Without this, a restarted node's first packets inherit the pre-crash
  // ordering floor and arrive late.
  void ClearFifoFloors(NodeId id);

  EventLoop* loop_;
  Rng rng_;
  LinkParams defaults_;
  std::unordered_map<NodeId, Node> nodes_;
  std::unordered_map<uint64_t, Link> links_;  // keyed by src << 32 | dst
  int64_t total_bytes_sent_ = 0;
  DeliverySink delivery_sink_;
  Counter* m_packets_;
  Counter* m_bytes_;
  Counter* m_drops_;
  Counter* m_dups_;
};

}  // namespace edc

#endif  // EDC_SIM_NETWORK_H_
