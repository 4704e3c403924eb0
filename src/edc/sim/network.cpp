#include "edc/sim/network.h"

#include <algorithm>
#include <string>
#include <utility>

#include "edc/common/logging.h"

namespace edc {

namespace {

uint64_t LinkKey(NodeId src, NodeId dst) { return static_cast<uint64_t>(src) << 32 | dst; }

}  // namespace

Network::Network(EventLoop* loop, Rng rng, LinkParams defaults)
    : loop_(loop),
      rng_(rng),
      defaults_(defaults),
      m_packets_(loop->obs().metrics.GetCounter("net.packets")),
      m_bytes_(loop->obs().metrics.GetCounter("net.bytes")),
      m_drops_(loop->obs().metrics.GetCounter("net.drops")),
      m_dups_(loop->obs().metrics.GetCounter("net.dups")) {}

void Network::Register(NodeId id, NetworkNode* node) {
  Node& n = nodes_[id];
  n.handler = node;
  n.up = true;
}

void Network::Unregister(NodeId id) {
  auto it = nodes_.find(id);
  if (it != nodes_.end()) {
    it->second.handler = nullptr;
    it->second.up = false;
  }
  ClearFifoFloors(id);
}

void Network::ClearFifoFloors(NodeId id) {
  for (auto& [key, link] : links_) {
    if (key >> 32 == id || static_cast<NodeId>(key) == id) {
      link.fifo_floor = 0;
    }
  }
}

void Network::DumpLinkMetrics(MetricsRegistry* metrics) const {
  for (const auto& [key, link] : links_) {
    const LinkObsStats& stats = link.obs;
    if (stats.packets == 0) {
      continue;  // the link only holds faults, cuts or a floor
    }
    std::string prefix = "net.link." + std::to_string(key >> 32) + "->" +
                         std::to_string(static_cast<NodeId>(key));
    metrics->SetGauge(prefix + ".packets", stats.packets);
    metrics->SetGauge(prefix + ".bytes", stats.bytes);
    if (stats.drops > 0) {
      metrics->SetGauge(prefix + ".drops", stats.drops);
    }
    if (stats.dups > 0) {
      metrics->SetGauge(prefix + ".dups", stats.dups);
    }
  }
}

void Network::SetLinkFaults(NodeId a, NodeId b, const LinkFaults& faults) {
  links_[LinkKey(a, b)].faults = faults;
  links_[LinkKey(b, a)].faults = faults;
}

void Network::Disconnect(NodeId a, NodeId b) {
  ++links_[LinkKey(a, b)].cuts;
  ++links_[LinkKey(b, a)].cuts;
}

void Network::Reconnect(NodeId a, NodeId b) {
  for (uint64_t key : {LinkKey(a, b), LinkKey(b, a)}) {
    auto it = links_.find(key);
    if (it != links_.end() && it->second.cuts > 0) {
      --it->second.cuts;
    }
  }
}

void Network::HealAllPartitions() {
  for (auto& [key, link] : links_) {
    link.cuts = 0;
  }
}

void Network::SetNodeUp(NodeId id, bool up) {
  nodes_[id].up = up;
  if (!up) {
    // A crash resets every connection the node participated in; the FIFO
    // floors belong to those dead connections, not to the reincarnation.
    ClearFifoFloors(id);
  }
}

bool Network::IsNodeUp(NodeId id) const {
  auto it = nodes_.find(id);
  return it != nodes_.end() && it->second.up;
}

void Network::ResetStats() {
  for (auto& [id, node] : nodes_) {
    node.stats = NodeNetStats{};
  }
}

void Network::Send(Packet pkt) {
  auto src = nodes_.find(pkt.src);
  if (src == nodes_.end() || !src->second.up) {
    return;  // a crashed node produces no traffic
  }
  const size_t wire = WireSize(pkt);
  NodeNetStats& src_stats = src->second.stats;
  src_stats.packets_sent += 1;
  src_stats.bytes_sent += static_cast<int64_t>(wire);
  total_bytes_sent_ += static_cast<int64_t>(wire);
  Link& link = links_[LinkKey(pkt.src, pkt.dst)];
  Obs& obs = loop_->obs();
  if (obs.enabled()) {
    m_packets_->Increment();
    m_bytes_->Add(static_cast<int64_t>(wire));
    link.obs.packets += 1;
    link.obs.bytes += static_cast<int64_t>(wire);
  }

  if (link.cuts > 0) {
    return;
  }
  const LinkFaults& faults = link.faults;
  if (faults.drop_probability > 0.0 && rng_.NextDouble() < faults.drop_probability) {
    EDC_LOG(kDebug) << "drop " << pkt.src << "->" << pkt.dst << " type=" << pkt.type;
    if (obs.enabled()) {
      m_drops_->Increment();
      link.obs.drops += 1;
    }
    return;
  }

  Duration jitter = defaults_.jitter > 0
                        ? static_cast<Duration>(
                              rng_.UniformU64(static_cast<uint64_t>(defaults_.jitter)))
                        : 0;
  Duration serialization =
      static_cast<Duration>(static_cast<double>(wire) * 8.0 / defaults_.bandwidth_bps * 1e9);
  SimTime arrival =
      loop_->now() + defaults_.latency + jitter + serialization + faults.extra_delay;

  // Fault injection: a duplicated packet arrives twice (one extra copy, the
  // TCP-reset-and-retransmit shape), still respecting per-connection FIFO.
  int copies = 1;
  if (faults.duplicate_probability > 0.0 &&
      rng_.NextDouble() < faults.duplicate_probability) {
    copies = 2;
    if (obs.enabled()) {
      m_dups_->Increment();
      link.obs.dups += 1;
    }
  }

  for (int copy = 0; copy < copies; ++copy) {
    // Enforce per-connection FIFO: never deliver before an earlier packet on
    // the same (src, dst) pair.
    arrival = std::max(arrival, link.fifo_floor + 1);
    link.fifo_floor = arrival;

    // The arrival instant is fully determined here, so the in-flight span can
    // be recorded fully formed — no extra event needed.
    if (obs.enabled()) {
      obs.tracer.RecordSpanIn(obs.tracer.current(), "net.pkt", Stage::kNetwork, pkt.dst,
                              loop_->now(), arrival);
    }

    NodeId dst = pkt.dst;
    Packet p = copy + 1 < copies ? pkt : std::move(pkt);
    loop_->ScheduleAt(arrival, [this, p = std::move(p), dst]() mutable {
      auto it = nodes_.find(dst);
      if (it == nodes_.end() || !it->second.up || it->second.handler == nullptr) {
        return;
      }
      NodeNetStats& dst_stats = it->second.stats;
      dst_stats.packets_received += 1;
      dst_stats.bytes_received += static_cast<int64_t>(WireSize(p));
      if (delivery_sink_) {
        delivery_sink_(loop_->now(), p);
      }
      it->second.handler->HandlePacket(std::move(p));
    });
  }
}

}  // namespace edc
