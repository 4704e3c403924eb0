#include "edc/sim/faults.h"

#include <memory>
#include <sstream>
#include <utility>

#include "edc/common/hash.h"
#include "edc/common/logging.h"

namespace edc {

namespace {

void PrintGroup(std::ostream& os, const std::vector<NodeId>& group) {
  os << "{";
  for (size_t i = 0; i < group.size(); ++i) {
    os << (i ? "," : "") << group[i];
  }
  os << "}";
}

}  // namespace

std::string FaultPlan::ToString() const {
  if (episodes.empty()) {
    return "(no fault episodes)";
  }
  std::ostringstream os;
  for (const Episode& ep : episodes) {
    os << "  ";
    switch (ep.kind) {
      case EpisodeKind::kCrashRestart:
        os << "crash-restart node=" << ep.node;
        break;
      case EpisodeKind::kPartition:
        os << "partition ";
        PrintGroup(os, ep.group_a);
        os << "|";
        PrintGroup(os, ep.group_b);
        break;
      case EpisodeKind::kLinkFaults:
        os << "link-faults " << ep.node << "<->" << ep.peer
           << " drop=" << ep.faults.drop_probability
           << " dup=" << ep.faults.duplicate_probability
           << " delay=+" << DurationString(ep.faults.extra_delay);
        break;
    }
    os << " start=+" << DurationString(ep.start) << " dur=" << DurationString(ep.duration)
       << "\n";
  }
  return os.str();
}

void FaultInjector::RegisterProcess(NodeId id, std::function<void()> crash,
                                    std::function<void()> restart) {
  procs_[id] = Process{std::move(crash), std::move(restart)};
}

void FaultInjector::Crash(NodeId id) {
  Record("crash node=" + std::to_string(id) + " t=" + std::to_string(loop_->now()));
  auto it = procs_.find(id);
  if (it != procs_.end() && it->second.crash) {
    it->second.crash();
  } else {
    net_->SetNodeUp(id, false);
  }
}

void FaultInjector::Restart(NodeId id) {
  Record("restart node=" + std::to_string(id) + " t=" + std::to_string(loop_->now()));
  auto it = procs_.find(id);
  if (it != procs_.end() && it->second.restart) {
    it->second.restart();
  } else {
    net_->SetNodeUp(id, true);
  }
}

void FaultInjector::Partition(const std::vector<NodeId>& group_a,
                              const std::vector<NodeId>& group_b) {
  std::string line = "partition t=" + std::to_string(loop_->now()) + " a=[";
  for (NodeId n : group_a) {
    line += std::to_string(n) + ",";
  }
  line += "] b=[";
  for (NodeId n : group_b) {
    line += std::to_string(n) + ",";
  }
  line += "]";
  Record(line);
  for (NodeId a : group_a) {
    for (NodeId b : group_b) {
      net_->Disconnect(a, b);
    }
  }
}

void FaultInjector::Heal(const std::vector<NodeId>& group_a,
                         const std::vector<NodeId>& group_b) {
  Record("heal t=" + std::to_string(loop_->now()));
  for (NodeId a : group_a) {
    for (NodeId b : group_b) {
      net_->Reconnect(a, b);
    }
  }
}

void FaultInjector::Heal() {
  Record("heal t=" + std::to_string(loop_->now()));
  net_->HealAllPartitions();
}

void FaultInjector::SetLinkFaults(NodeId a, NodeId b, const LinkFaults& faults) {
  Record("link_faults t=" + std::to_string(loop_->now()) + " a=" + std::to_string(a) +
         " b=" + std::to_string(b) + " drop=" + std::to_string(faults.drop_probability) +
         " dup=" + std::to_string(faults.duplicate_probability) +
         " delay=" + std::to_string(faults.extra_delay));
  net_->SetLinkFaults(a, b, faults);
}

void FaultInjector::ClearLinkFaults(NodeId a, NodeId b) {
  Record("clear_link_faults t=" + std::to_string(loop_->now()) + " a=" + std::to_string(a) +
         " b=" + std::to_string(b));
  net_->SetLinkFaults(a, b, LinkFaults{});
}

void FaultInjector::Run(const FaultPlan& plan) {
  const SimTime base = loop_->now();
  for (const Episode& episode : plan.episodes) {
    auto ep = std::make_shared<const Episode>(episode);
    loop_->ScheduleAt(base + ep->start, [this, ep] { Apply(*ep, /*begin=*/true); });
    loop_->ScheduleAt(base + ep->start + ep->duration,
                      [this, ep] { Apply(*ep, /*begin=*/false); });
  }
}

void FaultInjector::Apply(const Episode& ep, bool begin) {
  switch (ep.kind) {
    case EpisodeKind::kCrashRestart:
      begin ? Crash(ep.node) : Restart(ep.node);
      break;
    case EpisodeKind::kPartition:
      begin ? Partition(ep.group_a, ep.group_b) : Heal(ep.group_a, ep.group_b);
      break;
    case EpisodeKind::kLinkFaults:
      begin ? SetLinkFaults(ep.node, ep.peer, ep.faults) : ClearLinkFaults(ep.node, ep.peer);
      break;
  }
}

void FaultInjector::EnablePacketTrace() {
  if (packet_trace_) {
    return;
  }
  packet_trace_ = true;
  net_->SetDeliverySink([this](SimTime at, const Packet& pkt) {
    uint64_t h = digest_;
    h = Fnv1a64(reinterpret_cast<const uint8_t*>(&at), sizeof(at), h);
    h = Fnv1a64(reinterpret_cast<const uint8_t*>(&pkt.src), sizeof(pkt.src), h);
    h = Fnv1a64(reinterpret_cast<const uint8_t*>(&pkt.dst), sizeof(pkt.dst), h);
    h = Fnv1a64(reinterpret_cast<const uint8_t*>(&pkt.type), sizeof(pkt.type), h);
    h = Fnv1a64(pkt.payload, h);
    digest_ = h;
    // Semantic digest: same fields minus delivery time, folded commutatively
    // so it is invariant to delivery order (pipelining reshuffles timing,
    // not traffic).
    uint64_t s = Fnv1a64(reinterpret_cast<const uint8_t*>(&pkt.src), sizeof(pkt.src));
    s = Fnv1a64(reinterpret_cast<const uint8_t*>(&pkt.dst), sizeof(pkt.dst), s);
    s = Fnv1a64(reinterpret_cast<const uint8_t*>(&pkt.type), sizeof(pkt.type), s);
    s = Fnv1a64(pkt.payload, s);
    semantic_digest_ += s;
  });
}

void FaultInjector::Record(const std::string& line) {
  EDC_LOG(kDebug) << "fault: " << line;
  trace_.push_back(line);
  digest_ = Fnv1a64(line, digest_);
}

}  // namespace edc
