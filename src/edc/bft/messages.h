// Wire messages of the PBFT-style ordering protocol (the BFT-SMaRt analogue
// under the DepSpace-like service).

#ifndef EDC_BFT_MESSAGES_H_
#define EDC_BFT_MESSAGES_H_

#include <cstdint>
#include <vector>

#include "edc/common/codec.h"
#include "edc/common/hash.h"
#include "edc/common/result.h"
#include "edc/sim/network.h"
#include "edc/sim/time.h"

namespace edc {

// Faulty replicas a group of `replicas` tolerates: f with 3f + 1 <= replicas.
// Replicas order with 2f + 1 matching votes; clients accept f + 1 matching
// replies.
constexpr size_t BftFaultThreshold(size_t replicas) {
  return replicas == 0 ? 0 : (replicas - 1) / 3;
}

constexpr uint32_t kBftTypeBase = 300;

enum class BftMsgType : uint32_t {
  kRequest = kBftTypeBase + 0,     // client -> all replicas
  kPrePrepare = kBftTypeBase + 1,  // primary -> backups
  kPrepare = kBftTypeBase + 2,     // replica -> all
  kCommit = kBftTypeBase + 3,      // replica -> all
  kReply = kBftTypeBase + 4,       // replica -> client
  kViewChange = kBftTypeBase + 5,
  kNewView = kBftTypeBase + 6,
  kCheckpoint = kBftTypeBase + 7,     // replica -> all, every K executions
  kStateRequest = kBftTypeBase + 8,   // lagging replica -> all
  kStateResponse = kBftTypeBase + 9,  // peer -> lagging replica
  kMax = kBftTypeBase + 10,
};

inline bool IsBftPacket(uint32_t type) {
  return type >= kBftTypeBase && type < static_cast<uint32_t>(BftMsgType::kMax);
}

struct BftRequest {
  NodeId client = 0;
  uint64_t req_id = 0;
  std::vector<uint8_t> payload;

  uint64_t Digest(uint64_t seq, SimTime ts) const;
  bool operator==(const BftRequest&) const = default;
};

// The requests ordered under one sequence number. Request i executes at
// timestamp ts + i; an empty batch is the no-op that pads view-change gaps.
using BftBatch = std::vector<BftRequest>;

// Folds the per-request digests (request i digested at ts + i) into the one
// digest PREPARE and COMMIT vote on.
uint64_t BatchDigest(uint64_t seq, SimTime ts, const BftBatch& batch);

struct PrePrepareMsg {
  uint64_t view = 0;
  uint64_t seq = 0;
  SimTime ts = 0;  // deterministic timestamp assigned by the primary
  BftBatch batch;

  bool operator==(const PrePrepareMsg&) const = default;
};

struct PhaseMsg {  // PREPARE and COMMIT
  uint64_t view = 0;
  uint64_t seq = 0;
  uint64_t digest = 0;

  bool operator==(const PhaseMsg&) const = default;
};

struct ReplyMsg {
  uint64_t req_id = 0;
  uint64_t view = 0;
  std::vector<uint8_t> payload;

  bool operator==(const ReplyMsg&) const = default;
};

// A prepared certificate as carried by VIEW-CHANGE and NEW-VIEW: `view` is
// the view the batch was pre-prepared (and prepared) in, so the new primary
// can keep, per sequence number, the certificate from the highest view.
struct PreparedEntry {
  uint64_t view = 0;
  uint64_t seq = 0;
  SimTime ts = 0;
  BftBatch batch;

  bool operator==(const PreparedEntry&) const = default;
};

struct ViewChangeMsg {
  uint64_t new_view = 0;
  uint64_t last_executed = 0;
  std::vector<PreparedEntry> prepared;

  bool operator==(const ViewChangeMsg&) const = default;
};

struct NewViewMsg {
  uint64_t new_view = 0;
  std::vector<PreparedEntry> reproposed;

  bool operator==(const NewViewMsg&) const = default;
};

// Broadcast after every K-th execution: `digest` fingerprints the full
// checkpoint state (replica header + framed service snapshot) at `seq`.
// `view` lets replicas that slept through view changes re-learn the current
// view from f+1 agreeing peers.
struct CheckpointMsg {
  uint64_t view = 0;
  uint64_t seq = 0;
  uint64_t digest = 0;

  bool operator==(const CheckpointMsg&) const = default;
};

// A lagging replica asks peers for checkpoint state above `last_executed`.
struct StateRequestMsg {
  uint64_t last_executed = 0;

  bool operator==(const StateRequestMsg&) const = default;
};

// Peer's reply: its current state snapshot at `seq` (= its last executed
// sequence number). `digest` must equal Fnv1a64(state); the requester only
// installs once f+1 distinct replicas vouch for the same (seq, digest).
struct StateResponseMsg {
  uint64_t view = 0;
  uint64_t seq = 0;
  uint64_t digest = 0;
  std::vector<uint8_t> state;

  bool operator==(const StateResponseMsg&) const = default;
};

// Wire formats (common/codec.h), fields in wire order.

template <class Io>
void Fields(Io& io, BftRequest& m) {
  io.U32(m.client);
  io.U64(m.req_id);
  io.Bytes(m.payload);
}

template <class Io>
void Fields(Io& io, PrePrepareMsg& m) {
  io.U64(m.view);
  io.U64(m.seq);
  io.I64(m.ts);
  io.List(m.batch);
}

template <class Io>
void Fields(Io& io, PhaseMsg& m) {
  io.U64(m.view);
  io.U64(m.seq);
  io.U64(m.digest);
}

template <class Io>
void Fields(Io& io, ReplyMsg& m) {
  io.U64(m.req_id);
  io.U64(m.view);
  io.Bytes(m.payload);
}

template <class Io>
void Fields(Io& io, PreparedEntry& m) {
  io.U64(m.view);
  io.U64(m.seq);
  io.I64(m.ts);
  io.List(m.batch);
}

template <class Io>
void Fields(Io& io, ViewChangeMsg& m) {
  io.U64(m.new_view);
  io.U64(m.last_executed);
  io.List(m.prepared);
}

template <class Io>
void Fields(Io& io, NewViewMsg& m) {
  io.U64(m.new_view);
  io.List(m.reproposed);
}

template <class Io>
void Fields(Io& io, CheckpointMsg& m) {
  io.U64(m.view);
  io.U64(m.seq);
  io.U64(m.digest);
}

template <class Io>
void Fields(Io& io, StateRequestMsg& m) {
  io.U64(m.last_executed);
}

template <class Io>
void Fields(Io& io, StateResponseMsg& m) {
  io.U64(m.view);
  io.U64(m.seq);
  io.U64(m.digest);
  io.Bytes(m.state);
}

}  // namespace edc

#endif  // EDC_BFT_MESSAGES_H_
