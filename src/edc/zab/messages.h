// Wire messages of the Zab-style atomic broadcast protocol.
//
// zxid layout follows ZooKeeper: high 32 bits epoch, low 32 bits counter.

#ifndef EDC_ZAB_MESSAGES_H_
#define EDC_ZAB_MESSAGES_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "edc/common/codec.h"
#include "edc/common/result.h"
#include "edc/sim/network.h"

namespace edc {

// Packet type range reserved for Zab traffic.
constexpr uint32_t kZabTypeBase = 100;

enum class ZabMsgType : uint32_t {
  kElection = kZabTypeBase + 0,   // vote exchange while LOOKING
  kLeaderInfo = kZabTypeBase + 1, // settled node tells a looking node who leads
  kFollowerInfo = kZabTypeBase + 2,  // follower -> new leader: my last zxid
  kDiff = kZabTypeBase + 3,       // leader -> follower: missing proposals
  kTrunc = kZabTypeBase + 4,      // leader -> follower: drop entries after zxid
  kSnap = kZabTypeBase + 5,       // leader -> follower: full snapshot
  kNewLeader = kZabTypeBase + 6,  // leader -> follower: end of sync
  kAckNewLeader = kZabTypeBase + 7,
  // kZabTypeBase + 8 is unassigned: the values are wire format, so none moves.
  kPropose = kZabTypeBase + 9,
  kAck = kZabTypeBase + 10,
  kCommit = kZabTypeBase + 11,
  kHeartbeat = kZabTypeBase + 12,
  kHeartbeatAck = kZabTypeBase + 13,  // follower -> leader: I am alive
  kMax = kZabTypeBase + 14,
};

inline bool IsZabPacket(uint32_t type) {
  return type >= kZabTypeBase && type < static_cast<uint32_t>(ZabMsgType::kMax);
}

inline uint64_t MakeZxid(uint32_t epoch, uint32_t counter) {
  return (static_cast<uint64_t>(epoch) << 32) | counter;
}
inline uint32_t ZxidEpoch(uint64_t zxid) { return static_cast<uint32_t>(zxid >> 32); }

// Proposal flag bits. A reconfiguration proposal carries an encoded
// ZabMembership as its txn; it is activated by the protocol layer at commit
// and never delivered to the state machine callbacks.
constexpr uint8_t kReconfigFlag = 0x1;

// A log record viewed in place. Every Zab log record is a proposal frame
// (u64 zxid, u8 flags, varint txn length, txn); the view borrows the
// record's bytes, and encoding a view writes that frame.
struct ZabRecordView {
  uint64_t zxid = 0;
  uint8_t flags = 0;
  std::span<const uint8_t> txn;

  bool is_reconfig() const { return (flags & kReconfigFlag) != 0; }
  bool operator==(const ZabRecordView& o) const {
    return zxid == o.zxid && flags == o.flags && std::ranges::equal(txn, o.txn);
  }
};

template <class Io>
void Fields(Io& io, ZabRecordView& m) {
  io.U64(m.zxid);
  io.U8(m.flags);
  io.Bytes(m.txn);
}

// The one parser of a record frame, at the decoder's position: fills `view`
// and returns the frame's bytes, which end where the txn ends.
std::span<const uint8_t> ParseZabRecord(Decoder& dec, ZabRecordView& view);

// A whole log record: the frame must end at its txn.
Result<ZabRecordView> DecodeZabRecordView(std::span<const uint8_t> record);

// An ensemble membership: the voter set (quorums are majorities of it) plus
// the observer set (receive the proposal/commit stream, never vote, never
// count toward acks, never lead). Reconfiguration replicates the *full* next
// membership through the log — activation is therefore idempotent and a new
// leader taking over an in-flight reconfig needs no delta reconstruction.
// `version` is the zxid of the reconfig entry that activated this membership
// (0 for the boot configuration); it is runtime state, not encoded.
struct ZabMembership {
  uint64_t version = 0;
  std::vector<NodeId> voters;
  std::vector<NodeId> observers;

  bool IsVoter(NodeId id) const {
    for (NodeId v : voters) {
      if (v == id) return true;
    }
    return false;
  }
  bool IsObserver(NodeId id) const {
    for (NodeId o : observers) {
      if (o == id) return true;
    }
    return false;
  }
  bool Contains(NodeId id) const { return IsVoter(id) || IsObserver(id); }
  bool operator==(const ZabMembership&) const = default;
};

// Snapshot wire/durable wrapper: the service-layer state image plus the
// membership in force at the snapshot frontier, so a joiner installing a
// snapshot (and a node recovering one from its log store) also recovers the
// correct quorum definition.
struct ZabSnapshot {
  ZabMembership membership;
  std::vector<uint8_t> state;

  bool operator==(const ZabSnapshot&) const = default;
};

// kElection payload.
struct ElectionVote {
  uint64_t election_round = 0;
  NodeId vote_for = 0;
  uint64_t vote_zxid = 0;
  uint32_t vote_epoch = 0;  // currentEpoch of the candidate
  NodeId from = 0;
  bool from_looking = true;

  bool operator==(const ElectionVote&) const = default;
};

// kLeaderInfo payload: current leader as known by a settled node.
struct LeaderInfo {
  NodeId leader = 0;
  uint32_t epoch = 0;

  bool operator==(const LeaderInfo&) const = default;
};

// kFollowerInfo / kAckNewLeader payload.
struct FollowerInfo {
  uint64_t last_zxid = 0;

  bool operator==(const FollowerInfo&) const = default;
};

// kDiff payload: proposals after the follower's last zxid, plus the commit
// frontier so the follower can deliver immediately. Each proposal travels as
// its log record verbatim, so the spans borrow the sender's log when
// encoding and the packet buffer when decoded.
struct DiffMsg {
  uint64_t committed_zxid = 0;
  std::vector<std::span<const uint8_t>> records;

  bool operator==(const DiffMsg& o) const {
    return committed_zxid == o.committed_zxid &&
           std::ranges::equal(records, o.records, [](auto a, auto b) {
             return std::ranges::equal(a, b);
           });
  }
};

// kSnap payload.
struct SnapMsg {
  uint64_t snapshot_zxid = 0;
  uint32_t epoch = 0;
  std::vector<uint8_t> snapshot;

  bool operator==(const SnapMsg&) const = default;
};

// kNewLeader / kHeartbeat / kHeartbeatAck share this shape.
struct EpochMsg {
  uint32_t epoch = 0;
  uint64_t committed_zxid = 0;

  bool operator==(const EpochMsg&) const = default;
};

// kPropose payload: the epoch, then the proposal's log record frame.
struct ProposeMsg {
  uint32_t epoch = 0;
  ZabRecordView proposal;

  bool operator==(const ProposeMsg&) const = default;
};

// Byte offset of the embedded proposal frame inside a kPropose payload (the
// u32 epoch header precedes it). The durable log record for a proposal is
// exactly the payload suffix starting here — the replication hot path relies
// on that to serialize each transaction once (arena encode on the leader,
// frame slicing on followers) instead of once per consumer.
constexpr size_t kProposeHeaderBytes = 4;

// Zero-copy view of a kPropose payload: the spans borrow the packet buffer,
// which must outlive the view. `record` is the proposal frame, i.e. the
// bytes a follower appends to its log verbatim.
struct ProposeFrameView {
  uint32_t epoch = 0;
  ZabRecordView proposal;
  std::span<const uint8_t> record;
};

// Validates the frame, which must end at the txn (a proposal with trailing
// bytes is rejected, never logged), and returns borrowed spans into `buf`.
Result<ProposeFrameView> DecodeProposeMsgView(std::span<const uint8_t> buf);

// kAck / kCommit payload.
struct ZxidMsg {
  uint32_t epoch = 0;
  uint64_t zxid = 0;

  bool operator==(const ZxidMsg&) const = default;
};

// Wire formats (common/codec.h), fields in wire order.

template <class Io>
void Fields(Io& io, ZabMembership& m) {
  io.List(m.voters, [&](NodeId& v) { io.U32(v); });
  io.List(m.observers, [&](NodeId& o) { io.U32(o); });
  io.Check(!m.voters.empty(), "membership without voters");
}

template <class Io>
void Fields(Io& io, ZabSnapshot& m) {
  io.Nested(m.membership);
  io.Bytes(m.state);
}

template <class Io>
void Fields(Io& io, ElectionVote& m) {
  io.U64(m.election_round);
  io.U32(m.vote_for);
  io.U64(m.vote_zxid);
  io.U32(m.vote_epoch);
  io.U32(m.from);
  io.Bool(m.from_looking);
}

template <class Io>
void Fields(Io& io, LeaderInfo& m) {
  io.U32(m.leader);
  io.U32(m.epoch);
}

template <class Io>
void Fields(Io& io, FollowerInfo& m) {
  io.U64(m.last_zxid);
}

// A DIFF carries its records back to back with no length prefix: written
// verbatim, read by the record parser. The decoded spans borrow the packet.
inline void RecordFrame(Encoder& enc, std::span<const uint8_t>& record) { enc.Raw(record); }
inline void RecordFrame(Decoder& dec, std::span<const uint8_t>& record) {
  ZabRecordView view;
  record = ParseZabRecord(dec, view);
}

template <class Io>
void Fields(Io& io, DiffMsg& m) {
  io.U64(m.committed_zxid);
  io.List(m.records, [&](std::span<const uint8_t>& r) { RecordFrame(io, r); });
}

template <class Io>
void Fields(Io& io, SnapMsg& m) {
  io.U64(m.snapshot_zxid);
  io.U32(m.epoch);
  io.Bytes(m.snapshot);
}

template <class Io>
void Fields(Io& io, EpochMsg& m) {
  io.U32(m.epoch);
  io.U64(m.committed_zxid);
}

template <class Io>
void Fields(Io& io, ProposeMsg& m) {
  io.U32(m.epoch);
  Fields(io, m.proposal);
}

template <class Io>
void Fields(Io& io, ZxidMsg& m) {
  io.U32(m.epoch);
  io.U64(m.zxid);
}

}  // namespace edc

#endif  // EDC_ZAB_MESSAGES_H_
