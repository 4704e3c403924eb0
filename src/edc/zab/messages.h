// Wire messages of the Zab-style atomic broadcast protocol.
//
// zxid layout follows ZooKeeper: high 32 bits epoch, low 32 bits counter.

#ifndef EDC_ZAB_MESSAGES_H_
#define EDC_ZAB_MESSAGES_H_

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
  kUpToDate = kZabTypeBase + 8,   // leader -> follower: broadcast phase open
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
inline uint32_t ZxidCounter(uint64_t zxid) { return static_cast<uint32_t>(zxid); }

// Proposal flag bits. A reconfiguration proposal carries an encoded
// ZabMembership as its txn; it is activated by the protocol layer at commit
// and never delivered to the state machine callbacks.
constexpr uint8_t kReconfigFlag = 0x1;

struct ZabProposal {
  uint64_t zxid = 0;
  uint8_t flags = 0;
  std::vector<uint8_t> txn;

  bool is_reconfig() const { return (flags & kReconfigFlag) != 0; }

  void Encode(Encoder& enc) const {
    enc.PutU64(zxid);
    enc.PutU8(flags);
    enc.PutBytes(txn);
  }
  static Result<ZabProposal> Decode(Decoder& dec) {
    ZabProposal p;
    auto zxid = dec.GetU64();
    if (!zxid.ok()) {
      return zxid.status();
    }
    p.zxid = *zxid;
    auto flags = dec.GetU8();
    if (!flags.ok()) {
      return flags.status();
    }
    p.flags = *flags;
    auto txn = dec.GetBytes();
    if (!txn.ok()) {
      return txn.status();
    }
    p.txn = std::move(*txn);
    return p;
  }
};

// A log record viewed in place. Every Zab log record is a proposal frame as
// ZabProposal::Encode writes it (u64 zxid, u8 flags, varint txn length,
// txn); the view borrows the record's bytes.
struct ZabRecordView {
  uint64_t zxid = 0;
  uint8_t flags = 0;
  std::span<const uint8_t> txn;

  bool is_reconfig() const { return (flags & kReconfigFlag) != 0; }
};

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
};

std::vector<uint8_t> EncodeZabMembership(const ZabMembership& m);
Result<ZabMembership> DecodeZabMembership(std::span<const uint8_t> buf);

// Snapshot wire/durable wrapper: the service-layer state image plus the
// membership in force at the snapshot frontier, so a joiner installing a
// snapshot (and a node recovering one from its log store) also recovers the
// correct quorum definition.
struct ZabSnapshot {
  ZabMembership membership;
  std::vector<uint8_t> state;
};

std::vector<uint8_t> EncodeZabSnapshot(const ZabSnapshot& s);
Result<ZabSnapshot> DecodeZabSnapshot(const std::vector<uint8_t>& buf);

// kElection payload.
struct ElectionVote {
  uint64_t election_round = 0;
  NodeId vote_for = 0;
  uint64_t vote_zxid = 0;
  uint32_t vote_epoch = 0;  // currentEpoch of the candidate
  NodeId from = 0;
  bool from_looking = true;
};

// kLeaderInfo payload: current leader as known by a settled node.
struct LeaderInfo {
  NodeId leader = 0;
  uint32_t epoch = 0;
};

// kFollowerInfo / kAckNewLeader payload.
struct FollowerInfo {
  uint64_t last_zxid = 0;
};

// kDiff payload: proposals after the follower's last zxid, plus the commit
// frontier so the follower can deliver immediately. Each proposal travels as
// its log record verbatim, so the spans borrow the sender's log when
// encoding and the packet buffer when decoded.
struct DiffMsg {
  uint64_t committed_zxid = 0;
  std::vector<std::span<const uint8_t>> records;
};

// kSnap payload.
struct SnapMsg {
  uint64_t snapshot_zxid = 0;
  uint32_t epoch = 0;
  std::vector<uint8_t> snapshot;
};

// kNewLeader / kUpToDate / kHeartbeat / kHeartbeatAck share this shape.
struct EpochMsg {
  uint32_t epoch = 0;
  uint64_t committed_zxid = 0;
};

// kPropose payload.
struct ProposeMsg {
  uint32_t epoch = 0;
  ZabProposal proposal;
};

// Byte offset of the embedded proposal frame inside a kPropose payload (the
// u32 epoch header precedes it). The durable log record for a proposal is
// exactly the payload suffix starting here — the replication hot path relies
// on that to serialize each transaction once (arena encode on the leader,
// frame slicing on followers) instead of once per consumer.
constexpr size_t kProposeHeaderBytes = 4;

// Zero-copy view of a kPropose payload: all pointers borrow the packet
// buffer, which must outlive the view. `record` spans the proposal frame
// (zxid + txn), i.e. the bytes a follower appends to its log verbatim.
struct ProposeFrameView {
  uint32_t epoch = 0;
  uint64_t zxid = 0;
  uint8_t flags = 0;
  const uint8_t* txn = nullptr;
  size_t txn_size = 0;
  const uint8_t* record = nullptr;
  size_t record_size = 0;
};

// kAck / kCommit payload.
struct ZxidMsg {
  uint32_t epoch = 0;
  uint64_t zxid = 0;
};

// Encoding helpers (free functions so messages stay aggregates).
std::vector<uint8_t> EncodeElectionVote(const ElectionVote& m);
Result<ElectionVote> DecodeElectionVote(const std::vector<uint8_t>& buf);
std::vector<uint8_t> EncodeLeaderInfo(const LeaderInfo& m);
Result<LeaderInfo> DecodeLeaderInfo(const std::vector<uint8_t>& buf);
std::vector<uint8_t> EncodeFollowerInfo(const FollowerInfo& m);
Result<FollowerInfo> DecodeFollowerInfo(const std::vector<uint8_t>& buf);
std::vector<uint8_t> EncodeDiffMsg(const DiffMsg& m);
// Validates every record frame; the result borrows `buf`.
Result<DiffMsg> DecodeDiffMsg(const std::vector<uint8_t>& buf);
std::vector<uint8_t> EncodeSnapMsg(const SnapMsg& m);
Result<SnapMsg> DecodeSnapMsg(const std::vector<uint8_t>& buf);
std::vector<uint8_t> EncodeEpochMsg(const EpochMsg& m);
Result<EpochMsg> DecodeEpochMsg(const std::vector<uint8_t>& buf);
std::vector<uint8_t> EncodeProposeMsg(const ProposeMsg& m);
// Arena variant: appends the frame to `enc` (typically a reused per-batch
// encoder) instead of allocating a fresh buffer per message.
void EncodeProposeMsgInto(const ProposeMsg& m, Encoder& enc);
Result<ProposeMsg> DecodeProposeMsg(const std::vector<uint8_t>& buf);
// Zero-copy variant: validates the frame and returns borrowed spans into
// `buf` (no txn copy); see ProposeFrameView.
Result<ProposeFrameView> DecodeProposeMsgView(const std::vector<uint8_t>& buf);
std::vector<uint8_t> EncodeZxidMsg(const ZxidMsg& m);
Result<ZxidMsg> DecodeZxidMsg(const std::vector<uint8_t>& buf);

}  // namespace edc

#endif  // EDC_ZAB_MESSAGES_H_
