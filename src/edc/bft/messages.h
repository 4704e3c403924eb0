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

  void Encode(Encoder& enc) const;
  static Result<BftRequest> Decode(Decoder& dec);
  uint64_t Digest(uint64_t seq, SimTime ts) const;
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
};

struct PhaseMsg {  // PREPARE and COMMIT
  uint64_t view = 0;
  uint64_t seq = 0;
  uint64_t digest = 0;
};

struct ReplyMsg {
  uint64_t req_id = 0;
  uint64_t view = 0;
  std::vector<uint8_t> payload;
};

// A prepared certificate as carried by VIEW-CHANGE and NEW-VIEW: `view` is
// the view the batch was pre-prepared (and prepared) in, so the new primary
// can keep, per sequence number, the certificate from the highest view.
struct PreparedEntry {
  uint64_t view = 0;
  uint64_t seq = 0;
  SimTime ts = 0;
  BftBatch batch;
};

struct ViewChangeMsg {
  uint64_t new_view = 0;
  uint64_t last_executed = 0;
  std::vector<PreparedEntry> prepared;
};

struct NewViewMsg {
  uint64_t new_view = 0;
  std::vector<PreparedEntry> reproposed;
};

// Broadcast after every K-th execution: `digest` fingerprints the full
// checkpoint state (replica header + framed service snapshot) at `seq`.
// `view` lets replicas that slept through view changes re-learn the current
// view from f+1 agreeing peers.
struct CheckpointMsg {
  uint64_t view = 0;
  uint64_t seq = 0;
  uint64_t digest = 0;
};

// A lagging replica asks peers for checkpoint state above `last_executed`.
struct StateRequestMsg {
  uint64_t last_executed = 0;
};

// Peer's reply: its current state snapshot at `seq` (= its last executed
// sequence number). `digest` must equal Fnv1a64(state); the requester only
// installs once f+1 distinct replicas vouch for the same (seq, digest).
struct StateResponseMsg {
  uint64_t view = 0;
  uint64_t seq = 0;
  uint64_t digest = 0;
  std::vector<uint8_t> state;
};

std::vector<uint8_t> EncodeBftRequest(const BftRequest& m);
Result<BftRequest> DecodeBftRequest(const std::vector<uint8_t>& buf);
std::vector<uint8_t> EncodePrePrepare(const PrePrepareMsg& m);
Result<PrePrepareMsg> DecodePrePrepare(const std::vector<uint8_t>& buf);
std::vector<uint8_t> EncodePhaseMsg(const PhaseMsg& m);
Result<PhaseMsg> DecodePhaseMsg(const std::vector<uint8_t>& buf);
std::vector<uint8_t> EncodeReplyMsg(const ReplyMsg& m);
Result<ReplyMsg> DecodeReplyMsg(const std::vector<uint8_t>& buf);
std::vector<uint8_t> EncodeViewChange(const ViewChangeMsg& m);
Result<ViewChangeMsg> DecodeViewChange(const std::vector<uint8_t>& buf);
std::vector<uint8_t> EncodeNewView(const NewViewMsg& m);
Result<NewViewMsg> DecodeNewView(const std::vector<uint8_t>& buf);
std::vector<uint8_t> EncodeCheckpoint(const CheckpointMsg& m);
Result<CheckpointMsg> DecodeCheckpoint(const std::vector<uint8_t>& buf);
std::vector<uint8_t> EncodeStateRequest(const StateRequestMsg& m);
Result<StateRequestMsg> DecodeStateRequest(const std::vector<uint8_t>& buf);
std::vector<uint8_t> EncodeStateResponse(const StateResponseMsg& m);
Result<StateResponseMsg> DecodeStateResponse(const std::vector<uint8_t>& buf);

}  // namespace edc

#endif  // EDC_BFT_MESSAGES_H_
