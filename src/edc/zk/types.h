// Client-visible types and wire protocol of the ZooKeeper-like service.
//
// The coordination kernel is deliberately ZooKeeper's: a hierarchical
// namespace of small data nodes with versions, ephemeral and sequential
// nodes, one-shot watches, and multi-transactions. Packet types 200-299.

#ifndef EDC_ZK_TYPES_H_
#define EDC_ZK_TYPES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "edc/common/codec.h"
#include "edc/common/result.h"
#include "edc/common/strings.h"
#include "edc/sim/time.h"

namespace edc {

constexpr uint32_t kZkTypeBase = 200;

// EZK's /em nodes: /em/<name> holds the registration, and each session that
// acknowledged it has a child node /em/<name>/ack-<session>.
inline constexpr EmLayout kZkEmLayout{"ack-"};

enum class ZkMsgType : uint32_t {
  kConnect = kZkTypeBase + 0,       // client -> replica
  kConnectReply = kZkTypeBase + 1,  // replica -> client
  kRequest = kZkTypeBase + 2,       // client -> replica
  kReply = kZkTypeBase + 3,         // replica -> client
  kWatchEvent = kZkTypeBase + 4,    // replica -> client
  kForward = kZkTypeBase + 5,       // follower -> leader (writes / ext ops)
  kForwardReply = kZkTypeBase + 6,  // leader -> follower (error short-circuit)
  kMembershipEvent = kZkTypeBase + 7,  // replica -> client (ensemble changed)
  kMax = kZkTypeBase + 8,
};

inline bool IsZkPacket(uint32_t type) {
  return type >= kZkTypeBase && type < static_cast<uint32_t>(ZkMsgType::kMax);
}

enum class ZkOpType : uint8_t {
  kPing = 0,
  kCloseSession = 1,
  kCreate = 2,
  kDelete = 3,
  kExists = 4,
  kGetData = 5,
  kSetData = 6,
  kGetChildren = 7,
  kMulti = 8,
  // Internal: replica -> leader session establishment (never sent by
  // clients; `data` carries the session timeout in ns).
  kSessionCreate = 9,
  // Administrative ensemble reconfiguration (docs/reconfig.md). `data`
  // carries a single-change spec: "add_observer N", "add_voter N",
  // "promote N" or "remove N". Leader-only; replicated through the Zab log
  // and activated at commit.
  kReconfig = 10,
};

inline bool IsReadOp(ZkOpType t) {
  return t == ZkOpType::kExists || t == ZkOpType::kGetData || t == ZkOpType::kGetChildren;
}

// A single client operation. `version` follows ZooKeeper semantics: -1
// matches any version. Multi bodies may contain only create/delete/setData.
struct ZkOp {
  ZkOpType type = ZkOpType::kPing;
  std::string path;
  std::string data;
  int32_t version = -1;
  bool watch = false;
  bool ephemeral = false;
  bool sequential = false;
  std::vector<ZkOp> ops;  // multi

  bool operator==(const ZkOp&) const = default;
};

// Node metadata, ZooKeeper Stat analogue.
struct ZkStat {
  uint64_t czxid = 0;
  uint64_t mzxid = 0;
  uint64_t pzxid = 0;
  SimTime ctime = 0;
  SimTime mtime = 0;
  int32_t version = 0;
  int32_t cversion = 0;
  uint64_t ephemeral_owner = 0;
  uint32_t num_children = 0;

  bool operator==(const ZkStat&) const = default;
};

struct ZkRequestMsg {
  uint64_t session = 0;
  uint64_t req_id = 0;
  // Shard-map version the client routed with (docs/sharding.md). Replicas
  // configured with a newer expected version reject the request with
  // kShardMapStale. 0 = standalone client, never rejected.
  uint64_t map_version = 0;
  ZkOp op;

  bool operator==(const ZkRequestMsg&) const = default;
};

struct ZkReplyMsg {
  uint64_t req_id = 0;
  ErrorCode code = ErrorCode::kOk;
  std::string value;  // created path / node data / extension result
  bool has_stat = false;
  ZkStat stat;
  std::vector<std::string> children;

  bool operator==(const ZkReplyMsg&) const = default;
};

enum class ZkEventType : uint8_t {
  kNodeCreated = 0,
  kNodeDeleted = 1,
  kNodeDataChanged = 2,
  kNodeChildrenChanged = 3,
};

struct ZkWatchEventMsg {
  ZkEventType type = ZkEventType::kNodeCreated;
  std::string path;

  bool operator==(const ZkWatchEventMsg&) const = default;
};

struct ZkConnectMsg {
  Duration session_timeout = 0;
  // Session the client held before this (re)connect, 0 on a first connect.
  // Lets the replica tell the client whether that session is already gone
  // from the replicated session table (kSessionExpired) or merely detached
  // (kConnectionLoss).
  uint64_t old_session = 0;

  bool operator==(const ZkConnectMsg&) const = default;
};

struct ZkConnectReplyMsg {
  uint64_t session = 0;
  ErrorCode code = ErrorCode::kOk;
  // True iff ZkConnectMsg::old_session was nonzero and no longer exists in
  // the replicated session table at the zxid that created the new session.
  bool old_session_expired = false;

  bool operator==(const ZkConnectReplyMsg&) const = default;
};

// Forwarded request: the origin replica wraps the client request so the
// leader can route the (error) reply back.
struct ZkForwardMsg {
  uint32_t origin = 0;  // replica that owns the client connection
  ZkRequestMsg request;

  bool operator==(const ZkForwardMsg&) const = default;
};

struct ZkForwardReplyMsg {
  uint64_t session = 0;
  ZkReplyMsg reply;

  bool operator==(const ZkForwardReplyMsg&) const = default;
};

// Pushed by a replica to its connected clients when a reconfiguration
// activates: the authoritative voter list (the servers a session can fail
// over to) plus the observer tier, stamped with the activating zxid so
// clients can discard stale or reordered events.
struct ZkMembershipEventMsg {
  uint64_t version = 0;  // zxid of the activating reconfig commit
  std::vector<uint32_t> voters;     // NodeId; this header stays network-free
  std::vector<uint32_t> observers;

  bool operator==(const ZkMembershipEventMsg&) const = default;
};

// Wire formats (common/codec.h): each function lists its message's fields
// in wire order, for EncodeMsg and DecodeMsg alike.

// A multi nests at most two levels deep.
template <class Io>
void Fields(Io& io, ZkOp& m, int depth = 0) {
  io.Check(depth <= 2, "multi nested too deep");
  io.U8(m.type);
  io.Check(m.type <= ZkOpType::kReconfig, "bad op type");
  io.Str(m.path);
  io.Str(m.data);
  io.U32(m.version);
  io.Bool(m.watch);
  io.Bool(m.ephemeral);
  io.Bool(m.sequential);
  io.List(m.ops, [&](ZkOp& sub) { Fields(io, sub, depth + 1); });
}

template <class Io>
void Fields(Io& io, ZkStat& m) {
  io.U64(m.czxid);
  io.U64(m.mzxid);
  io.U64(m.pzxid);
  io.I64(m.ctime);
  io.I64(m.mtime);
  io.U32(m.version);
  io.U32(m.cversion);
  io.U64(m.ephemeral_owner);
  io.U32(m.num_children);
}

template <class Io>
void Fields(Io& io, ZkRequestMsg& m) {
  io.U64(m.session);
  io.U64(m.req_id);
  io.Varint(m.map_version);
  Fields(io, m.op);
}

template <class Io>
void Fields(Io& io, ZkReplyMsg& m) {
  io.U64(m.req_id);
  io.U32(m.code);
  io.Str(m.value);
  io.Bool(m.has_stat);
  if (m.has_stat) {
    Fields(io, m.stat);
  }
  io.List(m.children, [&](std::string& c) { io.Str(c); });
}

template <class Io>
void Fields(Io& io, ZkWatchEventMsg& m) {
  io.U8(m.type);
  io.Check(m.type <= ZkEventType::kNodeChildrenChanged, "bad event type");
  io.Str(m.path);
}

template <class Io>
void Fields(Io& io, ZkConnectMsg& m) {
  io.I64(m.session_timeout);
  io.U64(m.old_session);
}

template <class Io>
void Fields(Io& io, ZkConnectReplyMsg& m) {
  io.U64(m.session);
  io.U32(m.code);
  io.Bool(m.old_session_expired);
}

// The shard-map version stays with the origin replica, which checked it.
template <class Io>
void Fields(Io& io, ZkForwardMsg& m) {
  io.U32(m.origin);
  io.U64(m.request.session);
  io.U64(m.request.req_id);
  Fields(io, m.request.op);
}

template <class Io>
void Fields(Io& io, ZkForwardReplyMsg& m) {
  io.U64(m.session);
  io.Nested(m.reply);
}

template <class Io>
void Fields(Io& io, ZkMembershipEventMsg& m) {
  io.U64(m.version);
  io.List(m.voters, [&](uint32_t& v) { io.U32(v); });
  io.List(m.observers, [&](uint32_t& o) { io.U32(o); });
  io.Check(!m.voters.empty(), "membership event without voters");
}

}  // namespace edc

#endif  // EDC_ZK_TYPES_H_
