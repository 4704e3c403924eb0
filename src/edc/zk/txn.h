// Replicated state transactions.
//
// The leader's preprocessor resolves every request into a deterministic
// transaction (sequential names expanded, versions checked) which followers
// apply blindly — exactly ZooKeeper's split. A ZkTxn may batch several
// TxnOps; EZK's extension manager uses this "multi-transaction" form to make
// an extension's whole write set atomic and to piggyback the extension's
// result back to the client-owning replica (paper §5.1.2).

#ifndef EDC_ZK_TXN_H_
#define EDC_ZK_TXN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "edc/common/codec.h"
#include "edc/common/result.h"
#include "edc/sim/time.h"

namespace edc {

enum class ZkTxnOpType : uint8_t {
  kCreate = 0,        // path (final), data, ephemeral_owner
  kDelete = 1,        // path
  kSetData = 2,       // path, data
  kCreateSession = 3, // session + session_owner (replica holding the connection)
  kCloseSession = 4,  // session; apply deletes all its ephemerals
  kBlock = 5,         // path, session, req_id: reply when path gets created
};

struct ZkTxnOp {
  ZkTxnOpType type = ZkTxnOpType::kCreate;
  std::string path;
  std::string data;
  uint64_t ephemeral_owner = 0;  // kCreate
  uint64_t session = 0;          // kCreateSession/kCloseSession/kBlock
  uint32_t session_owner = 0;    // kCreateSession: replica owning the connection
  uint64_t req_id = 0;           // kBlock

  bool operator==(const ZkTxnOp&) const = default;
};

struct ZkTxn {
  uint64_t session = 0;  // originating session (0 = internal, e.g. event extension)
  uint64_t req_id = 0;
  SimTime time = 0;  // leader-assigned, used for ctime/mtime
  std::vector<ZkTxnOp> ops;
  // Extension result piggybacked to the replica owning `session` (§5.1.2).
  bool has_result = false;
  std::string result;
  // Length of the event-extension chain that produced this transaction
  // (0 = client request); bounds extension-triggered cascades.
  uint8_t ext_depth = 0;

  bool operator==(const ZkTxn&) const = default;
};

template <class Io>
void Fields(Io& io, ZkTxnOp& m) {
  io.U8(m.type);
  io.Check(m.type <= ZkTxnOpType::kBlock, "bad txn op type");
  io.Str(m.path);
  io.Str(m.data);
  io.U64(m.ephemeral_owner);
  io.U64(m.session);
  io.U32(m.session_owner);
  io.U64(m.req_id);
}

template <class Io>
void Fields(Io& io, ZkTxn& m) {
  io.U64(m.session);
  io.U64(m.req_id);
  io.I64(m.time);
  io.Bool(m.has_result);
  io.Str(m.result);
  io.U8(m.ext_depth);
  io.List(m.ops);
}

}  // namespace edc

#endif  // EDC_ZK_TXN_H_
