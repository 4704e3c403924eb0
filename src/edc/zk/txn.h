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
#include <span>
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

  void Encode(Encoder& enc) const;
  static Result<ZkTxnOp> Decode(Decoder& dec);
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

  std::vector<uint8_t> Encode() const;
  static Result<ZkTxn> Decode(std::span<const uint8_t> buf);
};

}  // namespace edc

#endif  // EDC_ZK_TXN_H_
