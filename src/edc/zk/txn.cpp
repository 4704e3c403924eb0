#include "edc/zk/txn.h"

namespace edc {

void ZkTxnOp::Encode(Encoder& enc) const {
  enc.PutU8(static_cast<uint8_t>(type));
  enc.PutString(path);
  enc.PutString(data);
  enc.PutU64(ephemeral_owner);
  enc.PutU64(session);
  enc.PutU32(session_owner);
  enc.PutU64(req_id);
}

Result<ZkTxnOp> ZkTxnOp::Decode(Decoder& dec) {
  ZkTxnOp op;
  auto type = dec.GetU8();
  if (!type.ok() || *type > static_cast<uint8_t>(ZkTxnOpType::kBlock)) {
    return ErrorCode::kDecodeError;
  }
  op.type = static_cast<ZkTxnOpType>(*type);
  auto path = dec.GetString();
  auto data = dec.GetString();
  auto owner = dec.GetU64();
  auto session = dec.GetU64();
  auto session_owner = dec.GetU32();
  auto req_id = dec.GetU64();
  if (!path.ok() || !data.ok() || !owner.ok() || !session.ok() || !session_owner.ok() ||
      !req_id.ok()) {
    return ErrorCode::kDecodeError;
  }
  op.path = std::move(*path);
  op.data = std::move(*data);
  op.ephemeral_owner = *owner;
  op.session = *session;
  op.session_owner = *session_owner;
  op.req_id = *req_id;
  return op;
}

std::vector<uint8_t> ZkTxn::Encode() const {
  Encoder enc;
  enc.PutU64(session);
  enc.PutU64(req_id);
  enc.PutI64(time);
  enc.PutBool(has_result);
  enc.PutString(result);
  enc.PutU8(ext_depth);
  enc.PutVarint(ops.size());
  for (const ZkTxnOp& op : ops) {
    op.Encode(enc);
  }
  return enc.Release();
}

Result<ZkTxn> ZkTxn::Decode(std::span<const uint8_t> buf) {
  Decoder dec(buf.data(), buf.size());
  ZkTxn txn;
  auto session = dec.GetU64();
  auto req_id = dec.GetU64();
  auto time = dec.GetI64();
  auto has_result = dec.GetBool();
  auto result = dec.GetString();
  auto depth = dec.GetU8();
  auto n = dec.GetVarint();
  if (!session.ok() || !req_id.ok() || !time.ok() || !has_result.ok() || !result.ok() ||
      !depth.ok() || !n.ok()) {
    return ErrorCode::kDecodeError;
  }
  txn.session = *session;
  txn.req_id = *req_id;
  txn.time = *time;
  txn.has_result = *has_result;
  txn.result = std::move(*result);
  txn.ext_depth = *depth;
  for (uint64_t i = 0; i < *n; ++i) {
    auto op = ZkTxnOp::Decode(dec);
    if (!op.ok()) {
      return op.status();
    }
    txn.ops.push_back(std::move(*op));
  }
  return txn;
}

}  // namespace edc
