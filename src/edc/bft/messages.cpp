#include "edc/bft/messages.h"

namespace edc {

void BftRequest::Encode(Encoder& enc) const {
  enc.PutU32(client);
  enc.PutU64(req_id);
  enc.PutBytes(payload);
}

Result<BftRequest> BftRequest::Decode(Decoder& dec) {
  BftRequest r;
  auto client = dec.GetU32();
  auto req_id = dec.GetU64();
  if (!client.ok() || !req_id.ok()) {
    return ErrorCode::kDecodeError;
  }
  auto payload = dec.GetBytes();
  if (!payload.ok()) {
    return payload.status();
  }
  r.client = *client;
  r.req_id = *req_id;
  r.payload = std::move(*payload);
  return r;
}

uint64_t BftRequest::Digest(uint64_t seq, SimTime ts) const {
  uint64_t h = Fnv1a64(payload);
  Encoder enc;
  enc.PutU64(seq);
  enc.PutI64(ts);
  enc.PutU32(client);
  enc.PutU64(req_id);
  return Fnv1a64(enc.buffer(), h);
}

uint64_t BatchDigest(uint64_t seq, SimTime ts, const BftBatch& batch) {
  Encoder enc;
  enc.PutU64(seq);
  enc.PutI64(ts);
  enc.PutVarint(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    enc.PutU64(batch[i].Digest(seq, ts + static_cast<SimTime>(i)));
  }
  return Fnv1a64(enc.buffer());
}

namespace {

void EncodeBatch(Encoder& enc, const BftBatch& batch) {
  enc.PutVarint(batch.size());
  for (const BftRequest& r : batch) {
    r.Encode(enc);
  }
}

Result<BftBatch> DecodeBatch(Decoder& dec) {
  auto n = dec.GetVarint();
  if (!n.ok()) {
    return n.status();
  }
  BftBatch batch;
  for (uint64_t i = 0; i < *n; ++i) {
    auto r = BftRequest::Decode(dec);
    if (!r.ok()) {
      return r.status();
    }
    batch.push_back(std::move(*r));
  }
  return batch;
}

void EncodePreparedEntry(Encoder& enc, const PreparedEntry& e) {
  enc.PutU64(e.view);
  enc.PutU64(e.seq);
  enc.PutI64(e.ts);
  EncodeBatch(enc, e.batch);
}

Result<PreparedEntry> DecodePreparedEntry(Decoder& dec) {
  PreparedEntry e;
  auto view = dec.GetU64();
  auto seq = dec.GetU64();
  auto ts = dec.GetI64();
  if (!view.ok() || !seq.ok() || !ts.ok()) {
    return ErrorCode::kDecodeError;
  }
  auto batch = DecodeBatch(dec);
  if (!batch.ok()) {
    return batch.status();
  }
  e.view = *view;
  e.seq = *seq;
  e.ts = *ts;
  e.batch = std::move(*batch);
  return e;
}

}  // namespace

std::vector<uint8_t> EncodeBftRequest(const BftRequest& m) {
  Encoder enc;
  m.Encode(enc);
  return enc.Release();
}

Result<BftRequest> DecodeBftRequest(const std::vector<uint8_t>& buf) {
  Decoder dec(buf);
  return BftRequest::Decode(dec);
}

std::vector<uint8_t> EncodePrePrepare(const PrePrepareMsg& m) {
  Encoder enc;
  enc.PutU64(m.view);
  enc.PutU64(m.seq);
  enc.PutI64(m.ts);
  EncodeBatch(enc, m.batch);
  return enc.Release();
}

Result<PrePrepareMsg> DecodePrePrepare(const std::vector<uint8_t>& buf) {
  Decoder dec(buf);
  PrePrepareMsg m;
  auto view = dec.GetU64();
  auto seq = dec.GetU64();
  auto ts = dec.GetI64();
  if (!view.ok() || !seq.ok() || !ts.ok()) {
    return ErrorCode::kDecodeError;
  }
  auto batch = DecodeBatch(dec);
  if (!batch.ok()) {
    return batch.status();
  }
  m.view = *view;
  m.seq = *seq;
  m.ts = *ts;
  m.batch = std::move(*batch);
  return m;
}

std::vector<uint8_t> EncodePhaseMsg(const PhaseMsg& m) {
  Encoder enc;
  enc.PutU64(m.view);
  enc.PutU64(m.seq);
  enc.PutU64(m.digest);
  return enc.Release();
}

Result<PhaseMsg> DecodePhaseMsg(const std::vector<uint8_t>& buf) {
  Decoder dec(buf);
  auto view = dec.GetU64();
  auto seq = dec.GetU64();
  auto digest = dec.GetU64();
  if (!view.ok() || !seq.ok() || !digest.ok()) {
    return ErrorCode::kDecodeError;
  }
  return PhaseMsg{*view, *seq, *digest};
}

std::vector<uint8_t> EncodeReplyMsg(const ReplyMsg& m) {
  Encoder enc;
  enc.PutU64(m.req_id);
  enc.PutU64(m.view);
  enc.PutBytes(m.payload);
  return enc.Release();
}

Result<ReplyMsg> DecodeReplyMsg(const std::vector<uint8_t>& buf) {
  Decoder dec(buf);
  ReplyMsg m;
  auto req_id = dec.GetU64();
  auto view = dec.GetU64();
  if (!req_id.ok() || !view.ok()) {
    return ErrorCode::kDecodeError;
  }
  auto payload = dec.GetBytes();
  if (!payload.ok()) {
    return payload.status();
  }
  m.req_id = *req_id;
  m.view = *view;
  m.payload = std::move(*payload);
  return m;
}

std::vector<uint8_t> EncodeViewChange(const ViewChangeMsg& m) {
  Encoder enc;
  enc.PutU64(m.new_view);
  enc.PutU64(m.last_executed);
  enc.PutVarint(m.prepared.size());
  for (const PreparedEntry& e : m.prepared) {
    EncodePreparedEntry(enc, e);
  }
  return enc.Release();
}

Result<ViewChangeMsg> DecodeViewChange(const std::vector<uint8_t>& buf) {
  Decoder dec(buf);
  ViewChangeMsg m;
  auto view = dec.GetU64();
  auto last = dec.GetU64();
  if (!view.ok() || !last.ok()) {
    return ErrorCode::kDecodeError;
  }
  m.new_view = *view;
  m.last_executed = *last;
  auto n = dec.GetVarint();
  if (!n.ok()) {
    return n.status();
  }
  for (uint64_t i = 0; i < *n; ++i) {
    auto e = DecodePreparedEntry(dec);
    if (!e.ok()) {
      return e.status();
    }
    m.prepared.push_back(std::move(*e));
  }
  return m;
}

std::vector<uint8_t> EncodeNewView(const NewViewMsg& m) {
  Encoder enc;
  enc.PutU64(m.new_view);
  enc.PutVarint(m.reproposed.size());
  for (const PreparedEntry& e : m.reproposed) {
    EncodePreparedEntry(enc, e);
  }
  return enc.Release();
}

std::vector<uint8_t> EncodeCheckpoint(const CheckpointMsg& m) {
  Encoder enc;
  enc.PutU64(m.view);
  enc.PutU64(m.seq);
  enc.PutU64(m.digest);
  return enc.Release();
}

Result<CheckpointMsg> DecodeCheckpoint(const std::vector<uint8_t>& buf) {
  Decoder dec(buf);
  auto view = dec.GetU64();
  auto seq = dec.GetU64();
  auto digest = dec.GetU64();
  if (!view.ok() || !seq.ok() || !digest.ok()) {
    return ErrorCode::kDecodeError;
  }
  return CheckpointMsg{*view, *seq, *digest};
}

std::vector<uint8_t> EncodeStateRequest(const StateRequestMsg& m) {
  Encoder enc;
  enc.PutU64(m.last_executed);
  return enc.Release();
}

Result<StateRequestMsg> DecodeStateRequest(const std::vector<uint8_t>& buf) {
  Decoder dec(buf);
  auto last = dec.GetU64();
  if (!last.ok()) {
    return last.status();
  }
  return StateRequestMsg{*last};
}

std::vector<uint8_t> EncodeStateResponse(const StateResponseMsg& m) {
  Encoder enc;
  enc.PutU64(m.view);
  enc.PutU64(m.seq);
  enc.PutU64(m.digest);
  enc.PutBytes(m.state);
  return enc.Release();
}

Result<StateResponseMsg> DecodeStateResponse(const std::vector<uint8_t>& buf) {
  Decoder dec(buf);
  StateResponseMsg m;
  auto view = dec.GetU64();
  auto seq = dec.GetU64();
  auto digest = dec.GetU64();
  if (!view.ok() || !seq.ok() || !digest.ok()) {
    return ErrorCode::kDecodeError;
  }
  auto state = dec.GetBytes();
  if (!state.ok()) {
    return state.status();
  }
  m.view = *view;
  m.seq = *seq;
  m.digest = *digest;
  m.state = std::move(*state);
  return m;
}

Result<NewViewMsg> DecodeNewView(const std::vector<uint8_t>& buf) {
  Decoder dec(buf);
  NewViewMsg m;
  auto view = dec.GetU64();
  if (!view.ok()) {
    return view.status();
  }
  m.new_view = *view;
  auto n = dec.GetVarint();
  if (!n.ok()) {
    return n.status();
  }
  for (uint64_t i = 0; i < *n; ++i) {
    auto e = DecodePreparedEntry(dec);
    if (!e.ok()) {
      return e.status();
    }
    m.reproposed.push_back(std::move(*e));
  }
  return m;
}

}  // namespace edc
