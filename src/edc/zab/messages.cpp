#include "edc/zab/messages.h"

namespace edc {

std::vector<uint8_t> EncodeZabMembership(const ZabMembership& m) {
  Encoder enc;
  enc.PutVarint(m.voters.size());
  for (NodeId v : m.voters) {
    enc.PutU32(v);
  }
  enc.PutVarint(m.observers.size());
  for (NodeId o : m.observers) {
    enc.PutU32(o);
  }
  return enc.Release();
}

Result<ZabRecordView> DecodeZabRecordView(std::span<const uint8_t> record) {
  Decoder dec(record.data(), record.size());
  ZabRecordView v;
  auto zxid = dec.GetU64();
  auto flags = dec.GetU8();
  auto n = dec.GetVarint();
  if (!zxid.ok() || !flags.ok() || !n.ok() || dec.remaining() != *n) {
    return Status(ErrorCode::kDecodeError, "malformed log record");
  }
  v.zxid = *zxid;
  v.flags = *flags;
  v.txn = record.subspan(record.size() - dec.remaining());
  return v;
}

Result<ZabMembership> DecodeZabMembership(std::span<const uint8_t> buf) {
  Decoder dec(buf.data(), buf.size());
  ZabMembership m;
  auto nv = dec.GetVarint();
  if (!nv.ok()) {
    return nv.status();
  }
  for (uint64_t i = 0; i < *nv; ++i) {
    auto v = dec.GetU32();
    if (!v.ok()) {
      return v.status();
    }
    m.voters.push_back(*v);
  }
  auto no = dec.GetVarint();
  if (!no.ok()) {
    return no.status();
  }
  for (uint64_t i = 0; i < *no; ++i) {
    auto o = dec.GetU32();
    if (!o.ok()) {
      return o.status();
    }
    m.observers.push_back(*o);
  }
  if (m.voters.empty()) {
    return Status(ErrorCode::kDecodeError, "membership without voters");
  }
  return m;
}

std::vector<uint8_t> EncodeZabSnapshot(const ZabSnapshot& s) {
  Encoder enc;
  enc.PutBytes(EncodeZabMembership(s.membership));
  enc.PutBytes(s.state);
  return enc.Release();
}

Result<ZabSnapshot> DecodeZabSnapshot(const std::vector<uint8_t>& buf) {
  Decoder dec(buf);
  ZabSnapshot s;
  auto member_bytes = dec.GetBytes();
  if (!member_bytes.ok()) {
    return member_bytes.status();
  }
  auto membership = DecodeZabMembership(*member_bytes);
  if (!membership.ok()) {
    return membership.status();
  }
  s.membership = std::move(*membership);
  auto state = dec.GetBytes();
  if (!state.ok()) {
    return state.status();
  }
  s.state = std::move(*state);
  return s;
}

std::vector<uint8_t> EncodeElectionVote(const ElectionVote& m) {
  Encoder enc;
  enc.PutU64(m.election_round);
  enc.PutU32(m.vote_for);
  enc.PutU64(m.vote_zxid);
  enc.PutU32(m.vote_epoch);
  enc.PutU32(m.from);
  enc.PutBool(m.from_looking);
  return enc.Release();
}

Result<ElectionVote> DecodeElectionVote(const std::vector<uint8_t>& buf) {
  Decoder dec(buf);
  ElectionVote m;
  auto round = dec.GetU64();
  auto vote_for = dec.GetU32();
  auto vote_zxid = dec.GetU64();
  auto vote_epoch = dec.GetU32();
  auto from = dec.GetU32();
  auto looking = dec.GetBool();
  if (!round.ok() || !vote_for.ok() || !vote_zxid.ok() || !vote_epoch.ok() || !from.ok() ||
      !looking.ok()) {
    return ErrorCode::kDecodeError;
  }
  m.election_round = *round;
  m.vote_for = *vote_for;
  m.vote_zxid = *vote_zxid;
  m.vote_epoch = *vote_epoch;
  m.from = *from;
  m.from_looking = *looking;
  return m;
}

std::vector<uint8_t> EncodeLeaderInfo(const LeaderInfo& m) {
  Encoder enc;
  enc.PutU32(m.leader);
  enc.PutU32(m.epoch);
  return enc.Release();
}

Result<LeaderInfo> DecodeLeaderInfo(const std::vector<uint8_t>& buf) {
  Decoder dec(buf);
  auto leader = dec.GetU32();
  auto epoch = dec.GetU32();
  if (!leader.ok() || !epoch.ok()) {
    return ErrorCode::kDecodeError;
  }
  return LeaderInfo{*leader, *epoch};
}

std::vector<uint8_t> EncodeFollowerInfo(const FollowerInfo& m) {
  Encoder enc;
  enc.PutU64(m.last_zxid);
  return enc.Release();
}

Result<FollowerInfo> DecodeFollowerInfo(const std::vector<uint8_t>& buf) {
  Decoder dec(buf);
  auto zxid = dec.GetU64();
  if (!zxid.ok()) {
    return ErrorCode::kDecodeError;
  }
  return FollowerInfo{*zxid};
}

std::vector<uint8_t> EncodeDiffMsg(const DiffMsg& m) {
  Encoder enc;
  enc.PutU64(m.committed_zxid);
  enc.PutVarint(m.records.size());
  std::vector<uint8_t> out = enc.Release();
  for (std::span<const uint8_t> record : m.records) {
    out.insert(out.end(), record.begin(), record.end());
  }
  return out;
}

Result<DiffMsg> DecodeDiffMsg(const std::vector<uint8_t>& buf) {
  Decoder dec(buf);
  DiffMsg m;
  auto committed = dec.GetU64();
  if (!committed.ok()) {
    return committed.status();
  }
  m.committed_zxid = *committed;
  auto n = dec.GetVarint();
  if (!n.ok()) {
    return n.status();
  }
  size_t pos = buf.size() - dec.remaining();
  for (uint64_t i = 0; i < *n; ++i) {
    // A record is u64 zxid + u8 flags + varint length + txn.
    Decoder rec(buf.data() + pos, buf.size() - pos);
    auto zxid = rec.GetU64();
    auto flags = rec.GetU8();
    auto len = rec.GetVarint();
    if (!zxid.ok() || !flags.ok() || !len.ok() || rec.remaining() < *len) {
      return Status(ErrorCode::kDecodeError, "truncated buffer");
    }
    size_t size = buf.size() - pos - rec.remaining() + *len;
    m.records.emplace_back(buf.data() + pos, size);
    pos += size;
  }
  return m;
}

std::vector<uint8_t> EncodeSnapMsg(const SnapMsg& m) {
  Encoder enc;
  enc.PutU64(m.snapshot_zxid);
  enc.PutU32(m.epoch);
  enc.PutBytes(m.snapshot);
  return enc.Release();
}

Result<SnapMsg> DecodeSnapMsg(const std::vector<uint8_t>& buf) {
  Decoder dec(buf);
  SnapMsg m;
  auto zxid = dec.GetU64();
  auto epoch = dec.GetU32();
  if (!zxid.ok() || !epoch.ok()) {
    return ErrorCode::kDecodeError;
  }
  auto snap = dec.GetBytes();
  if (!snap.ok()) {
    return snap.status();
  }
  m.snapshot_zxid = *zxid;
  m.epoch = *epoch;
  m.snapshot = std::move(*snap);
  return m;
}

std::vector<uint8_t> EncodeEpochMsg(const EpochMsg& m) {
  Encoder enc;
  enc.PutU32(m.epoch);
  enc.PutU64(m.committed_zxid);
  return enc.Release();
}

Result<EpochMsg> DecodeEpochMsg(const std::vector<uint8_t>& buf) {
  Decoder dec(buf);
  auto epoch = dec.GetU32();
  auto committed = dec.GetU64();
  if (!epoch.ok() || !committed.ok()) {
    return ErrorCode::kDecodeError;
  }
  return EpochMsg{*epoch, *committed};
}

std::vector<uint8_t> EncodeProposeMsg(const ProposeMsg& m) {
  Encoder enc;
  EncodeProposeMsgInto(m, enc);
  return enc.Release();
}

void EncodeProposeMsgInto(const ProposeMsg& m, Encoder& enc) {
  enc.PutU32(m.epoch);
  m.proposal.Encode(enc);
}

Result<ProposeMsg> DecodeProposeMsg(const std::vector<uint8_t>& buf) {
  Decoder dec(buf);
  ProposeMsg m;
  auto epoch = dec.GetU32();
  if (!epoch.ok()) {
    return epoch.status();
  }
  m.epoch = *epoch;
  auto p = ZabProposal::Decode(dec);
  if (!p.ok()) {
    return p.status();
  }
  m.proposal = std::move(*p);
  return m;
}

Result<ProposeFrameView> DecodeProposeMsgView(const std::vector<uint8_t>& buf) {
  Decoder dec(buf);
  ProposeFrameView v;
  auto epoch = dec.GetU32();
  if (!epoch.ok()) {
    return epoch.status();
  }
  v.epoch = *epoch;
  v.record = buf.data() + kProposeHeaderBytes;
  v.record_size = buf.size() - kProposeHeaderBytes;
  auto zxid = dec.GetU64();
  if (!zxid.ok()) {
    return zxid.status();
  }
  v.zxid = *zxid;
  auto flags = dec.GetU8();
  if (!flags.ok()) {
    return flags.status();
  }
  v.flags = *flags;
  auto n = dec.GetVarint();
  if (!n.ok()) {
    return n.status();
  }
  if (dec.remaining() < *n) {
    return Status(ErrorCode::kDecodeError, "truncated buffer");
  }
  v.txn = buf.data() + (buf.size() - dec.remaining());
  v.txn_size = static_cast<size_t>(*n);
  return v;
}

std::vector<uint8_t> EncodeZxidMsg(const ZxidMsg& m) {
  Encoder enc;
  enc.PutU32(m.epoch);
  enc.PutU64(m.zxid);
  return enc.Release();
}

Result<ZxidMsg> DecodeZxidMsg(const std::vector<uint8_t>& buf) {
  Decoder dec(buf);
  auto epoch = dec.GetU32();
  auto zxid = dec.GetU64();
  if (!epoch.ok() || !zxid.ok()) {
    return ErrorCode::kDecodeError;
  }
  return ZxidMsg{*epoch, *zxid};
}

}  // namespace edc
