#include "tests/oracle/linear_tuple_space.h"

#include <algorithm>
#include <utility>

#include "edc/common/hash.h"

namespace edc {

void LinearTupleSpace::Out(DsTuple tuple, SimTime now, NodeId owner, Duration lease) {
  DsEntry entry;
  entry.tuple = std::move(tuple);
  entry.seq = next_seq_++;
  entry.ctime = now;
  entry.deadline = lease > 0 ? now + lease : 0;
  entry.owner = owner;
  entries_.push_back(std::move(entry));
}

Result<DsTuple> LinearTupleSpace::Rdp(const DsTemplate& templ) const {
  for (const DsEntry& e : entries_) {
    if (TupleMatches(templ, e.tuple)) {
      return e.tuple;
    }
  }
  return Status(ErrorCode::kNoNode, "no matching tuple");
}

Result<DsTuple> LinearTupleSpace::Inp(const DsTemplate& templ) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (TupleMatches(templ, it->tuple)) {
      DsTuple t = std::move(it->tuple);
      entries_.erase(it);
      return t;
    }
  }
  return Status(ErrorCode::kNoNode, "no matching tuple");
}

std::vector<DsEntry> LinearTupleSpace::RdAll(const DsTemplate& templ) const {
  std::vector<DsEntry> out;
  for (const DsEntry& e : entries_) {
    if (TupleMatches(templ, e.tuple)) {
      out.push_back(e);
    }
  }
  return out;
}

Status LinearTupleSpace::Cas(const DsTemplate& templ, DsTuple tuple, SimTime now, NodeId owner,
                       Duration lease) {
  if (HasMatch(templ)) {
    return Status(ErrorCode::kNodeExists, "template already matched");
  }
  Out(std::move(tuple), now, owner, lease);
  return Status::Ok();
}

Status LinearTupleSpace::Replace(const DsTemplate& templ, DsTuple tuple, SimTime now, NodeId owner,
                           DsTuple* removed) {
  auto old = Inp(templ);
  if (!old.ok()) {
    return old.status();
  }
  if (removed != nullptr) {
    *removed = std::move(*old);
  }
  Out(std::move(tuple), now, owner, 0);
  return Status::Ok();
}

size_t LinearTupleSpace::Renew(const DsTemplate& templ, NodeId owner, SimTime now, Duration lease) {
  size_t renewed = 0;
  for (DsEntry& e : entries_) {
    if (e.deadline != 0 && e.owner == owner && TupleMatches(templ, e.tuple)) {
      e.deadline = now + lease;
      ++renewed;
    }
  }
  return renewed;
}

std::vector<DsTuple> LinearTupleSpace::Expire(SimTime now) {
  std::vector<DsTuple> expired;
  auto it = entries_.begin();
  while (it != entries_.end()) {
    if (it->deadline != 0 && it->deadline <= now) {
      expired.push_back(std::move(it->tuple));
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  return expired;
}

bool LinearTupleSpace::HasMatch(const DsTemplate& templ) const {
  for (const DsEntry& e : entries_) {
    if (TupleMatches(templ, e.tuple)) {
      return true;
    }
  }
  return false;
}

std::vector<uint8_t> LinearTupleSpace::Serialize() const {
  Encoder enc;
  enc.U64(next_seq_);
  enc.List(entries_);
  return enc.Release();
}

uint64_t LinearTupleSpace::Digest() const { return Fnv1a64(Serialize()); }

Status LinearTupleSpace::Load(const std::vector<uint8_t>& snapshot) {
  entries_.clear();
  next_seq_ = 1;
  if (snapshot.empty()) {
    return Status::Ok();
  }
  Decoder dec(snapshot);
  dec.U64(next_seq_);
  dec.List(entries_);
  return dec.status();
}

}  // namespace edc
