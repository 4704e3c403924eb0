#include "edc/ds/tuple_space.h"

#include <algorithm>
#include <utility>

#include "edc/common/hash.h"

namespace edc {

void TupleSpace::Out(DsTuple tuple, SimTime now, NodeId owner, Duration lease) {
  DsEntry entry;
  entry.tuple = std::move(tuple);
  entry.seq = next_seq_++;
  entry.ctime = now;
  entry.deadline = lease > 0 ? now + lease : 0;
  entry.owner = owner;
  Insert(std::move(entry));
}

namespace {

// The indexed prefixes under which a string first field `s` is listed: each
// p that `s` continues with a '/', so that FieldMatches(Prefix(p), s), other
// than "" and "/" (those two match nearly every path; they scan).
template <typename Fn>
void ForEachIndexedPrefixOf(const std::string& s, Fn&& fn) {
  for (size_t i = s[0] == '/' ? 2 : 1; i < s.size(); ++i) {
    if (s[i] == '/') {
      fn(s.substr(0, i));
    }
  }
}

}  // namespace

void TupleSpace::Insert(DsEntry entry) {
  uint64_t seq = entry.seq;
  const DsEntry& e = entries_.emplace_hint(entries_.end(), seq, std::move(entry))->second;
  if (!e.tuple.empty()) {
    by_first_.emplace(e.tuple[0], &e);
    if (const auto* path = std::get_if<std::string>(&e.tuple[0]); path && !path->empty()) {
      ForEachIndexedPrefixOf(*path, [this, &e](std::string prefix) {
        EntrySet& matches = by_prefix_[std::move(prefix)];
        matches.insert(matches.end(), &e);  // seqs only grow
      });
    }
  }
  if (e.deadline != 0) {
    leases_.emplace(e.deadline, seq);
  }
}

DsTuple TupleSpace::Remove(const DsEntry& entry) {
  if (on_removed_) {
    on_removed_(entry);
  }
  if (!entry.tuple.empty()) {
    auto [it, end] = by_first_.equal_range(entry.tuple[0]);
    while (it->second != &entry) {
      ++it;
    }
    by_first_.erase(it);
    if (const auto* path = std::get_if<std::string>(&entry.tuple[0]); path && !path->empty()) {
      ForEachIndexedPrefixOf(*path, [this, &entry](const std::string& prefix) {
        auto bucket = by_prefix_.find(prefix);
        bucket->second.erase(&entry);
        if (bucket->second.empty()) {
          by_prefix_.erase(bucket);
        }
      });
    }
  }
  if (entry.deadline != 0) {
    leases_.erase({entry.deadline, entry.seq});
  }
  auto node = entries_.extract(entry.seq);
  return std::move(node.mapped().tuple);
}

void TupleSpace::Clear() {
  entries_.clear();
  by_first_.clear();
  by_prefix_.clear();
  leases_.clear();
  next_seq_ = 1;
}

const TupleSpace::EntrySet* TupleSpace::IndexedMatches(const DsTField& first) const {
  static const EntrySet kNone;
  const auto* prefix = std::get_if<std::string>(&first.value);
  if (prefix == nullptr) {
    return &kNone;  // a prefix matches string fields only
  }
  if (prefix->empty() || *prefix == "/") {
    return nullptr;
  }
  auto it = by_prefix_.find(*prefix);
  return it == by_prefix_.end() ? &kNone : &it->second;
}

const DsEntry* TupleSpace::FirstMatch(const DsTemplate& templ) const {
  const DsEntry* first = nullptr;
  ForEachMatch(templ, [&first](const DsEntry& e) {
    first = &e;
    return false;
  });
  return first;
}

Result<DsTuple> TupleSpace::Rdp(const DsTemplate& templ) const {
  if (const DsEntry* e = FirstMatch(templ)) {
    return e->tuple;
  }
  return Status(ErrorCode::kNoNode, "no matching tuple");
}

Result<DsTuple> TupleSpace::Inp(const DsTemplate& templ) {
  if (const DsEntry* e = FirstMatch(templ)) {
    return Remove(*e);
  }
  return Status(ErrorCode::kNoNode, "no matching tuple");
}

std::vector<DsEntry> TupleSpace::RdAll(const DsTemplate& templ) const {
  std::vector<DsEntry> out;
  ForEachMatch(templ, [&out](const DsEntry& e) {
    out.push_back(e);
    return true;
  });
  return out;
}

Status TupleSpace::Cas(const DsTemplate& templ, DsTuple tuple, SimTime now, NodeId owner,
                       Duration lease) {
  if (HasMatch(templ)) {
    return Status(ErrorCode::kNodeExists, "template already matched");
  }
  Out(std::move(tuple), now, owner, lease);
  return Status::Ok();
}

Status TupleSpace::Replace(const DsTemplate& templ, DsTuple tuple, SimTime now, NodeId owner,
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

size_t TupleSpace::Renew(const DsTemplate& templ, NodeId owner, SimTime now, Duration lease) {
  std::vector<uint64_t> renewed;
  ForEachMatch(templ, [&renewed, owner](const DsEntry& e) {
    if (e.deadline != 0 && e.owner == owner) {
      renewed.push_back(e.seq);
    }
    return true;
  });
  for (uint64_t seq : renewed) {
    DsEntry& e = entries_.at(seq);
    leases_.erase({e.deadline, seq});
    e.deadline = now + lease;
    leases_.emplace(e.deadline, seq);
  }
  return renewed.size();
}

std::vector<DsTuple> TupleSpace::Expire(SimTime now) {
  std::vector<DsTuple> expired;
  if (leases_.empty() || leases_.begin()->first > now) {
    return expired;
  }
  std::vector<uint64_t> due;
  for (auto it = leases_.begin(); it != leases_.end() && it->first <= now; ++it) {
    due.push_back(it->second);
  }
  std::sort(due.begin(), due.end());  // insertion order
  for (uint64_t seq : due) {
    expired.push_back(Remove(entries_.at(seq)));
  }
  return expired;
}

bool TupleSpace::HasMatch(const DsTemplate& templ) const { return FirstMatch(templ) != nullptr; }

std::vector<uint8_t> TupleSpace::Serialize() const {
  Encoder enc;
  enc.U64(next_seq_);
  enc.List(entries_, [&](auto& e) { Fields(enc, e.second); });
  return enc.Release();
}

uint64_t TupleSpace::Digest() const { return Fnv1a64(Serialize()); }

Status TupleSpace::Load(std::span<const uint8_t> snapshot) {
  Clear();
  if (snapshot.empty()) {
    return Status::Ok();
  }
  Decoder dec(snapshot);
  uint64_t next_seq = 0;
  std::vector<DsEntry> entries;
  dec.U64(next_seq);
  dec.List(entries);
  if (!dec.ok()) {
    return Status(ErrorCode::kDecodeError, "tuple space entry");
  }
  for (size_t i = 0; i < entries.size(); ++i) {
    if ((i > 0 && entries[i].seq <= entries[i - 1].seq) || entries[i].seq >= next_seq) {
      Clear();
      return Status(ErrorCode::kDecodeError, "tuple space entry seqs out of order");
    }
    Insert(std::move(entries[i]));
  }
  next_seq_ = next_seq;
  return Status::Ok();
}

}  // namespace edc
