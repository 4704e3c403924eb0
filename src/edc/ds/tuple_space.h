// Deterministic tuple-space state machine.
//
// Every mutation happens at an ordered timestamp supplied by the BFT layer,
// so all replicas hold identical spaces. Matching is by insertion order
// (deterministic); entries carry creation time (for the recipes' "lowest
// creation timestamp" selections) and an optional lease deadline — lease
// tuples are DepSpace's client-failure-detection primitive (monitor in
// Table 2): a tuple whose owner stops renewing it expires and disappears.
//
// Indexing. Entries are stored by their unique, increasing `seq`, so storage
// order is insertion order. Two indexes on the first field (the object path)
// let a template whose first field is exact visit only the tuples with that
// field, and a path-prefix template only the tuples under that path: each
// string path is listed, in insertion order, under every prefix that matches
// it ("/queue/a/x" under "/queue" and "/queue/a"). The prefixes "" and "/",
// which match nearly every path, and a first field of ANY scan the space
// instead. Lease tuples are kept by deadline, so Expire does no work when
// nothing is due. The indexes change what is visited, never the answer:
// every operation sees its matches in insertion order, exactly as a scan of
// the whole space would (first match for Rdp/Inp/Replace, all matches in
// order for RdAll), and Serialize writes the entries in that order.

#ifndef EDC_DS_TUPLE_SPACE_H_
#define EDC_DS_TUPLE_SPACE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "edc/common/result.h"
#include "edc/ds/types.h"
#include "edc/sim/network.h"

namespace edc {

struct DsEntry {
  DsTuple tuple;
  uint64_t seq = 0;       // insertion order, unique
  SimTime ctime = 0;      // ordered timestamp of the out
  SimTime deadline = 0;   // 0 = no lease
  NodeId owner = 0;       // client that inserted it (lease renewal rights)
};

template <class Io>
void Fields(Io& io, DsEntry& m) {
  io.List(m.tuple);
  io.U64(m.seq);
  io.I64(m.ctime);
  io.I64(m.deadline);
  io.U32(m.owner);
}

class TupleSpace {
 public:
  TupleSpace() = default;
  // The index points into the entry storage.
  TupleSpace(const TupleSpace&) = delete;
  TupleSpace& operator=(const TupleSpace&) = delete;

  // Called with each entry as it leaves the space through Inp, Replace or
  // Expire. Load replaces the whole space without calling it.
  using RemovalListener = std::function<void(const DsEntry&)>;
  void SetRemovalListener(RemovalListener listener) { on_removed_ = std::move(listener); }

  // Inserts; duplicates are allowed (a tuple space is a multiset).
  void Out(DsTuple tuple, SimTime now, NodeId owner, Duration lease);

  // First match in insertion order, not removed. Null status kNoNode if none.
  Result<DsTuple> Rdp(const DsTemplate& templ) const;
  // First match, removed.
  Result<DsTuple> Inp(const DsTemplate& templ);
  // All matches in insertion order.
  std::vector<DsEntry> RdAll(const DsTemplate& templ) const;
  // Calls `visit(const DsEntry&)` on each match in insertion order until it
  // returns false. The space must not change during the visit.
  template <typename Visit>
  void ForEachMatch(const DsTemplate& templ, Visit&& visit) const;

  // DepSpace cas: insert `tuple` iff nothing matches `templ`. Returns
  // kNodeExists with the blocking tuple otherwise.
  Status Cas(const DsTemplate& templ, DsTuple tuple, SimTime now, NodeId owner,
             Duration lease);

  // Atomic inp(templ)+out(tuple). If `expected_data` is set, the match's
  // second field must equal it (conditional replace, Table 2's cas(o,cc,nc)).
  // kNoNode if nothing matches, kBadVersion if the condition fails.
  Status Replace(const DsTemplate& templ, DsTuple tuple, SimTime now, NodeId owner,
                 DsTuple* removed);

  // Extends the deadline of matching lease tuples owned by `owner`.
  size_t Renew(const DsTemplate& templ, NodeId owner, SimTime now, Duration lease);

  // Removes tuples whose lease expired at `now`; returns them in insertion
  // order (the server turns them into deletion events).
  std::vector<DsTuple> Expire(SimTime now);

  bool HasMatch(const DsTemplate& templ) const;
  size_t size() const { return entries_.size(); }

  std::vector<uint8_t> Serialize() const;
  // Replaces the space with a Serialize() image. Rejects (kDecodeError,
  // leaving the space empty) an image whose entry seqs are not strictly
  // increasing or not below its next seq: the index and the object views
  // built over the space rely on unique seqs in insertion order.
  Status Load(std::span<const uint8_t> snapshot);

  // Order-sensitive fingerprint of the whole space (FNV-1a over the
  // serialized form). Replicas that executed the same ordered history agree
  // on it; invariant checkers compare it across replicas after heal.
  uint64_t Digest() const;

 private:
  struct SeqLess {
    bool operator()(const DsEntry* a, const DsEntry* b) const { return a->seq < b->seq; }
  };
  using EntrySet = std::set<const DsEntry*, SeqLess>;  // insertion order

  // The entries a prefix first field matches, from the index; nullptr for
  // the prefixes that scan instead.
  const EntrySet* IndexedMatches(const DsTField& first) const;
  const DsEntry* FirstMatch(const DsTemplate& templ) const;
  void Insert(DsEntry entry);
  DsTuple Remove(const DsEntry& entry);
  void Clear();

  std::map<uint64_t, DsEntry> entries_;  // by seq: insertion order
  // First field -> entries; within one key in insertion order (a multimap
  // appends equal keys, and seqs only grow).
  std::multimap<DsField, const DsEntry*> by_first_;
  std::unordered_map<std::string, EntrySet> by_prefix_;  // path prefix -> matches
  std::set<std::pair<SimTime, uint64_t>> leases_;  // (deadline, seq)
  uint64_t next_seq_ = 1;
  RemovalListener on_removed_;
};

template <typename Visit>
void TupleSpace::ForEachMatch(const DsTemplate& templ, Visit&& visit) const {
  DsTField::Kind first = templ.empty() ? DsTField::Kind::kAny : templ[0].kind;
  if (first == DsTField::Kind::kExact) {
    auto [it, end] = by_first_.equal_range(templ[0].value);
    for (; it != end; ++it) {
      if (TupleMatches(templ, it->second->tuple) && !visit(*it->second)) {
        return;
      }
    }
    return;
  }
  if (first == DsTField::Kind::kPrefix) {
    if (const EntrySet* matches = IndexedMatches(templ[0])) {
      for (const DsEntry* e : *matches) {
        if (TupleMatches(templ, e->tuple) && !visit(*e)) {
          return;
        }
      }
      return;
    }
  }
  for (const auto& [seq, e] : entries_) {
    if (TupleMatches(templ, e.tuple) && !visit(e)) {
      return;
    }
  }
}

}  // namespace edc

#endif  // EDC_DS_TUPLE_SPACE_H_
