// Test oracle: the tuple space as a linear scan.
//
// The tuple space's contract (edc/ds/tuple_space.h) is what a scan of all
// entries in insertion order gives: the first match for rdp/inp/replace,
// every match in order for rdAll, lease expiry in insertion order, and a
// serialized image listing the entries in that order. This class is that
// scan, written as directly as possible — every operation walks the whole
// space. Production indexes the space; the differential test runs random
// operation sequences against both and requires the same answers, the same
// Serialize() bytes and the same Digest().

#ifndef EDC_TESTS_ORACLE_LINEAR_TUPLE_SPACE_H_
#define EDC_TESTS_ORACLE_LINEAR_TUPLE_SPACE_H_

#include <cstdint>
#include <vector>

#include "edc/common/result.h"
#include "edc/ds/tuple_space.h"
#include "edc/ds/types.h"

namespace edc {

class LinearTupleSpace {
 public:
  void Out(DsTuple tuple, SimTime now, NodeId owner, Duration lease);
  Result<DsTuple> Rdp(const DsTemplate& templ) const;
  Result<DsTuple> Inp(const DsTemplate& templ);
  std::vector<DsEntry> RdAll(const DsTemplate& templ) const;
  Status Cas(const DsTemplate& templ, DsTuple tuple, SimTime now, NodeId owner,
             Duration lease);
  Status Replace(const DsTemplate& templ, DsTuple tuple, SimTime now, NodeId owner,
                 DsTuple* removed);
  size_t Renew(const DsTemplate& templ, NodeId owner, SimTime now, Duration lease);
  std::vector<DsTuple> Expire(SimTime now);
  bool HasMatch(const DsTemplate& templ) const;
  size_t size() const { return entries_.size(); }

  std::vector<uint8_t> Serialize() const;
  Status Load(const std::vector<uint8_t>& snapshot);
  uint64_t Digest() const;

 private:
  std::vector<DsEntry> entries_;
  uint64_t next_seq_ = 1;
};

}  // namespace edc

#endif  // EDC_TESTS_ORACLE_LINEAR_TUPLE_SPACE_H_
