// Executable sequential model of the DepSpace-like service.
//
// The model consumes the totally ordered request stream (seq, ts, client,
// req_id, payload) the BFT layer executes and mirrors DsServer::Execute for
// the plain (extension-free) configuration: deterministic lease expiry at the
// ordered timestamp, the default /em access rule, every operation of
// ExecuteNormal including its quirks (RdAll returning an empty OK reply on
// ACL denial, Renew skipping ACL, Replace never unblocking waiters), and the
// waiter-unblock pass of ProcessEvents. Each step yields the replies a
// correct replica must have sent; the conformance checker matches them
// against what clients actually accepted.

#ifndef EDC_CHECK_DS_MODEL_H_
#define EDC_CHECK_DS_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "edc/ds/types.h"
#include "edc/sim/network.h"
#include "edc/sim/time.h"

namespace edc {

struct DsModelReply {
  NodeId client = 0;
  uint64_t req_id = 0;
  DsReply reply;
};

class DsModel {
 public:
  // Executes one ordered request; returns every reply it generates (the
  // request's own plus any waiter unblocks).
  std::vector<DsModelReply> Execute(SimTime ts, NodeId client, uint64_t req_id,
                                    const std::vector<uint8_t>& payload);

  size_t space_size() const { return entries_.size(); }
  size_t waiter_count() const { return waiters_.size(); }

 private:
  struct Entry {
    DsTuple tuple;
    SimTime deadline = 0;  // 0 = no lease
    NodeId owner = 0;
  };
  struct Waiter {
    DsTemplate templ;
    NodeId client = 0;
    uint64_t req_id = 0;
    bool consume = false;
    uint64_t order = 0;
  };

  bool HasMatch(const DsTemplate& templ) const;
  // First match in insertion order; removes it when `consume`.
  int FindMatch(const DsTemplate& templ) const;  // index or -1
  void Expire(SimTime ts);
  // Waiter-unblock pass for one created tuple (ProcessEvents semantics).
  void Unblock(const DsTuple& created, std::vector<DsModelReply>* replies);

  std::vector<Entry> entries_;
  std::vector<Waiter> waiters_;
  uint64_t map_version_ = 0;  // mirrors DsServer's replicated shard-map version
  uint64_t next_waiter_order_ = 1;
};

}  // namespace edc

#endif  // EDC_CHECK_DS_MODEL_H_
