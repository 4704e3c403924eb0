#include "edc/check/ds_model.h"

#include <algorithm>
#include <variant>

namespace edc {

bool DsModel::HasMatch(const DsTemplate& templ) const { return FindMatch(templ) >= 0; }

int DsModel::FindMatch(const DsTemplate& templ) const {
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (TupleMatches(templ, entries_[i].tuple)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

void DsModel::Expire(SimTime ts) {
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [ts](const Entry& e) {
                                  return e.deadline != 0 && e.deadline <= ts;
                                }),
                 entries_.end());
}

void DsModel::Unblock(const DsTuple& created, std::vector<DsModelReply>* replies) {
  // All non-consuming (rd) waiters whose template matches, in list order; the
  // reply carries the created tuple itself, as long as some match remains.
  auto it = waiters_.begin();
  while (it != waiters_.end()) {
    if (it->consume || !TupleMatches(it->templ, created) || !HasMatch(it->templ)) {
      ++it;
      continue;
    }
    DsReply reply;
    reply.tuples.push_back(created);
    replies->push_back(DsModelReply{it->client, it->req_id, std::move(reply)});
    it = waiters_.erase(it);
  }
  // The single oldest consuming (in) waiter; it removes the first tuple its
  // own template matches, which may differ from the created one.
  Waiter* best = nullptr;
  for (Waiter& w : waiters_) {
    if (w.consume && TupleMatches(w.templ, created) &&
        (best == nullptr || w.order < best->order)) {
      best = &w;
    }
  }
  if (best == nullptr) {
    return;
  }
  int idx = FindMatch(best->templ);
  if (idx < 0) {
    return;
  }
  DsReply reply;
  reply.tuples.push_back(entries_[static_cast<size_t>(idx)].tuple);
  replies->push_back(DsModelReply{best->client, best->req_id, std::move(reply)});
  entries_.erase(entries_.begin() + idx);
  uint64_t order = best->order;
  waiters_.erase(std::remove_if(waiters_.begin(), waiters_.end(),
                                [order](const Waiter& w) { return w.order == order; }),
                 waiters_.end());
}

std::vector<DsModelReply> DsModel::Execute(SimTime ts, NodeId client, uint64_t req_id,
                                           const std::vector<uint8_t>& payload) {
  std::vector<DsModelReply> replies;
  auto reply_error = [&](const Status& s) {
    DsReply reply;
    reply.code = s.code();
    reply.value = s.message();
    replies.push_back(DsModelReply{client, req_id, std::move(reply)});
  };
  auto reply_ok = [&](DsReply reply) {
    replies.push_back(DsModelReply{client, req_id, std::move(reply)});
  };

  Expire(ts);

  auto op = DecodeMsg<DsOp>(payload);
  if (!op.ok()) {
    reply_error(Status(ErrorCode::kDecodeError));
    return replies;
  }

  // Map-version protocol — mirror of the replicated check in
  // DsServer::Execute (docs/sharding.md).
  if (op->type == DsOpType::kSetMapVersion) {
    if (op->map_version > map_version_) {
      map_version_ = op->map_version;
    }
    DsReply reply;
    reply.value = std::to_string(map_version_);
    reply_ok(std::move(reply));
    return replies;
  }
  if (map_version_ > 0 && op->map_version < map_version_) {
    DsReply reply;
    reply.code = ErrorCode::kShardMapStale;
    reply.value = std::to_string(map_version_);
    replies.push_back(DsModelReply{client, req_id, std::move(reply)});
    return replies;
  }

  // The default /em access rule, on the tuple an op writes and the template
  // it matches, before the op touches the space. RdAll's denial is an empty
  // OK reply (DsExecContext::RdAll swallows the status); Renew skips it.
  const bool writes = op->type == DsOpType::kOut || op->type == DsOpType::kCas ||
                      op->type == DsOpType::kReplace;
  Status access = CheckEmAccess(op->type, writes ? &op->tuple : nullptr,
                                op->type == DsOpType::kOut ? nullptr : &op->templ);
  if (!access.ok() && op->type != DsOpType::kRdAll && op->type != DsOpType::kRenew) {
    reply_error(access);
    return replies;
  }

  switch (op->type) {
    case DsOpType::kOut: {
      DsTuple created = op->tuple;
      entries_.push_back(Entry{op->tuple, op->lease > 0 ? ts + op->lease : 0, client});
      reply_ok(DsReply{});
      Unblock(created, &replies);
      break;
    }
    case DsOpType::kRdp: {
      int idx = FindMatch(op->templ);
      if (idx < 0) {
        reply_error(Status(ErrorCode::kNoNode, "no matching tuple"));
        break;
      }
      DsReply reply;
      reply.tuples.push_back(entries_[static_cast<size_t>(idx)].tuple);
      reply_ok(std::move(reply));
      break;
    }
    case DsOpType::kInp: {
      int idx = FindMatch(op->templ);
      if (idx < 0) {
        reply_error(Status(ErrorCode::kNoNode, "no matching tuple"));
        break;
      }
      DsReply reply;
      reply.tuples.push_back(entries_[static_cast<size_t>(idx)].tuple);
      entries_.erase(entries_.begin() + idx);
      reply_ok(std::move(reply));
      break;
    }
    case DsOpType::kRd:
    case DsOpType::kIn: {
      bool consume = op->type == DsOpType::kIn;
      int idx = FindMatch(op->templ);
      if (idx >= 0) {
        DsReply reply;
        reply.tuples.push_back(entries_[static_cast<size_t>(idx)].tuple);
        if (consume) {
          entries_.erase(entries_.begin() + idx);
        }
        reply_ok(std::move(reply));
      } else {
        waiters_.push_back(Waiter{op->templ, client, req_id, consume, next_waiter_order_++});
      }
      break;
    }
    case DsOpType::kCas: {
      if (HasMatch(op->templ)) {
        reply_error(Status(ErrorCode::kNodeExists, "template already matched"));
        break;
      }
      DsTuple created = op->tuple;
      entries_.push_back(Entry{op->tuple, op->lease > 0 ? ts + op->lease : 0, client});
      reply_ok(DsReply{});
      Unblock(created, &replies);
      break;
    }
    case DsOpType::kReplace: {
      int idx = FindMatch(op->templ);
      if (idx < 0) {
        reply_error(Status(ErrorCode::kNoNode, "no matching tuple"));
        break;
      }
      entries_.erase(entries_.begin() + idx);
      // Replacement tuples carry no lease and raise a "changed" event, which
      // never unblocks waiters (see DsExecContext::Replace).
      entries_.push_back(Entry{op->tuple, 0, client});
      reply_ok(DsReply{});
      break;
    }
    case DsOpType::kRdAll: {
      DsReply reply;
      for (const Entry& e : entries_) {
        if (access.ok() && TupleMatches(op->templ, e.tuple)) {
          reply.tuples.push_back(e.tuple);
        }
      }
      reply_ok(std::move(reply));
      break;
    }
    case DsOpType::kSetMapVersion:
      break;  // handled above, before the switch
    case DsOpType::kRenew: {
      size_t count = 0;
      for (Entry& e : entries_) {
        if (e.deadline != 0 && e.owner == client && TupleMatches(op->templ, e.tuple)) {
          e.deadline = ts + op->lease;
          ++count;
        }
      }
      DsReply reply;
      reply.value = std::to_string(count);
      reply_ok(std::move(reply));
      break;
    }
  }
  return replies;
}

}  // namespace edc
