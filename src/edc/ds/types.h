// Tuple-space types and wire protocol of the DepSpace-like service.
//
// The data model is an augmented tuple space (Linda heritage): tuples are
// sequences of int/string fields; templates match them field-wise with
// exact, wildcard (ANY) and prefix (SUB_ANY-style, for hierarchical names)
// entries. The coordination-object mapping used by the recipes stores each
// object as the pair <path, data>.
//
// Client requests ride inside BftRequest payloads (packet types are the BFT
// range); this header defines their encoding.

#ifndef EDC_DS_TYPES_H_
#define EDC_DS_TYPES_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "edc/common/codec.h"
#include "edc/common/result.h"
#include "edc/common/strings.h"
#include "edc/sim/time.h"

namespace edc {

// EDS's /em tuples: <"/em/<name>", registration> and, for each client that
// acknowledged it, <"/em/<name>/ack/<client id>", client id>.
inline constexpr EmLayout kDsEmLayout{"ack/"};

using DsField = std::variant<int64_t, std::string>;

struct DsTField {
  enum class Kind : uint8_t { kExact = 0, kAny = 1, kPrefix = 2 };
  Kind kind = Kind::kAny;
  DsField value;  // kExact: full match; kPrefix: string path prefix

  static DsTField Exact(DsField v) { return DsTField{Kind::kExact, std::move(v)}; }
  static DsTField Any() { return DsTField{Kind::kAny, int64_t{0}}; }
  static DsTField Prefix(std::string p) { return DsTField{Kind::kPrefix, std::move(p)}; }
  bool operator==(const DsTField&) const = default;
};

using DsTuple = std::vector<DsField>;
using DsTemplate = std::vector<DsTField>;

bool FieldMatches(const DsTField& tf, const DsField& f);
// A template matches a tuple of the same arity whose every field matches.
bool TupleMatches(const DsTemplate& templ, const DsTuple& tuple);

std::string FieldToString(const DsField& f);
std::string TupleToString(const DsTuple& t);

// Coordination-object helpers (Table 2 mapping: object = <path, data>).
DsTuple ObjectTuple(const std::string& path, const std::string& data);
DsTemplate ObjectTemplate(const std::string& path);          // exact path, ANY data
DsTemplate ObjectPrefixTemplate(const std::string& prefix);  // path prefix, ANY data

enum class DsOpType : uint8_t {
  kOut = 0,      // insert tuple (lease > 0: lease tuple, the monitor primitive)
  kRdp = 1,      // read, non-blocking (null if no match)
  kInp = 2,      // remove, non-blocking
  kRd = 3,       // read, BLOCKS until a match exists
  kIn = 4,       // remove, BLOCKS until a match exists
  kCas = 5,      // out(tuple) iff no tuple matches templ (DepSpace cas)
  kReplace = 6,  // atomically inp(templ) + out(tuple)
  kRdAll = 7,    // read all matches
  kRenew = 8,    // extend leases of matching tuples owned by the caller
  // Administrative (docs/sharding.md): raise the replica group's replicated
  // shard-map version to this op's map_version. Ordered like any other op so
  // every replica flips to rejecting stale clients at the same point in the
  // execution sequence — a per-replica check would split votes.
  kSetMapVersion = 9,
};

struct DsOp {
  DsOpType type = DsOpType::kRdp;
  DsTuple tuple;
  DsTemplate templ;
  Duration lease = 0;
  // Shard-map version the client routed with; replicas whose replicated
  // version is newer reject with kShardMapStale. 0 = standalone client.
  uint64_t map_version = 0;

  bool operator==(const DsOp&) const = default;
};

// The default access rule (§5.2.2: "a tuple space dedicated to the extension
// manager and not accessible via regular operations"): kAccessDenied when the
// first field of `tuple` or of `templ` names a path under kEmRoot, and when
// an op of `type` that removes or replaces a tuple (inp, in, replace) has a
// template whose first field also matches /em paths (a wildcard or the root
// prefix). Reads through such templates stay allowed, as on EZK.
Status CheckEmAccess(DsOpType type, const DsTuple* tuple, const DsTemplate* templ);

struct DsReply {
  ErrorCode code = ErrorCode::kOk;
  std::vector<DsTuple> tuples;  // rdp/inp/rd/in: 0 or 1; rdAll: n
  std::string value;            // extension result / error message

  bool operator==(const DsReply&) const = default;
};

// Wire formats (common/codec.h), fields in wire order. A tuple is a List of
// fields and a template a List of template fields.

template <class Io>
void Fields(Io& io, DsField& f) {
  uint8_t tag = static_cast<uint8_t>(f.index());
  io.U8(tag);
  io.Check(tag <= 1, "bad field tag");
  if (tag == 0) {
    if (f.index() != 0) {
      f = int64_t{0};
    }
    io.I64(std::get<int64_t>(f));
  } else if (tag == 1) {
    if (f.index() != 1) {
      f = std::string();
    }
    io.Str(std::get<std::string>(f));
  }
}

template <class Io>
void Fields(Io& io, DsTField& m) {
  io.U8(m.kind);
  io.Check(m.kind <= DsTField::Kind::kPrefix, "bad template field kind");
  Fields(io, m.value);
}

template <class Io>
void Fields(Io& io, DsOp& m) {
  io.U8(m.type);
  io.Check(m.type <= DsOpType::kSetMapVersion, "bad op type");
  io.List(m.tuple);
  io.List(m.templ);
  io.I64(m.lease);
  io.Varint(m.map_version);
}

template <class Io>
void Fields(Io& io, DsReply& m) {
  io.U32(m.code);
  io.List(m.tuples, [&](DsTuple& t) { io.List(t); });
  io.Str(m.value);
}

}  // namespace edc

#endif  // EDC_DS_TYPES_H_
