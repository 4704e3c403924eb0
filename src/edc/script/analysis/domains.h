// Abstract value domains for the CoordScript static analyzer.
//
// The cost pass (cost.h) and the precision diagnostics are built on a
// product domain per variable:
//
//   AbsValue = (type set)
//            x (integer interval)                   when int
//            x (string-length upper bound)          when str
//            x (cardinality upper bound)            when list/map
//            x (element string-length upper bound)  strings inside
//            x (element total-length upper bound)   sum over list elements
//
// Length and cardinality bounds are *affine forms* c + k*sym in at most one
// symbolic variable — the element length of the enclosing amortized foreach
// loop (cost.cpp). Outside an amortized pass k is always 0 and the forms
// degenerate to plain saturating integers. The affine forms are what let the
// cost pass charge a split()-driven inner loop Sum_i min(len_i + 1, cap)
// <= N + total_len instead of N * (max_len + 1): the amortization that makes
// two_phase's nested foreach-over-split handlers certifiable.
//
// Every transfer function here is *sound* with respect to the language's
// semantics (builtins.cpp, vm/vm.cpp): the abstract result
// over-approximates every concrete result the runtime can produce on the
// success path, relying on three runtime-enforced caps:
//   - max_value_bytes: no materialized value exceeds it (global length top),
//   - max_input_bytes: handler arguments and host results are ingest-capped
//     (element-wise for lists),
//   - collection cap: builtin list results never exceed max_collection_items.

#ifndef EDC_SCRIPT_ANALYSIS_DOMAINS_H_
#define EDC_SCRIPT_ANALYSIS_DOMAINS_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "edc/script/value.h"

namespace edc {

// Saturation ceiling for lengths/cardinalities/costs; doubles as "unbounded".
inline constexpr int64_t kAbsInf = INT64_MAX / 4;

int64_t AbsSatAdd(int64_t a, int64_t b);
int64_t AbsSatMul(int64_t a, int64_t b);

// ---- Integer intervals ----
//
// Closed interval [lo, hi] over int64. Runtime arithmetic wraps (two's
// complement), so the arithmetic transfer functions return Top() whenever the
// exact result could leave the int64 range — a wrapped value can be anything.
struct Interval {
  int64_t lo = INT64_MIN;
  int64_t hi = INT64_MAX;

  static Interval Top() { return Interval{}; }
  static Interval Exact(int64_t v) { return Interval{v, v}; }
  static Interval Range(int64_t lo, int64_t hi) { return Interval{lo, hi}; }

  bool IsTop() const { return lo == INT64_MIN && hi == INT64_MAX; }
  bool Contains(int64_t v) const { return lo <= v && v <= hi; }
  bool IsExact() const { return lo == hi; }

  static Interval Join(const Interval& a, const Interval& b);
  static Interval Add(const Interval& a, const Interval& b);
  static Interval Sub(const Interval& a, const Interval& b);
  static Interval Mul(const Interval& a, const Interval& b);
  // Assumes a nonzero divisor (the runtime errors on 0); still conservative.
  static Interval Div(const Interval& a, const Interval& b);
  static Interval Mod(const Interval& a, const Interval& b);
  static Interval Neg(const Interval& a);

  bool operator==(const Interval& o) const { return lo == o.lo && hi == o.hi; }
};

// ---- Affine length bounds ----
//
// Upper bound c + k*sym on a nonnegative quantity (string length, list
// cardinality), where sym is the element-length symbol of the enclosing
// amortized loop. c == kAbsInf means unbounded (k is then meaningless).
struct AffBound {
  int64_t c = kAbsInf;
  int64_t k = 0;

  static AffBound Const(int64_t v) { return AffBound{v < 0 ? 0 : v, 0}; }
  static AffBound Inf() { return AffBound{kAbsInf, 0}; }
  static AffBound Sym() { return AffBound{0, 1}; }

  bool IsConst() const { return k == 0 && c < kAbsInf; }
  bool IsInf() const { return c >= kAbsInf || k >= kAbsInf; }

  static AffBound Add(const AffBound& a, const AffBound& b);
  static AffBound AddConst(const AffBound& a, int64_t d);
  // Join: componentwise max (sound: c1+k1*s, c2+k2*s <= max(c)+max(k)*s).
  static AffBound Max(const AffBound& a, const AffBound& b);
  // min with a constant: exact for constants; for affine forms returns the
  // affine side unchanged (still an upper bound).
  static AffBound MinConst(const AffBound& a, int64_t m);
  // Product; kAbsInf if both factors carry the symbol (quadratic).
  static AffBound Mul(const AffBound& a, const AffBound& b);
  // Of two sound upper bounds for the same quantity, keep the smaller when
  // comparable; prefers the smaller value at `at` otherwise.
  static AffBound PickMin(const AffBound& a, const AffBound& b, int64_t at);

  // Saturating evaluation at sym = s (s >= 0).
  int64_t EvalAt(int64_t s) const;

  bool operator==(const AffBound& o) const { return c == o.c && k == o.k; }
};

// ---- Product domain ----

enum TypeBit : unsigned {
  kTNull = 1u << 0,
  kTBool = 1u << 1,
  kTInt = 1u << 2,
  kTStr = 1u << 3,
  kTList = 1u << 4,
  kTMap = 1u << 5,
};
inline constexpr unsigned kTAny = kTNull | kTBool | kTInt | kTStr | kTList | kTMap;

struct AbsValue {
  unsigned types = kTAny;
  Interval num = Interval::Top();      // int value (bools use [0,1])
  AffBound str_len = AffBound::Inf();  // string length
  AffBound card = AffBound::Inf();     // list/map item count
  AffBound elem_len = AffBound::Inf(); // any string reachable inside an item
  AffBound total_len = AffBound::Inf();// sum of list items' string lengths

  bool May(TypeBit t) const { return (types & t) != 0; }
  bool Only(unsigned mask) const { return types != 0 && (types & ~mask) == 0; }

  static AbsValue Any();
  static AbsValue OfType(unsigned type_mask);
  static AbsValue Bool();
  static AbsValue BoolExact(bool v);
  static AbsValue Int(Interval iv);
  static AbsValue Str(AffBound len);
  static AbsValue OfLiteral(const Value& v);
  static AbsValue Join(const AbsValue& a, const AbsValue& b);
  // Lattice top modulo the global runtime invariants: any materialized
  // string is <= max_value_bytes long. Used as the widening target.
  static AbsValue Widened(int64_t max_value_bytes);

  bool operator==(const AbsValue& o) const {
    return types == o.types && num == o.num && str_len == o.str_len &&
           card == o.card && elem_len == o.elem_len && total_len == o.total_len;
  }
  bool operator!=(const AbsValue& o) const { return !(*this == o); }
};

// Caps the domain transfer functions assume the runtime enforces, in the
// domain's int64 arithmetic; the cost pass copies them from
// VerifierConfig::budget.
struct DomainContext {
  int64_t max_value_bytes = 0;
  int64_t max_input_bytes = 0;
  int64_t collection_cap = 0;
  const std::set<std::string>* collection_functions = nullptr;
};

// Upper bound on len(str(v)) — what the value contributes to concatenation.
AffBound StrishLen(const AbsValue& v, const DomainContext& ctx);

// The value of one element of `coll` (foreach variable, get() result,
// min_by/max_by result). `symbolic` re-seeds the element's lengths with the
// amortization symbol instead of the collection's element bound.
AbsValue ElementOf(const AbsValue& coll, const DomainContext& ctx, bool symbolic);

// Sound abstract result of builtin `name` (builtins.cpp) on `args`.
// Unknown names return Any() clamped by the runtime result invariants.
AbsValue TransferBuiltin(const std::string& name, const std::vector<AbsValue>& args,
                         const DomainContext& ctx);

// Sound abstract result of host function `name`: ingest-capped, and
// cardinality-capped for registered collection functions.
AbsValue TransferHost(const std::string& name, const DomainContext& ctx);

// Abstract value of a handler parameter: ingest-capped lengths, but
// *unbounded* cardinality — argument lists are not collection-capped, so a
// foreach over a raw parameter stays uncertifiable (EDC-W005).
AbsValue SeedParam(const DomainContext& ctx);

// Applies the invariants every builtin/host result obeys at runtime
// (max_value_bytes on the whole value, hence derived caps on lengths and
// cardinalities).
AbsValue ClampResult(AbsValue v, const DomainContext& ctx);

}  // namespace edc

#endif  // EDC_SCRIPT_ANALYSIS_DOMAINS_H_
