// Worst-case step-cost bounding for CoordScript handlers (paper §4.1.1/§4.2),
// built on the interval/length abstract domain in domains.h.
//
// Execution charges exactly one ExecBudget step per statement executed and
// one per expression node evaluated. This pass mirrors that accounting
// symbolically:
//
//   cost(expr)            = 1 + sum(cost(children))        (short-circuit and
//                                                           error paths only
//                                                           ever cost less)
//   cost(let/assign/expr) = 1 + cost(rhs)
//   cost(return)          = 1 + cost(value)
//   cost(if)              = 1 + cost(cond) + max(cost(then), cost(else))
//   cost(foreach)         = 1 + cost(list) + min(N * K, N * c + k * T)
//
// where N bounds the iterated list's cardinality, K the per-iteration body
// cost with a concrete element bound, and (c, k, T) the *amortized* candidate:
// the body cost is re-derived as an affine form c + k*len(element) in the
// element's string length, and summed over the whole loop using the list's
// total-length bound T (sum of element lengths <= source-string length for
// split() results). The amortized candidate is what certifies nested
// foreach-over-split() handlers: a seg-loop whose trip count is
// min(len_i + 1, cap) costs Sum_i (c + k*len_i) <= N*c + k*T instead of the
// hopeless N * (max_len + 1) * K.
//
// Bounds flow from three runtime-enforced caps (see domains.h): handler
// arguments and host results are ingest-capped at max_input_bytes (element-
// wise for lists), builtin list results never exceed the collection cap, and
// no materialized value exceeds max_value_bytes. foreach bodies run to a
// fixpoint with widening; statements after a branch that provably returns are
// costed under max() rather than summed.
//
// The environment holds one abstract value per ResolveNames variable id
// (names.h), so shadowing resolves exactly as it does in the VM. A variable
// whose block has ended keeps its slot: no later use resolves to it, so its
// value never reaches a bound or a diagnostic (it can add one fixpoint pass).
//
// The pass doubles as edc-lint's precision-diagnostic engine: given a sink,
// it emits EDC-W007 (possible division/modulo by zero), EDC-W008
// (get()/index provably out of range) and EDC-W009 (interval-proven dead
// branch) from a final pass over each loop's stabilized environment.
// Admission passes none and skips that pass.
//
// A handler whose total bound is finite is `bounded`; if the bound also fits
// the execution budget it is *certified*: the certificate proves the VM's
// step-limit check can never fire for it (the check still runs).

#ifndef EDC_SCRIPT_ANALYSIS_COST_H_
#define EDC_SCRIPT_ANALYSIS_COST_H_

#include <cstdint>
#include <vector>

#include "edc/script/analysis/names.h"
#include "edc/script/analysis/diagnostics.h"
#include "edc/script/ast.h"
#include "edc/script/verifier.h"

namespace edc {

struct CostResult {
  bool bounded = false;
  int64_t steps = 0;  // valid only if bounded; saturating arithmetic
};

// Cost bounds saturate here instead of overflowing.
inline constexpr int64_t kCostCap = INT64_MAX / 4;

// Bounds `handler` under the caps of `config.budget`, with variables as
// `names` resolves them. With `precision`, the EDC-W007..W009 warnings found
// on the way are appended to it, sorted.
CostResult BoundHandlerCost(const Handler& handler, const ResolvedNames& names,
                            const VerifierConfig& config,
                            std::vector<Diagnostic>* precision = nullptr);

}  // namespace edc

#endif  // EDC_SCRIPT_ANALYSIS_COST_H_
