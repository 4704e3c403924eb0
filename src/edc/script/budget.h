// The sandbox's per-invocation resource caps (paper §4.1.2).
//
// One struct sets them for both sides of the contract: the VM enforces
// them at run time (vm/vm.h), and the static analyzer proves step bounds
// that hold only while they are enforced (VerifierConfig::budget,
// docs/static_analysis.md). The extension managers keep one copy in
// ExtensionLimits::budget and hand the same copy to both.

#ifndef EDC_SCRIPT_BUDGET_H_
#define EDC_SCRIPT_BUDGET_H_

#include <cstddef>
#include <cstdint>

namespace edc {

struct ExecBudget {
  // Steps (AST nodes evaluated) per invocation. The analyzer certifies a
  // handler whose proven worst-case bound is at most this.
  int64_t max_steps = 100000;
  // Largest value a handler may materialize; the analyzer's global
  // string-length top.
  size_t max_value_bytes = 64 * 1024;
  // Ingest cap on values crossing the host boundary into the script: each
  // handler argument and host-call result (element-wise for lists — the
  // list itself is governed by max_value_bytes and max_collection_items)
  // must fit in this many ApproxSize bytes. The analyzer seeds its input
  // string-length intervals from it, which is what makes certified step
  // bounds finite for split()-heavy handlers.
  size_t max_input_bytes = 2048;
  // Cap on the length of any list a builtin (split, append, keys, sort_by)
  // returns; exceeding it aborts with kExtensionLimit. The extension
  // managers truncate collection host results (children, sub_objects) to
  // it. List literals are exempt (their length is statically exact). The
  // analyzer's cardinality transfer functions and foreach bounds assume it.
  size_t max_collection_items = 256;
};

}  // namespace edc

#endif  // EDC_SCRIPT_BUDGET_H_
