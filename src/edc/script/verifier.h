// Registration-time verification of CoordScript extensions (paper §4.1.1).
//
// An extension is accepted only if it stays inside a white list: bounded
// source size and statement count, bounded nesting, no unknown handlers, no
// calls outside the allowed-function set, and — for actively-replicated
// hosts — only deterministic functions. Because verification runs once at
// registration, execution pays none of these checks (§4.2; measured by
// bench/abl_verify).

#ifndef EDC_SCRIPT_VERIFIER_H_
#define EDC_SCRIPT_VERIFIER_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "edc/common/result.h"
#include "edc/script/ast.h"

namespace edc {

struct VerifierConfig {
  size_t max_source_bytes = 8192;
  size_t max_statements = 256;   // total, across all handlers
  size_t max_nesting_depth = 8;  // blocks (if/foreach) per handler
  size_t max_handlers = 8;
  size_t max_subscriptions = 8;
  // Active replication (EDS) executes extensions on every replica and
  // therefore rejects nondeterministic values that reach replicated state or
  // the reply (flow-sensitive taint analysis; see analysis/determinism.h).
  bool require_deterministic = false;
  // Full callable white list: name -> deterministic. Must include the host
  // (service API) functions the sandbox will expose.
  std::map<std::string, bool> allowed_functions;
  // Certification threshold: a handler whose statically proven worst-case
  // step bound is <= this is marked certified (a diagnostic; every handler
  // runs metered). Must match the ExecBudget::max_steps the binding runs with.
  int64_t certify_max_steps = 100000;
  // Host functions returning collections whose size the sandbox caps at
  // `max_collection_items` (the cost pass relies on this cap being enforced
  // at runtime). Since the interval-domain analyzer, the cap also applies to
  // every builtin that returns a list (split, append, keys, sort_by): the
  // sandbox aborts the run if a builtin materializes a longer list, which is
  // what makes `card(split(s, sep)) <= min(len(s)+1, cap)` a sound transfer
  // function.
  std::set<std::string> collection_functions;
  size_t max_collection_items = 256;
  // Ingest cap the sandbox applies to handler arguments and host-call
  // results (element-wise for lists): no admitted value exceeds this
  // ApproxSize. Seeds the abstract-interpretation layer's input string
  // lengths, so nested foreach-over-split loops get finite step bounds.
  // Must match ExecBudget::max_input_bytes at run time.
  size_t max_input_bytes = 2048;
  // Largest intermediate value the sandbox admits; the analyzer uses it as
  // the global string-length top. Must match ExecBudget::max_value_bytes.
  size_t max_value_bytes = 64 * 1024;
  // Host functions with no replicated-state effects; empty = use the
  // analyzer's default set (see DefaultReadOnlyFunctions()).
  std::set<std::string> read_only_functions;
};

// Returns the allowed-function map for the core builtins only; bindings add
// their service API on top.
std::map<std::string, bool> CoreAllowedFunctions();

// Validates `program` against `config`. kExtensionRejected on any violation;
// the message names the first offending construct and line.
Status VerifyProgram(const Program& program, const VerifierConfig& config);

// Entry-point names the extension manager dispatches to.
bool IsKnownOpHandler(const std::string& name);
bool IsKnownEventHandler(const std::string& name);
bool IsKnownOpKind(const std::string& kind);
bool IsKnownEventKind(const std::string& kind);

}  // namespace edc

#endif  // EDC_SCRIPT_VERIFIER_H_
