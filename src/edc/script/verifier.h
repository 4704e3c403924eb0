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
#include <vector>

#include "edc/common/result.h"
#include "edc/script/analysis/diagnostics.h"
#include "edc/script/ast.h"
#include "edc/script/budget.h"

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
  // The sandbox the handlers will run in. A handler whose statically proven
  // worst-case step bound is <= budget.max_steps is marked certified (a
  // diagnostic; every handler runs metered); the other caps are the runtime
  // guarantees the cost pass's bounds rest on.
  ExecBudget budget;
  // Host functions returning collections the sandbox caps at
  // budget.max_collection_items.
  std::set<std::string> collection_functions;
};

// Returns the allowed-function map for the core builtins only; bindings add
// their service API on top (host_api.h).
std::map<std::string, bool> CoreAllowedFunctions();

// What registration decides about one handler (§4.2).
struct HandlerReport {
  bool cost_bounded = false;
  int64_t step_bound = 0;     // valid only when cost_bounded
  bool certified = false;     // cost_bounded && step_bound <= budget.max_steps
  bool deterministic = true;  // no nondeterministic taint reaches a sink
};

// The admission verdict on a program.
struct Admission {
  Status status;  // Ok, or the Rejection of the first error
  std::vector<Diagnostic> errors;  // every error found, in SortDiagnostics order
  std::map<std::string, HandlerReport> handlers;
};

// Admission (paper §4.1.1), the analysis every replica runs on a
// registration: program structure, the statement/nesting budget and the
// white list, name resolution, the worst-case step bound and determinism
// taint. Warnings are edc-lint's (tools/lint/analyzer.h), not admission's.
Admission VerifyProgram(const Program& program, const VerifierConfig& config);

// kExtensionRejected, "verification failed at line N: <message> [CODE]".
Status Rejection(const Diagnostic& error);

// The handler entry points: one per op and event kind, plus the catch-alls
// handle_op and handle_event. Subscriptions name the kinds, and op kind
// "any" matches every op.
struct EntryPoint {
  bool is_event;
  const char* kind;  // null for the catch-all
  const char* handler;
};
bool IsKnownOpHandler(const std::string& name);
bool IsKnownEventHandler(const std::string& name);
bool IsKnownOpKind(const std::string& kind);
bool IsKnownEventKind(const std::string& kind);
// The entry point an op (event) of `kind` runs in `program`: the one named
// for `kind` ("read" -> read, "deleted" -> on_deleted) if `program` defines
// it, else the catch-all, defined or not.
const EntryPoint& EntryPointFor(const Program& program, bool is_event,
                                const std::string& kind);

}  // namespace edc

#endif  // EDC_SCRIPT_VERIFIER_H_
