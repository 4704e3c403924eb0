// Flow-sensitive determinism taint analysis (paper §4.1.1, EDS binding).
//
// Under active replication every replica executes every handler, so any
// nondeterministic value that influences replicated state or the reply makes
// replicas diverge. The legacy verifier rejected *any* call to a function
// whitelisted as nondeterministic; this pass instead tracks taint:
//
//   sources  calls to functions whose whitelist entry says deterministic=false
//   flow     through variables, expressions, list/map construction, and
//            implicitly through control (assignments and effects under a
//            branch whose condition is tainted)
//   sinks    (a) arguments to state-mutating host functions (the host
//            table's kTaintSink entries, host_api.h: the writes and block),
//            (b) mutating host calls executed under tainted control,
//            (c) return values (the reply is part of the replicated outcome)
//
// A nondeterministic value that provably never reaches a sink — e.g. a dead
// `let t = now();` used only in a discarded expression — is admissible even
// under require_deterministic: the replicas cannot diverge on it.

#ifndef EDC_SCRIPT_ANALYSIS_DETERMINISM_H_
#define EDC_SCRIPT_ANALYSIS_DETERMINISM_H_

#include <vector>

#include "edc/script/analysis/names.h"
#include "edc/script/analysis/diagnostics.h"
#include "edc/script/ast.h"
#include "edc/script/verifier.h"

namespace edc {

struct DeterminismResult {
  bool deterministic = true;  // no taint reached a sink
  std::vector<Diagnostic> diags;
};

// Sources are the functions `config.allowed_functions` marks
// nondeterministic. Taint is tracked per ResolveNames variable id (`names`),
// so shadowing resolves exactly as it does in the VM. Diagnostics are
// emitted only under `config.require_deterministic`; the verdict is always
// computed.
DeterminismResult CheckDeterminism(const Handler& handler, const ResolvedNames& names,
                                   const VerifierConfig& config);

}  // namespace edc

#endif  // EDC_SCRIPT_ANALYSIS_DETERMINISM_H_
