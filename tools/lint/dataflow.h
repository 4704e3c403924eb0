// Classic dataflow passes over the per-handler CFG.
//
// - Liveness (backward may): powers dead-store (EDC-W002) and
//   unused-variable (EDC-W001) warnings.
// - Reaching definitions (forward may): powers the use-before-def check
//   (EDC-W004). CoordScript's lexical scoping makes a use of a never-defined
//   variable structurally impossible in programs that pass resolution (every
//   `let` both declares and initializes), so this pass is defense in depth:
//   it validates the CFG machinery and would catch regressions if the
//   grammar ever grows uninitialized declarations.

#ifndef EDC_TOOLS_LINT_DATAFLOW_H_
#define EDC_TOOLS_LINT_DATAFLOW_H_

#include <vector>

#include "edc/script/analysis/diagnostics.h"
#include "edc/script/analysis/names.h"
#include "edc/script/ast.h"
#include "tools/lint/cfg.h"

namespace edc {

// Runs liveness + reaching definitions over `cfg` and appends the derived
// warnings (unused variable, dead store, use before def) to `diags`.
void RunDataflowChecks(const Handler& handler, const Cfg& cfg,
                       const ResolvedNames& names, std::vector<Diagnostic>* diags);

}  // namespace edc

#endif  // EDC_TOOLS_LINT_DATAFLOW_H_
