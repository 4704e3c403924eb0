// edc-lint's static analysis of one CoordScript program.
//
// AnalyzeProgram is admission (VerifyProgram, edc/script/verifier.h: the
// errors and the per-handler verdicts) plus the passes only a developer
// reads: the CFG dataflow warnings (unused variable, dead store,
// unreachable code, use before def), the cost verdict warnings (EDC-W005
// unbounded, EDC-W006 over budget) and the cost pass's precision warnings
// (EDC-W007..W009). Its first error is always admission's.

#ifndef EDC_TOOLS_LINT_ANALYZER_H_
#define EDC_TOOLS_LINT_ANALYZER_H_

#include <map>
#include <string>
#include <vector>

#include "edc/script/analysis/diagnostics.h"
#include "edc/script/ast.h"
#include "edc/script/verifier.h"

namespace edc {

struct AnalysisReport {
  std::vector<Diagnostic> diagnostics;  // sorted by line/col/code
  std::map<std::string, HandlerReport> handlers;

  bool ok() const { return !HasErrors(diagnostics); }
  const Diagnostic* first_error() const;
};

AnalysisReport AnalyzeProgram(const Program& program, const VerifierConfig& config);

}  // namespace edc

#endif  // EDC_TOOLS_LINT_ANALYZER_H_
