#include "tools/lint/analyzer.h"

#include <utility>

#include "edc/script/analysis/cost.h"
#include "edc/script/analysis/names.h"
#include "tools/lint/cfg.h"
#include "tools/lint/dataflow.h"

namespace edc {

const Diagnostic* AnalysisReport::first_error() const {
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == Severity::kError) {
      return &d;
    }
  }
  return nullptr;
}

AnalysisReport AnalyzeProgram(const Program& program, const VerifierConfig& config) {
  Admission admission = VerifyProgram(program, config);
  AnalysisReport report;
  std::vector<Diagnostic>& diags = report.diagnostics;
  diags = std::move(admission.errors);
  report.handlers = std::move(admission.handlers);

  for (const auto& [name, handler] : program.handlers) {
    ResolvedNames names = ResolveNames(handler);
    Cfg cfg = BuildCfg(handler);
    diags.insert(diags.end(), cfg.diags.begin(), cfg.diags.end());
    RunDataflowChecks(handler, cfg, names, &diags);
    BoundHandlerCost(handler, names, config, &diags);

    const HandlerReport& hr = report.handlers.at(name);
    if (!hr.cost_bounded) {
      diags.push_back(Diagnostic{
          kDiagCostUnbounded, Severity::kWarning, handler.line, handler.col, name,
          "worst-case step cost of handler '" + name +
              "' is unbounded (loop over a collection with no static bound); "
              "metering stays enabled"});
    } else if (!hr.certified) {
      diags.push_back(Diagnostic{
          kDiagCostOverBudget, Severity::kWarning, handler.line, handler.col, name,
          "worst-case step bound " + std::to_string(hr.step_bound) + " of handler '" +
              name + "' exceeds the execution budget " +
              std::to_string(config.budget.max_steps) + "; metering stays enabled"});
    }
  }

  SortDiagnostics(&diags);
  return report;
}

}  // namespace edc
