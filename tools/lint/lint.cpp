#include "tools/lint/lint.h"

#include <cstdlib>
#include <utility>

#include "edc/script/host_api.h"
#include "edc/script/parser.h"
#include "tools/lint/registry_lint.h"

namespace edc {

namespace {

// Parse/lex Status messages embed "... at line N: ..."; recover N so the
// diagnostic keeps a real position.
int LineFromMessage(const std::string& message) {
  size_t at = message.find("line ");
  if (at == std::string::npos) {
    return 1;
  }
  int line = std::atoi(message.c_str() + at + 5);
  return line > 0 ? line : 1;
}

}  // namespace

VerifierConfig LintVerifierConfig() { return SandboxVerifierConfig(kEzkHost | kEdsHost); }

LintResult LintSource(const std::string& unit, const std::string& source,
                      const VerifierConfig& config) {
  LintResult result;
  result.unit = unit;
  auto program = ParseProgram(source);
  if (!program.ok()) {
    const std::string& message = program.status().message();
    result.diagnostics.push_back(Diagnostic{"EDC-E000", Severity::kError,
                                            LineFromMessage(message), 1, "", message});
  } else {
    AnalysisReport report = AnalyzeProgram(**program, config);
    result.program = std::move(*program);
    result.diagnostics = std::move(report.diagnostics);
    result.handlers = std::move(report.handlers);
  }
  size_t errors = 0;
  size_t warnings = 0;
  for (const Diagnostic& d : result.diagnostics) {
    result.formatted += FormatDiagnostic(unit, d) + "\n";
    if (d.severity == Severity::kError) {
      ++errors;
    } else if (d.severity == Severity::kWarning) {
      ++warnings;
    }
  }
  size_t certified = 0;
  for (const auto& [name, hr] : result.handlers) {
    certified += hr.certified ? 1 : 0;
  }
  result.formatted += unit + ": " + std::to_string(errors) + " error(s), " +
                      std::to_string(warnings) + " warning(s), " +
                      std::to_string(certified) + "/" +
                      std::to_string(result.handlers.size()) + " handlers certified\n";
  result.has_errors = errors > 0;
  return result;
}

LintSetResult LintSources(const std::vector<LintInput>& sources,
                          const VerifierConfig& config) {
  LintSetResult out;
  std::vector<RegistryLintUnit> units;
  for (const LintInput& in : sources) {
    out.files.push_back(LintSource(in.unit, in.source, config));
    if (out.files.back().program != nullptr) {
      units.push_back(
          RegistryLintUnit{in.unit, out.files.size(), out.files.back().program.get()});
    }
  }
  if (sources.size() > 1) {
    out.registry = LintRegistry(units);
  }
  return out;
}

std::string LintSetResult::Format(bool dump_bounds) const {
  std::string out;
  for (const LintResult& file : files) {
    out += file.formatted;
    if (!dump_bounds) {
      continue;
    }
    for (const auto& [name, hr] : file.handlers) {
      out += file.unit + ": handler " + name + ": bound=" +
             (hr.cost_bounded ? std::to_string(hr.step_bound) : std::string("unbounded")) +
             " certified=" + (hr.certified ? "yes" : "no") +
             " deterministic=" + (hr.deterministic ? "yes" : "no") + "\n";
    }
  }
  for (const Diagnostic& d : registry) {
    out += FormatDiagnostic(d.handler, d) + "\n";
  }
  return out;
}

}  // namespace edc
