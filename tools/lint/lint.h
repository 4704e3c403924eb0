// Linting front end over the static analyzer: parse + analyze CoordScript
// sources and render the diagnostics the way `edc-lint` prints them. Shared by
// the CLI binary (tools/edc_lint.cpp) and the golden-output tests so both pin
// the same code path.

#ifndef EDC_TOOLS_LINT_LINT_H_
#define EDC_TOOLS_LINT_LINT_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "edc/script/verifier.h"
#include "tools/lint/analyzer.h"

namespace edc {

struct LintResult {
  std::string unit;
  std::vector<Diagnostic> diagnostics;
  std::string formatted;  // diagnostic lines + one trailing summary line
  bool has_errors = false;
  // Per-handler analyzer verdicts (inferred step bounds, certification,
  // determinism); empty when the source does not parse. Feeds --dump-bounds
  // and the JSON output format.
  std::map<std::string, HandlerReport> handlers;
  std::shared_ptr<Program> program;  // null when the source does not parse
};

// Lints `source`, labeling output lines with `unit` (usually the file name).
LintResult LintSource(const std::string& unit, const std::string& source,
                      const VerifierConfig& config);

struct LintInput {
  std::string unit;
  std::string source;
};

// Several sources linted together: each on its own, then (with two or more)
// the whole-registry lint (EDC-W010..W012, registry_lint.h) over the ones
// that parse, as extensions registered in the given order.
struct LintSetResult {
  std::vector<LintResult> files;
  std::vector<Diagnostic> registry;  // Diagnostic::handler names the unit

  // What edc-lint prints: every file's report (each followed, with
  // `dump_bounds`, by one line per handler with its inferred step bound),
  // then one line per registry diagnostic.
  std::string Format(bool dump_bounds) const;
};

LintSetResult LintSources(const std::vector<LintInput>& sources,
                          const VerifierConfig& config);

// The whitelist edc-lint checks recipe and example scripts against: the core
// builtins plus the union of both bindings' host APIs (a script is lintable
// if at least one binding could run it).
VerifierConfig LintVerifierConfig();

}  // namespace edc

#endif  // EDC_TOOLS_LINT_LINT_H_
