// Whole-registry lint: cross-extension trigger-pattern analysis.
//
// Individual programs are checked in isolation by AnalyzeProgram; this pass
// looks at the *set* of loaded extensions the way the dispatcher does
// (ExtensionRegistry::MatchOperation / MatchEvent) and reports interactions
// no single-program analysis can see:
//
//   EDC-W010  an op subscription is fully shadowed by a later-registered
//             extension's subscription (op dispatch is last-registration-wins:
//             whenever the earlier trigger matches, the later one matches too
//             and takes the operation).
//   EDC-W011  a subscription is redundant within its own extension — an
//             earlier subscription in the same program already covers it.
//   EDC-W012  two handlers write literal values of conflicting types to the
//             same literal key (a kTypedWrite host call, host_api.h, with a
//             literal path and value).
//
// Subsumption respects the two prefix flavors exactly as SubscriptionMatches
// does: "/x*" is a plain string prefix (matches the sibling /x1), "/x/*" is a
// path subtree (PathIsUnder; matches /x itself and /x/...), and op kind "any"
// covers every op kind.

#ifndef EDC_TOOLS_LINT_REGISTRY_LINT_H_
#define EDC_TOOLS_LINT_REGISTRY_LINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "edc/script/analysis/diagnostics.h"
#include "edc/script/ast.h"

namespace edc {

struct RegistryLintUnit {
  std::string extension;  // registry name; lands in Diagnostic::handler
  uint64_t reg_order = 0;
  const Program* program = nullptr;
};

// True iff every (kind, path) the narrow subscription matches is also matched
// by the wide one. Both must be op or both event subscriptions. Exposed for
// tests pinning the "/x*"-vs-"/x/*" split.
bool SubscriptionCovers(const Subscription& wide, const Subscription& narrow);

// Runs the cross-extension passes over every loaded unit. Diagnostics carry
// the owning extension name in `handler` and the subscription/call position.
std::vector<Diagnostic> LintRegistry(const std::vector<RegistryLintUnit>& units);

}  // namespace edc

#endif  // EDC_TOOLS_LINT_REGISTRY_LINT_H_
