// Per-handler control-flow graph for edc-lint's dataflow passes.
//
// CoordScript is a structured language (if/foreach/return only), so the CFG
// is built directly from the statement tree: one node per simple statement,
// one branch node per `if` condition, one loop-head node per `foreach` (the
// loop head evaluates the list, binds the loop variable, and has a back edge
// from the body). Admission needs no CFG; only the lint warnings do.

#ifndef EDC_TOOLS_LINT_CFG_H_
#define EDC_TOOLS_LINT_CFG_H_

#include <vector>

#include "edc/script/analysis/diagnostics.h"
#include "edc/script/ast.h"

namespace edc {

struct CfgNode {
  enum class Kind { kEntry, kExit, kStmt, kBranch, kLoopHead };
  Kind kind = Kind::kStmt;
  const Stmt* stmt = nullptr;  // null for entry/exit
  std::vector<int> succs;
  std::vector<int> preds;
};

struct Cfg {
  std::vector<CfgNode> nodes;
  int entry = 0;
  int exit = 1;
  // Unreachable-after-return findings (EDC-W003), discovered structurally
  // during construction: the first dead statement of each block tail.
  std::vector<Diagnostic> diags;

  // True for every node reachable from entry (unreachable statements are kept
  // as nodes so diagnostics can point at them, but dataflow skips them).
  std::vector<bool> reachable;
};

Cfg BuildCfg(const Handler& handler);

}  // namespace edc

#endif  // EDC_TOOLS_LINT_CFG_H_
