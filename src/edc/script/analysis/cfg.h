// Per-handler control-flow graph and lexical name resolution for CoordScript.
//
// CoordScript is a structured language (if/foreach/return only), so the CFG
// is built directly from the statement tree: one node per simple statement,
// one branch node per `if` condition, one loop-head node per `foreach` (the
// loop head evaluates the list, binds the loop variable, and has a back edge
// from the body). The resolver is the one implementation of the language's
// block scoping (a name may shadow an outer binding): it gives every
// declaration an id, in textual order with the parameters first, and binds
// every use to the declaration in scope. The dataflow, cost and taint
// passes keep one value per id, and the compiler puts variable id i in
// register i, so all of them resolve every name identically.

#ifndef EDC_SCRIPT_ANALYSIS_CFG_H_
#define EDC_SCRIPT_ANALYSIS_CFG_H_

#include <map>
#include <string>
#include <vector>

#include "edc/script/analysis/diagnostics.h"
#include "edc/script/ast.h"

namespace edc {

// ---- Name resolution ----

struct VarInfo {
  std::string name;
  bool is_param = false;
  bool is_loop_var = false;
  int decl_line = 0;
  int decl_col = 0;
};

struct ResolvedNames {
  std::vector<VarInfo> vars;                  // indexed by variable id
  std::map<const Expr*, int> use_ids;         // kVar expr -> variable id
  std::map<const Stmt*, int> def_ids;         // let/assign/foreach stmt -> target id
  std::vector<int> param_ids;
  // Undeclared-name diagnostics (EDC-E010/E011) found while resolving. A use
  // of an undeclared name still gets a fresh id so downstream passes run.
  std::vector<Diagnostic> diags;
};

// Resolves all names in `handler`, mirroring the language's scope rules.
ResolvedNames ResolveNames(const Handler& handler);

// ---- Control-flow graph ----

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

#endif  // EDC_SCRIPT_ANALYSIS_CFG_H_
