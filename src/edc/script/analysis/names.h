// Lexical name resolution for CoordScript handlers.
//
// The resolver is the one implementation of the language's block scoping (a
// name may shadow an outer binding): it gives every declaration an id, in
// textual order with the parameters first, and binds every use to the
// declaration in scope. The cost and taint passes, edc-lint's dataflow
// passes and the compiler (variable id i = register i) all index by these
// ids, so all of them resolve every name identically.

#ifndef EDC_SCRIPT_ANALYSIS_NAMES_H_
#define EDC_SCRIPT_ANALYSIS_NAMES_H_

#include <map>
#include <string>
#include <vector>

#include "edc/script/analysis/diagnostics.h"
#include "edc/script/ast.h"

namespace edc {

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

}  // namespace edc

#endif  // EDC_SCRIPT_ANALYSIS_NAMES_H_
