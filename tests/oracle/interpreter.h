// Test oracle: the tree-walking CoordScript interpreter.
//
// CoordScript's semantics are a tree walk over the AST (docs/coordscript.md):
// every AST node evaluated consumes one ExecBudget step, charged before the
// node runs, and oversized intermediate values abort the run. Exhaustion
// returns kExtensionLimit; script-level failures (type errors, error(...),
// out-of-range access) return kExtensionError. This class is that tree walk,
// written as directly as possible. Production runs every handler on the
// bytecode VM (edc/script/vm/vm.h); the vm-labelled tests run the same
// handlers here and require the same result or Status (byte for byte), the
// same steps_used at every budget, and the same host-call trace.

#ifndef EDC_TESTS_ORACLE_INTERPRETER_H_
#define EDC_TESTS_ORACLE_INTERPRETER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "edc/common/result.h"
#include "edc/script/ast.h"
#include "edc/script/value.h"
#include "edc/script/vm/vm.h"

namespace edc {

class Interpreter {
 public:
  // `program` and `host` must outlive the interpreter.
  Interpreter(const Program* program, ScriptHost* host, ExecBudget budget)
      : program_(program), host_(host), budget_(budget) {}

  // Runs handler `name` with `args` (missing parameters become null, extra
  // args are dropped). Returns the handler's return value, or null if it
  // falls off the end.
  Result<Value> Invoke(const std::string& name, std::vector<Value> args);

  const ExecStats& stats() const { return stats_; }

 private:
  enum class FlowKind { kNormal, kReturn };
  struct Flow {
    FlowKind kind = FlowKind::kNormal;
    Value value;
  };

  Result<Flow> ExecBlock(const Block& block);
  Result<Flow> ExecStmt(const Stmt& stmt);
  Result<Value> Eval(const Expr& expr);
  Result<Value> EvalBinary(const Expr& expr);
  Result<Value> EvalCall(const Expr& expr);

  // Hot path: counts the step and reports whether execution may continue.
  // The error Status is built out of line only on the (cold) failure path.
  bool StepOk() {
    ++stats_.steps_used;
    return stats_.steps_used <= budget_.max_steps;
  }
  Status StepLimitError(int line) const;
  Status CheckSize(const Value& v, int line);
  // Host results additionally obey the element-wise ingest cap
  // (max_input_bytes); builtin list results obey max_collection_items.
  Status CheckHostResult(const Value& v, int line);
  Status CheckBuiltinResult(const Value& v, int line);

  Value* FindVar(const std::string& name);

  const Program* program_;
  ScriptHost* host_;
  ExecBudget budget_;
  ExecStats stats_;
  std::vector<std::map<std::string, Value>> scopes_;
};

}  // namespace edc

#endif  // EDC_TESTS_ORACLE_INTERPRETER_H_
