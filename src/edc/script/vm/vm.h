// Register-machine executor for compiled CoordScript handlers: the one
// execution engine of the extension sandbox (paper §4.1–§4.2).
//
// Every handler that passes registration-time verification is compiled
// (compiler.h) and runs here, certified or not. Execution is metered in
// ExecBudget steps: each instruction charges the steps of the AST nodes
// folded into it before it executes (see bytecode.h), so steps_used is the
// number of AST nodes a tree walk of the same handler would have evaluated.
// Exhaustion returns kExtensionLimit; script-level failures (type errors,
// error(...), out-of-range access) return kExtensionError. Neither can
// disturb host state beyond what the ScriptHost has already admitted —
// state access goes exclusively through host functions, which the
// sandbox's state proxy guards (§4.1.2).
//
// The step limit is exact: a run that exhausts its budget stops with
// steps_used == max_steps + 1 and names the source line of the AST node
// whose charge crossed the limit, even when that charge is folded into an
// instruction carrying several. The hot path pays one add and one compare
// per instruction; the attribution reads CompiledHandler::charge_lines only
// on the (cold) limit path.

#ifndef EDC_SCRIPT_VM_VM_H_
#define EDC_SCRIPT_VM_VM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "edc/common/result.h"
#include "edc/script/budget.h"
#include "edc/script/value.h"
#include "edc/script/vm/bytecode.h"

namespace edc {

// Service-state and environment functions injected by the extension sandbox.
class ScriptHost {
 public:
  virtual ~ScriptHost() = default;
  virtual bool HasFunction(const std::string& name) const = 0;
  virtual Result<Value> Call(const std::string& name, std::vector<Value>& args) = 0;
};

struct ExecStats {
  int64_t steps_used = 0;
};

class Vm {
 public:
  // `module` and `host` must outlive the VM.
  Vm(const CompiledModule* module, ScriptHost* host, ExecBudget budget);

  // Runs compiled handler `name` with `args` (missing parameters become
  // null, extra args are dropped). Returns the handler's return value, or
  // null if it falls off the end.
  Result<Value> Invoke(const std::string& name, std::vector<Value> args);

  const ExecStats& stats() const { return stats_; }

 private:
  // Cold path: instruction `pc` pushed steps_used past step_limit_. Rewinds
  // steps_used to the charge that crossed it and names that charge's line.
  Status StepLimitError(const CompiledHandler& handler, uint32_t pc, int64_t charged);

  const CompiledModule* module_;
  ScriptHost* host_;
  ExecBudget budget_;
  int64_t step_limit_;  // max_steps, floored at 0
  ExecStats stats_;
};

}  // namespace edc

#endif  // EDC_SCRIPT_VM_VM_H_
