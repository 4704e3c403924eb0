// An uncertified extension for the EZK and EDS end-to-end tests, and its
// oracle run.
//
// Three nested foreach loops over children() give a worst case of
// max_collection_items^3 iterations, far past any step budget, so the
// analyzer accepts the handler with EDC-W006 but does not certify it:
// registration compiles it anyway and the VM runs it metered. With k
// children under /d, `read` returns k^3 after 5 + k(3 + k(3 + 4k)) + 2
// steps: 57 for k = 2, 151 for k = 3.

#ifndef EDC_TESTS_EXT_OVER_BUDGET_EXT_H_
#define EDC_TESTS_EXT_OVER_BUDGET_EXT_H_

#include <string>
#include <vector>

#include "edc/common/result.h"
#include "edc/ext/registry.h"
#include "edc/script/parser.h"
#include "tests/oracle/interpreter.h"

namespace edc {

inline constexpr char kOverBudgetExt[] = R"(
extension cube {
  on op read "/cube";
  fn read(oid) {
    let n = 0;
    foreach (a in children("/d")) {
      foreach (b in children("/d")) {
        foreach (c in children("/d")) {
          n = n + 1;
        }
      }
    }
    return n;
  }
}
)";

// A step budget between the k = 2 and k = 3 runs.
inline constexpr int64_t kOverBudgetMaxSteps = 100;

// What the oracle returns for kOverBudgetExt's `read` when /d has
// `num_children` children, under the sandbox's budget for `limits`.
inline Result<Value> OverBudgetOracleRun(size_t num_children, const ExtensionLimits& limits) {
  class ChildrenHost : public ScriptHost {
   public:
    explicit ChildrenHost(size_t n) : n_(n) {}
    bool HasFunction(const std::string& name) const override { return name == "children"; }
    Result<Value> Call(const std::string&, std::vector<Value>&) override {
      ValueList names;
      for (size_t i = 0; i < n_; ++i) {
        names.emplace_back("c" + std::to_string(i));
      }
      return Value::List(std::move(names));
    }

   private:
    size_t n_;
  };
  auto program = ParseProgram(kOverBudgetExt);
  if (!program.ok()) {
    return program.status();
  }
  ChildrenHost host(num_children);
  Interpreter oracle(program->get(), &host, limits.budget);
  return oracle.Invoke("read", {Value("/cube")});
}

}  // namespace edc

#endif  // EDC_TESTS_EXT_OVER_BUDGET_EXT_H_
