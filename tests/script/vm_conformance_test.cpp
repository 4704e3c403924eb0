// Differential conformance: bytecode VM vs the test oracle (ctest -L vm).
//
// Every handler of every example script (examples/scripts/*.edc) and every
// built-in recipe extension (recipes/scripts.h) runs on the VM and on the
// tree-walking oracle (tests/oracle/interpreter.h) against the same
// deterministic object-store host, across success paths, script-level error
// paths and empty-state edge cases (the corpus is in vm_corpus.h). The two
// must agree on: return value, Status code AND message, steps_used, the
// host-call trace, and the final store contents. Any divergence means the
// compiler or VM forked semantics. vm_budget_sweep_test.cpp repeats the
// comparison at every step budget.

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "edc/ext/registry.h"
#include "edc/recipes/scripts.h"
#include "edc/script/parser.h"
#include "edc/script/vm/compiler.h"
#include "edc/script/vm/vm.h"
#include "tests/oracle/interpreter.h"
#include "tests/script/vm_corpus.h"
#include "tools/lint/analyzer.h"
#include "tools/lint/lint.h"

namespace edc {
namespace {

// Parses the unit's source, compiles every handler (registration compiles
// them all, certified or not), and checks each scenario on both engines.
// Returns the number of handlers compiled.
size_t CheckConformance(const CorpusUnit& unit) {
  auto program = ParseProgram(unit.source);
  EXPECT_TRUE(program.ok()) << unit.name << ": " << program.status().ToString();
  if (!program.ok()) {
    return 0;
  }
  auto module = CompileProgram(**program);
  EXPECT_TRUE(module.ok()) << unit.name << ": " << module.status().ToString();
  if (!module.ok()) {
    return 0;
  }
  for (const Scenario& sc : unit.scenarios) {
    SCOPED_TRACE(unit.name + " / " + sc.label);
    ScenarioRun a = RunScenarioOnOracle(**program, sc, ExecBudget{});
    ScenarioRun b = RunScenarioOnVm(*module, sc, ExecBudget{});
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.result, b.result);
    EXPECT_EQ(a.steps, b.steps) << "step accounting diverged";
    EXPECT_EQ(a.trace, b.trace);
    EXPECT_EQ(a.store, b.store);
  }
  return module->handlers.size();
}

TEST(VmConformanceTest, RecipeCounter) {
  EXPECT_EQ(CheckConformance(CorpusUnitNamed("recipe_counter")), 1u);
}

TEST(VmConformanceTest, RecipeQueue) {
  EXPECT_EQ(CheckConformance(CorpusUnitNamed("recipe_queue")), 1u);
}

TEST(VmConformanceTest, RecipeBarrier) {
  EXPECT_EQ(CheckConformance(CorpusUnitNamed("recipe_barrier")), 1u);
}

TEST(VmConformanceTest, RecipeElection) {
  EXPECT_EQ(CheckConformance(CorpusUnitNamed("recipe_election")), 2u);
}

TEST(VmConformanceTest, RecipeRename) {
  EXPECT_EQ(CheckConformance(CorpusUnitNamed("recipe_rename")), 1u);
}

TEST(VmConformanceTest, RecipeTwoPhase) {
  EXPECT_EQ(CheckConformance(CorpusUnitNamed("recipe_two_phase")), 1u);
}

TEST(VmConformanceTest, ExampleAuditCount) {
  EXPECT_EQ(CheckConformance(CorpusUnitNamed("audit_count.edc")), 1u);
}

TEST(VmConformanceTest, ExampleQueueRemove) {
  EXPECT_EQ(CheckConformance(CorpusUnitNamed("queue_remove.edc")), 1u);
}

// broken_sweeper.edc calls a function outside the white list and returns an
// undeclared variable: verification rejects it at registration, so it never
// reaches an engine. (Were a handler to slip past the verifier and then fail
// to compile, the registry would reject it just the same.)
TEST(VmConformanceTest, ExampleBrokenSweeperIsRejectedAtRegistration) {
  ExtensionRegistry registry;
  Status s = registry.Load("broken_sweeper", 1, ReadExampleScript("broken_sweeper.edc"),
                           LintVerifierConfig());
  EXPECT_EQ(s.code(), ErrorCode::kExtensionRejected);
  EXPECT_NE(s.message().find("verification failed"), std::string::npos) << s.ToString();
  EXPECT_FALSE(registry.Contains("broken_sweeper"));
}

// Every recipe handler compiles at registration and keeps the analyzer's
// verdict: all six recipes certify (two_phase/update through the interval
// domain's amortized total-length bound, docs/static_analysis.md), each
// with a positive proven bound.
TEST(VmConformanceTest, AllCertifiedRecipeHandlersCompile) {
  const std::tuple<const char*, const char*> recipes[] = {
      {"counter", kCounterExtension},   {"queue", kQueueExtension},
      {"barrier", kBarrierExtension},   {"election", kElectionExtension},
      {"rename", kRenameExtension},     {"two_phase", kTwoPhaseExtension},
  };
  for (const auto& [name, source] : recipes) {
    auto program = ParseProgram(source);
    ASSERT_TRUE(program.ok()) << name;
    AnalysisReport report = AnalyzeProgram(**program, LintVerifierConfig());
    auto module = CompileProgram(**program);
    ASSERT_TRUE(module.ok()) << name << ": " << module.status().ToString();
    EXPECT_EQ(module->handlers.size(), (*program)->handlers.size()) << name;
    for (const auto& [hname, hr] : report.handlers) {
      EXPECT_TRUE(hr.certified) << name << "/" << hname << " certification changed";
      const CompiledHandler* compiled = module->Find(hname);
      ASSERT_NE(compiled, nullptr) << name << "/" << hname << " did not compile";
      EXPECT_GT(hr.step_bound, 0) << name << "/" << hname;
    }
  }
}

}  // namespace
}  // namespace edc
