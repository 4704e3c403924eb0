// Budget sweep: the metered VM vs the test oracle at every step budget
// (ctest -L vm).
//
// The VM folds the step charges of several AST nodes into one instruction,
// yet a budget must run out exactly where the tree walk runs out of it: at
// steps_used == max_steps + 1, naming the line of the node whose charge
// crossed the limit. For every scenario of the conformance corpus (the six
// recipes and the clean example scripts, vm_corpus.h), the 220 programs of
// the cross-validation generator, the first programs of its split() arm,
// and a probe handler whose expressions span lines, both engines run
// metered at every max_steps from 0 to the full step count. They must agree
// on the result or Status byte for byte, on steps_used, and on the host-call
// trace.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "edc/script/parser.h"
#include "edc/script/vm/compiler.h"
#include "edc/script/vm/vm.h"
#include "tests/oracle/interpreter.h"
#include "tests/script/vm_corpus.h"

namespace edc {
namespace {

enum class Engine { kOracle, kVm };

// Outcome of one generated-program run: rendered result or Status, the
// mutation log and the steps used.
struct GenRun {
  std::string outcome;
  std::vector<std::string> mutations;
  int64_t steps = 0;

  bool operator==(const GenRun&) const = default;
};

std::string Describe(const ScenarioRun& r) {
  return (r.ok ? "OK " + r.result : r.status) + " steps=" + std::to_string(r.steps) +
         " host_calls=" + std::to_string(r.trace.size());
}

std::string Describe(const GenRun& r) {
  return r.outcome + " steps=" + std::to_string(r.steps) +
         " mutations=" + std::to_string(r.mutations.size());
}

// Runs `run(engine, budget)` on both engines at every max_steps from 0 to the
// unbounded run's step count and returns the number of budgets at which they
// differ (the first few are reported). Below the full count the VM must stop
// at exactly max_steps + 1.
template <typename RunFn>
int SweepBudgets(const std::string& what, ExecBudget budget, RunFn run) {
  const int64_t full = run(Engine::kOracle, budget).steps;
  int mismatches = 0;
  for (int64_t max_steps = 0; max_steps <= full; ++max_steps) {
    budget.max_steps = max_steps;
    auto oracle = run(Engine::kOracle, budget);
    auto vm = run(Engine::kVm, budget);
    bool exact_stop = max_steps == full || vm.steps == max_steps + 1;
    if (!(oracle == vm) || !exact_stop) {
      if (++mismatches <= 3) {
        ADD_FAILURE() << what << " at max_steps=" << max_steps
                      << "\n  oracle: " << Describe(oracle)
                      << "\n  vm:     " << Describe(vm);
      }
    }
  }
  EXPECT_EQ(mismatches, 0) << what << ": " << mismatches << " of " << full + 1
                           << " budgets differ";
  return mismatches;
}

// Sweeps every scenario of `unit`; returns the number of scenarios swept.
int SweepUnit(const CorpusUnit& unit) {
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
    SweepBudgets(unit.name + " / " + sc.label, ExecBudget{},
                 [&](Engine engine, ExecBudget budget) {
                   return engine == Engine::kOracle
                              ? RunScenarioOnOracle(**program, sc, budget)
                              : RunScenarioOnVm(*module, sc, budget);
                 });
  }
  return static_cast<int>(unit.scenarios.size());
}

TEST(VmBudgetSweepTest, ConformanceCorpus) {
  int scenarios = 0;
  for (const CorpusUnit& unit : ConformanceCorpus()) {
    scenarios += SweepUnit(unit);
  }
  EXPECT_GE(scenarios, 20);
}

// Loop, short-circuit &&, list literal, and expressions that span lines: the
// step charges folded into one instruction come from nodes on different
// lines, so only exact attribution names the right one.
constexpr char kMultiLineProbe[] = R"(extension probe {
  on op read "/probe";
  fn read(oid) {
    let total = 0;
    foreach (x in [1, 2,
                   3, 4]) {
      if (x > 1 &&
          x < 4) {
        total = total +
                x * 2;
      }
    }
    let pair = [total,
                len(oid)];
    return get(pair, 0) +
           get(pair, 1);
  }
})";

TEST(VmBudgetSweepTest, MultiLineProbe) {
  SweepUnit(CorpusUnit{"probe", kMultiLineProbe,
                       {{"runs", "read", {Value("/probe")}, {}}}});
}

// Generated programs, run against the cross-validation host.
template <typename HostT, typename MakeHost>
GenRun RunGenerated(Engine engine, const Program& program, const CompiledModule& module,
                    ExecBudget budget, const Value& arg, MakeHost make_host) {
  HostT host = make_host();
  Result<Value> out = Value();
  GenRun r;
  if (engine == Engine::kOracle) {
    Interpreter interp(&program, &host, budget);
    out = interp.Invoke("read", {arg});
    r.steps = interp.stats().steps_used;
  } else {
    Vm vm(&module, &host, budget);
    out = vm.Invoke("read", {arg});
    r.steps = vm.stats().steps_used;
  }
  r.outcome = out.ok() ? "OK " + out->ToString() : out.status().ToString();
  r.mutations = host.mutations();
  return r;
}

TEST(VmBudgetSweepTest, GeneratedCorpus) {
  for (uint64_t seed = 1; seed <= 220; ++seed) {
    ProgramGen gen(seed);
    std::string src = gen.Generate();
    auto program = ParseProgram(src);
    ASSERT_TRUE(program.ok()) << "seed " << seed;
    auto module = CompileProgram(**program);
    ASSERT_TRUE(module.ok()) << "seed " << seed << ": " << module.status().ToString();
    int mismatches = SweepBudgets(
        "gen seed " + std::to_string(seed), ExecBudget{},
        [&](Engine engine, ExecBudget budget) {
          return RunGenerated<CrossValHost>(engine, **program, *module, budget,
                                            Value("/x"),
                                            [] { return CrossValHost(1000, 1); });
        });
    EXPECT_EQ(mismatches, 0) << src;
  }
}

// The split() arm runs thousands of steps per program, and a sweep costs the
// square of that, so it covers the first ten programs of the generator.
TEST(VmBudgetSweepTest, SplitCorpus) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SplitGen gen(seed);
    std::string src = gen.Generate();
    auto program = ParseProgram(src);
    ASSERT_TRUE(program.ok()) << "seed " << seed;
    auto module = CompileProgram(**program);
    ASSERT_TRUE(module.ok()) << "seed " << seed << ": " << module.status().ToString();
    int mismatches = SweepBudgets(
        "split seed " + std::to_string(seed), SplitArmBudget(),
        [&](Engine engine, ExecBudget budget) {
          return RunGenerated<SplitHost>(engine, **program, *module, budget,
                                         Value("/req/part.a;part.b:tail"),
                                         [seed] { return SplitHost(seed * 7919); });
        });
    EXPECT_EQ(mismatches, 0) << src;
  }
}

}  // namespace
}  // namespace edc
