// Cross-validation of the static analyzer against execution, and of the
// bytecode VM against the test oracle (tests/oracle/interpreter.h).
//
// A seeded generator produces hundreds of random CoordScript handlers from a
// small grammar (lets, assigns, ifs, foreach over literals and capped host
// collections, host mutations, nondeterministic calls). For every program:
//
//  * Cost soundness: if the analyzer certified the handler, its actual
//    step count — against a host that returns collections at the full
//    configured cap — must never exceed the proven static bound.
//  * Determinism soundness: if two executions that differ only in their
//    nondeterministic environment (now/random) diverge in replicated effects
//    (mutation log, return value, outcome), the determinism taint pass must
//    have flagged the program. Divergence with no EDC-E013 is a missed bug.
//
// The generator's distribution is checked for non-vacuity: enough certified
// handlers, enough genuinely divergent programs, enough clean ones.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "edc/script/parser.h"
#include "edc/script/verifier.h"
#include "edc/script/vm/compiler.h"
#include "edc/script/vm/vm.h"
#include "tests/oracle/interpreter.h"
#include "tests/script/vm_corpus.h"
#include "tools/lint/analyzer.h"

namespace edc {
namespace {

constexpr int kNumSeeds = 220;

struct ExecOutcome {
  bool ok = false;
  std::string result;
  std::vector<std::string> mutations;
  int64_t steps = 0;

  bool Diverges(const ExecOutcome& o) const {
    return ok != o.ok || result != o.result || mutations != o.mutations;
  }
};

ExecOutcome Execute(const Program& program, int64_t now_value, uint64_t random_seed) {
  CrossValHost host(now_value, random_seed);
  ExecBudget budget;  // default (generous) budget
  Interpreter interp(&program, &host, budget);
  auto out = interp.Invoke("read", {Value("/x")});
  ExecOutcome o;
  o.ok = out.ok();
  o.result = out.ok() ? out->ToString() : out.status().ToString();
  o.mutations = host.mutations();
  o.steps = interp.stats().steps_used;
  return o;
}

// Bytecode-VM twin of Execute(), running the module registration built.
ExecOutcome ExecuteVm(const CompiledModule& module, int64_t now_value,
                      uint64_t random_seed) {
  CrossValHost host(now_value, random_seed);
  Vm vm(&module, &host, ExecBudget{});
  auto out = vm.Invoke("read", {Value("/x")});
  ExecOutcome o;
  o.ok = out.ok();
  o.result = out.ok() ? out->ToString() : out.status().ToString();
  o.mutations = host.mutations();
  o.steps = vm.stats().steps_used;
  return o;
}

TEST(AnalysisCrossValTest, CertifiedBoundsAreSoundAndDivergenceIsFlagged) {
  int certified = 0;
  int divergent = 0;
  int flagged = 0;
  int clean_runs = 0;

  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    ProgramGen gen(seed);
    std::string src = gen.Generate();
    auto program = ParseProgram(src);
    ASSERT_TRUE(program.ok()) << "seed " << seed << ": " << program.status().ToString()
                              << "\n" << src;

    // ---- Cost-bound soundness (EZK-style permissive config) ----
    AnalysisReport report = AnalyzeProgram(**program, CrossValConfig(false));
    ASSERT_EQ(report.handlers.count("read"), 1u) << src;
    const HandlerReport& hr = report.handlers.at("read");
    ExecOutcome run = Execute(**program, 1000, 1);
    if (hr.certified) {
      ++certified;
      EXPECT_LE(run.steps, hr.step_bound)
          << "seed " << seed << ": certified handler exceeded its bound\n" << src;
    }

    // ---- Determinism soundness (EDS-style strict config) ----
    AnalysisReport det = AnalyzeProgram(**program, CrossValConfig(true));
    bool is_flagged = false;
    for (const Diagnostic& d : det.diagnostics) {
      is_flagged = is_flagged || d.code == kDiagNondeterminism;
    }
    ExecOutcome replica_b = Execute(**program, 7777, 99);
    bool diverges = run.Diverges(replica_b);
    if (is_flagged) {
      ++flagged;
    }
    if (diverges) {
      ++divergent;
      EXPECT_TRUE(is_flagged)
          << "seed " << seed
          << ": replicas diverged but the determinism pass did not flag it\n"
          << src << "\nrun A: " << run.result << "\nrun B: " << replica_b.result;
    }
    if (!is_flagged && !diverges) {
      ++clean_runs;
    }
  }

  // Non-vacuity: the grammar must actually exercise every verdict.
  EXPECT_GE(certified, kNumSeeds / 2) << "generator stopped producing bounded handlers";
  EXPECT_GE(divergent, 10) << "generator stopped producing divergent programs";
  EXPECT_GE(clean_runs, 10) << "generator stopped producing clean programs";
  EXPECT_GE(flagged, divergent);
}

// The VM must be observationally identical to the oracle on the full
// generated corpus: same outcome, same rendered result/error, same mutation
// log, and — load-bearing for replica digests — the same steps_used. The
// generator covers folding-heavy arithmetic, shadowing, nested control flow,
// host mutations and nondeterministic calls, so this is the volume backstop
// behind the hand-written parity cases in vm_test.cpp. Registration compiles
// every handler the analyzer accepts, certified or not, so CompileProgram
// must emit every handler of every accepted program.
TEST(AnalysisCrossValTest, VmMatchesInterpreterOnGeneratedCorpus) {
  int accepted = 0;
  int certified = 0;
  int uncertified = 0;
  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    ProgramGen gen(seed);
    std::string src = gen.Generate();
    auto program = ParseProgram(src);
    ASSERT_TRUE(program.ok()) << "seed " << seed;

    // A tight certification threshold splits the corpus between certified
    // and uncertified handlers; registration must compile both.
    VerifierConfig cfg = CrossValConfig(false);
    cfg.budget.max_steps = 60;
    AnalysisReport report = AnalyzeProgram(**program, cfg);
    if (!report.ok()) {
      continue;
    }
    ++accepted;
    bool is_certified = report.handlers.at("read").certified;
    certified += is_certified ? 1 : 0;
    uncertified += is_certified ? 0 : 1;
    auto module = CompileProgram(**program);
    ASSERT_TRUE(module.ok()) << "seed " << seed << ": " << module.status().ToString()
                             << "\n" << src;
    ASSERT_EQ(module->handlers.size(), (*program)->handlers.size()) << "seed " << seed;

    ExecOutcome vm_run = ExecuteVm(*module, 1000, 1);
    ExecOutcome interp_run = Execute(**program, 1000, 1);
    EXPECT_EQ(interp_run.ok, vm_run.ok) << "seed " << seed << "\n" << src;
    EXPECT_EQ(interp_run.result, vm_run.result) << "seed " << seed << "\n" << src;
    EXPECT_EQ(interp_run.mutations, vm_run.mutations) << "seed " << seed << "\n" << src;
    EXPECT_EQ(interp_run.steps, vm_run.steps)
        << "seed " << seed << ": step accounting diverged\n" << src;
  }
  // The generator emits only declared names and whitelisted calls, so the
  // analyzer accepts every program.
  EXPECT_EQ(accepted, kNumSeeds);
  EXPECT_GE(certified, 20);
  EXPECT_GE(uncertified, 20);
}

// ---- split()-heavy arm ----
//
// The interval/length domain's headline precision win is the amortized bound
// for foreach-over-split() (the 2PC shape), so it gets its own generator arm:
// strings come from a host fetch() at worst-case ingest size, separators are
// sprinkled densely enough that split() fans out hard, and loops nest. The
// analyzer's bound must dominate the real step count on every certified
// program, and the VM must stay observationally identical on the corpus.

TEST(AnalysisCrossValTest, SplitHeavyBoundsAreSoundAndVmMatches) {
  int certified = 0;
  int completed = 0;
  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    SplitGen gen(seed);
    std::string src = gen.Generate();
    auto program = ParseProgram(src);
    ASSERT_TRUE(program.ok()) << "seed " << seed << ": "
                              << program.status().ToString() << "\n" << src;

    AnalysisReport report = AnalyzeProgram(**program, SplitArmConfig());
    ASSERT_EQ(report.handlers.count("read"), 1u) << src;
    const HandlerReport& hr = report.handlers.at("read");
    // split() always yields a finite (capped) list, so every program in this
    // arm must get a finite bound; precision may only affect certification.
    EXPECT_TRUE(hr.cost_bounded) << "seed " << seed << "\n" << src;
    for (const Diagnostic& d : report.diagnostics) {
      EXPECT_NE(d.code, kDiagIndexOutOfRange)
          << "seed " << seed << ": guarded get() flagged\n" << src;
    }

    SplitHost host(seed * 7919);
    Interpreter interp(program->get(), &host, SplitArmBudget());
    auto out = interp.Invoke("read", {Value("/req/part.a;part.b:tail")});
    int64_t steps = interp.stats().steps_used;
    if (out.ok()) {
      ++completed;
    }
    if (hr.certified) {
      ++certified;
      EXPECT_LE(steps, hr.step_bound)
          << "seed " << seed << ": certified split handler exceeded its bound\n"
          << src;
    }

    // VM twin under the identical budget and an identically-seeded host: the
    // corpus is all builtins + host calls, so everything must compile, and
    // outcome/result/mutations/steps must match byte for byte.
    auto module = CompileProgram(**program);
    ASSERT_TRUE(module.ok()) << "seed " << seed << ": " << module.status().ToString()
                             << "\n" << src;
    SplitHost vm_host(seed * 7919);
    Vm vm(&*module, &vm_host, SplitArmBudget());
    auto vm_out = vm.Invoke("read", {Value("/req/part.a;part.b:tail")});
    EXPECT_EQ(out.ok(), vm_out.ok()) << "seed " << seed << "\n" << src;
    EXPECT_EQ(out.ok() ? out->ToString() : out.status().ToString(),
              vm_out.ok() ? vm_out->ToString() : vm_out.status().ToString())
        << "seed " << seed << "\n" << src;
    EXPECT_EQ(host.mutations(), vm_host.mutations()) << "seed " << seed << "\n" << src;
    EXPECT_EQ(steps, vm.stats().steps_used)
        << "seed " << seed << ": step accounting diverged\n" << src;
  }

  // Non-vacuity: the arm must mostly certify (that is the point of the
  // amortized bound) and mostly run to completion (the caps are load-bearing
  // but not the common case).
  EXPECT_GE(certified, (kNumSeeds * 9) / 10)
      << "split-heavy programs stopped certifying";
  EXPECT_GE(completed, kNumSeeds / 2)
      << "split-heavy programs stopped completing under the caps";
}

}  // namespace
}  // namespace edc
