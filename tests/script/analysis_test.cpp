#include "tools/lint/analyzer.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "edc/script/parser.h"
#include "edc/script/verifier.h"
#include "edc/script/vm/compiler.h"
#include "edc/script/vm/vm.h"
#include "tools/lint/lint.h"

namespace edc {
namespace {

VerifierConfig TestConfig() {
  VerifierConfig cfg;
  cfg.allowed_functions = CoreAllowedFunctions();
  for (const char* fn : {"create", "delete_object", "read_object", "update", "cas",
                         "sub_objects", "children", "block", "monitor", "exists",
                         "client_id"}) {
    cfg.allowed_functions[fn] = true;
  }
  cfg.allowed_functions["now"] = false;
  cfg.allowed_functions["random"] = false;
  cfg.collection_functions = {"children", "sub_objects"};
  cfg.budget.max_collection_items = 16;
  return cfg;
}

AnalysisReport Analyze(const char* src, const VerifierConfig& cfg) {
  auto prog = ParseProgram(src);
  EXPECT_TRUE(prog.ok()) << prog.status().ToString();
  return AnalyzeProgram(**prog, cfg);
}

// Runs handler `read` of `program` on the bytecode VM, the engine the
// sandbox dispatches every handler to.
struct VmRun {
  Result<Value> result = Value();
  int64_t steps = 0;
};

VmRun RunRead(const Program& program, const std::string& arg, ExecBudget budget) {
  auto module = CompileProgram(program);
  EXPECT_TRUE(module.ok()) << module.status().ToString();
  Vm vm(&*module, nullptr, budget);
  VmRun run;
  run.result = vm.Invoke("read", {Value(arg)});
  run.steps = vm.stats().steps_used;
  return run;
}

bool HasCode(const AnalysisReport& report, const std::string& code) {
  return std::any_of(report.diagnostics.begin(), report.diagnostics.end(),
                     [&](const Diagnostic& d) { return d.code == code; });
}

const Diagnostic* FindCode(const AnalysisReport& report, const std::string& code) {
  for (const Diagnostic& d : report.diagnostics) {
    if (d.code == code) {
      return &d;
    }
  }
  return nullptr;
}

TEST(AnalysisTest, CleanProgramHasNoDiagnostics) {
  auto report = Analyze(R"(
    extension q {
      on op read "/queue/head";
      fn read(oid) {
        let objs = sub_objects("/queue");
        if (len(objs) == 0) { return error("empty"); }
        let head = min_by(objs, "ctime");
        delete_object(get(head, "path"));
        return get(head, "data");
      }
    })", TestConfig());
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.diagnostics.empty());
}

TEST(AnalysisTest, AccumulatesMultipleErrors) {
  // Both an unknown function AND an undeclared variable: legacy verification
  // stopped at the first, the analyzer reports both.
  auto report = Analyze(R"(
    extension e {
      on op read "/x";
      fn read(o) {
        let a = system("boom");
        return undeclared_var;
      }
    })", TestConfig());
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasCode(report, kDiagNotWhitelisted));
  EXPECT_TRUE(HasCode(report, kDiagUseUndeclared));
  EXPECT_GE(report.diagnostics.size(), 2u);
}

TEST(AnalysisTest, DiagnosticsCarryHandlerNameAndPosition) {
  auto report = Analyze(R"(
    extension e {
      on op read "/x";
      fn read(o) {
        return system("boom");
      }
    })", TestConfig());
  const Diagnostic* d = FindCode(report, kDiagNotWhitelisted);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->line, 5);
  EXPECT_GT(d->col, 0);
  EXPECT_EQ(d->handler, "read");
  EXPECT_NE(d->message.find("'read'"), std::string::npos);
}

TEST(AnalysisTest, UnusedVariableWarning) {
  auto report = Analyze(R"(
    extension e {
      on op read "/x";
      fn read(o) {
        let unused = 1;
        return 2;
      }
    })", TestConfig());
  EXPECT_TRUE(report.ok());  // warnings do not reject
  const Diagnostic* d = FindCode(report, kDiagUnusedVariable);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_NE(d->message.find("unused"), std::string::npos);
}

TEST(AnalysisTest, ParametersAreNotFlaggedUnused) {
  auto report = Analyze(R"(
    extension e { on op read "/x"; fn read(o) { return 1; } })", TestConfig());
  EXPECT_FALSE(HasCode(report, kDiagUnusedVariable));
}

TEST(AnalysisTest, DeadStoreWarning) {
  auto report = Analyze(R"(
    extension e {
      on op read "/x";
      fn read(o) {
        let a = 1;
        a = 2;
        return a;
      }
    })", TestConfig());
  const Diagnostic* d = FindCode(report, kDiagDeadStore);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->line, 5);  // the initial `let a = 1` is overwritten unread
}

TEST(AnalysisTest, UnreachableCodeAfterReturn) {
  auto report = Analyze(R"(
    extension e {
      on op read "/x";
      fn read(o) {
        return 1;
        let after = 2;
      }
    })", TestConfig());
  const Diagnostic* d = FindCode(report, kDiagUnreachableCode);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->line, 6);
}

TEST(AnalysisTest, NoUnreachableWhenOnlyOneBranchReturns) {
  auto report = Analyze(R"(
    extension e {
      on op read "/x";
      fn read(o) {
        if (o == "a") { return 1; }
        return 2;
      }
    })", TestConfig());
  EXPECT_FALSE(HasCode(report, kDiagUnreachableCode));
}

TEST(AnalysisTest, CostBoundCoversListLiteralLoop) {
  auto report = Analyze(R"(
    extension e {
      on op read "/x";
      fn read(o) {
        let total = 0;
        foreach (v in [1, 2, 3]) {
          total = total + v;
        }
        return total;
      }
    })", TestConfig());
  ASSERT_EQ(report.handlers.count("read"), 1u);
  const HandlerReport& hr = report.handlers.at("read");
  EXPECT_TRUE(hr.cost_bounded);
  EXPECT_TRUE(hr.certified);
  EXPECT_GT(hr.step_bound, 0);

  // The static bound must dominate the actual execution cost.
  auto prog = ParseProgram(R"(
    extension e {
      on op read "/x";
      fn read(o) {
        let total = 0;
        foreach (v in [1, 2, 3]) {
          total = total + v;
        }
        return total;
      }
    })");
  ASSERT_TRUE(prog.ok());
  VmRun run = RunRead(**prog, "/x", ExecBudget{});
  ASSERT_TRUE(run.result.ok()) << run.result.status().ToString();
  EXPECT_LE(run.steps, hr.step_bound);
}

TEST(AnalysisTest, CollectionLoopBoundedByCap) {
  VerifierConfig cfg = TestConfig();
  auto report = Analyze(R"(
    extension e {
      on op read "/x";
      fn read(o) {
        let names = children("/dir");
        let n = 0;
        foreach (c in names) {
          n = n + 1;
        }
        return n;
      }
    })", cfg);
  ASSERT_EQ(report.handlers.count("read"), 1u);
  EXPECT_TRUE(report.handlers.at("read").cost_bounded);
  EXPECT_TRUE(report.handlers.at("read").certified);
}

TEST(AnalysisTest, UnboundedLoopIsNotCertified) {
  // `o` is a parameter: its list bound is unknown, so the handler cannot be
  // certified — but it is still admissible (metering stays on).
  auto report = Analyze(R"(
    extension e {
      on op read "/x";
      fn read(o) {
        let n = 0;
        foreach (c in o) {
          n = n + 1;
        }
        return n;
      }
    })", TestConfig());
  EXPECT_TRUE(report.ok());
  ASSERT_EQ(report.handlers.count("read"), 1u);
  EXPECT_FALSE(report.handlers.at("read").cost_bounded);
  EXPECT_FALSE(report.handlers.at("read").certified);
  EXPECT_TRUE(HasCode(report, kDiagCostUnbounded));
}

TEST(AnalysisTest, OverBudgetBoundIsNotCertified) {
  VerifierConfig cfg = TestConfig();
  cfg.budget.max_steps = 10;  // tiny budget: nested loop bound exceeds it
  auto report = Analyze(R"(
    extension e {
      on op read "/x";
      fn read(o) {
        let n = 0;
        foreach (a in [1, 2, 3]) {
          foreach (b in [1, 2, 3]) {
            n = n + 1;
          }
        }
        return n;
      }
    })", cfg);
  EXPECT_TRUE(report.ok());
  EXPECT_FALSE(report.handlers.at("read").certified);
  EXPECT_TRUE(HasCode(report, kDiagCostOverBudget));
}

TEST(AnalysisTest, DeterminismIsFlowSensitive) {
  VerifierConfig cfg = TestConfig();
  cfg.require_deterministic = true;
  // The nondeterministic value never reaches state or the reply: admissible
  // under the flow-sensitive analysis (the legacy verifier rejected this).
  auto report = Analyze(R"(
    extension e {
      on op read "/x";
      fn read(o) {
        let t = now();
        return 42;
      }
    })", cfg);
  EXPECT_FALSE(HasCode(report, kDiagNondeterminism));
  EXPECT_TRUE(report.ok());
  // `deterministic` tracks taint-reaches-sink, not mere presence of a
  // nondeterministic call — the dead now() leaves the handler deterministic.
  EXPECT_TRUE(report.handlers.at("read").deterministic);
}

TEST(AnalysisTest, TaintThroughVariableToReturnRejected) {
  VerifierConfig cfg = TestConfig();
  cfg.require_deterministic = true;
  auto report = Analyze(R"(
    extension e {
      on op read "/x";
      fn read(o) {
        let t = now();
        let u = t + 1;
        return u;
      }
    })", cfg);
  const Diagnostic* d = FindCode(report, kDiagNondeterminism);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_NE(d->message.find("nondeterministic"), std::string::npos);
}

TEST(AnalysisTest, ImplicitFlowThroughControlRejected) {
  VerifierConfig cfg = TestConfig();
  cfg.require_deterministic = true;
  // No tainted value flows into the update argument, but the *decision* to
  // mutate depends on now(): replicas could diverge.
  auto report = Analyze(R"(
    extension e {
      on op read "/x";
      fn read(o) {
        if (now() > 100) {
          update("/x", "fired");
        }
        return 1;
      }
    })", cfg);
  EXPECT_TRUE(HasCode(report, kDiagNondeterminism));
}

TEST(AnalysisTest, ReadOnlyCallUnderTaintedControlAdmissible) {
  VerifierConfig cfg = TestConfig();
  cfg.require_deterministic = true;
  auto report = Analyze(R"(
    extension e {
      on op read "/x";
      fn read(o) {
        let t = now();
        let v = 0;
        if (t > 100) {
          v = 1;
        }
        return 7;
      }
    })", cfg);
  EXPECT_FALSE(HasCode(report, kDiagNondeterminism));
  EXPECT_TRUE(report.ok());
}

// ---- Block scoping in the analysis passes ----
//
// Every pass resolves names through ResolveNames, so shadowing must land
// exactly where the VM puts it (vm_test.cpp pins the VM side). Each case is
// the body of `fn read(o)`.

struct ScopingCase {
  const char* name;
  const char* body;
  bool flagged;  // EDC-E013 expected under require_deterministic
};

std::string ReadHandler(const std::string& body) {
  return "extension e {\n  on op read \"/x\";\n  fn read(o) {\n" + body +
         "\n  }\n}\n";
}

TEST(AnalysisScopingTest, TaintFollowsBlockScoping) {
  const ScopingCase kCases[] = {
      {"inner clean let shadows tainted outer",
       R"(let t = now();
          if (o == "/x") { let t = 1; update("/a", str(t)); }
          return 0;)",
       false},
      {"inner assignment taints the outer binding",
       R"(let t = 0;
          if (o == "/x") { t = now(); }
          update("/a", str(t));
          return 0;)",
       true},
      {"inner tainted let leaves the outer binding clean",
       R"(let t = 0;
          if (o == "/x") { let t = now(); }
          update("/a", str(t));
          return 0;)",
       false},
      {"loop variable shadows tainted outer",
       R"(let x = now();
          foreach (x in [1, 2]) { update("/a", str(x)); }
          return 0;)",
       false},
      {"shadowing initializer reads the tainted outer",
       R"(let n = now();
          if (o == "/x") { let n = n + 1; update("/a", str(n)); }
          return 0;)",
       true},
      {"re-let in the same block rebinds clean",
       R"(let t = now();
          let t = 1;
          update("/a", str(t));
          return 0;)",
       false},
  };
  VerifierConfig cfg = TestConfig();
  cfg.require_deterministic = true;
  for (const ScopingCase& c : kCases) {
    std::string src = ReadHandler(c.body);
    AnalysisReport report = Analyze(src.c_str(), cfg);
    EXPECT_EQ(HasCode(report, kDiagNondeterminism), c.flagged) << c.name;
    ASSERT_EQ(report.handlers.count("read"), 1u) << c.name;
    EXPECT_EQ(report.handlers.at("read").deterministic, !c.flagged) << c.name;
  }
}

TEST(AnalysisScopingTest, CostFollowsBlockScoping) {
  VerifierConfig cfg = TestConfig();
  cfg.budget = ExecBudget{};
  // The inner let binds a new `l`: the loop iterates the outer 3-item
  // literal.
  std::string shadowed = ReadHandler(R"(let l = [1, 2, 3];
      if (o == "/x") { let l = children("/x"); }
      foreach (e in l) { update("/a", str(e)); }
      return null;)");
  // The assignment rebinds the outer `l`: the loop may iterate a capped
  // children() list (256 items).
  std::string assigned = ReadHandler(R"(let l = [1, 2, 3];
      if (o == "/x") { l = children("/x"); }
      foreach (e in l) { update("/a", str(e)); }
      return null;)");
  AnalysisReport a = Analyze(shadowed.c_str(), cfg);
  AnalysisReport b = Analyze(assigned.c_str(), cfg);
  ASSERT_EQ(a.handlers.count("read"), 1u);
  ASSERT_EQ(b.handlers.count("read"), 1u);
  EXPECT_TRUE(a.handlers.at("read").cost_bounded);
  EXPECT_EQ(a.handlers.at("read").step_bound, 31);
  EXPECT_TRUE(b.handlers.at("read").cost_bounded);
  EXPECT_EQ(b.handlers.at("read").step_bound, 1296);
}

TEST(AnalysisTest, SubscriptionWithoutHandlerHasRealLine) {
  auto prog = ParseProgram(R"(
    extension e {
      on event created "/watched/*";
      fn read(o) { return o; }
    })");
  ASSERT_TRUE(prog.ok());
  auto report = AnalyzeProgram(**prog, TestConfig());
  const Diagnostic* d = FindCode(report, kDiagSubWithoutHandler);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->line, 3);
  EXPECT_NE(d->message.find("created"), std::string::npos);
}

TEST(AnalysisTest, NestingTooDeepHasRealLine) {
  VerifierConfig cfg = TestConfig();
  cfg.max_nesting_depth = 2;
  auto report = Analyze(R"(
    extension e {
      on op read "/x";
      fn read(o) {
        if (o == "a") {
          if (o == "b") {
            if (o == "c") { return 1; }
          }
        }
        return 2;
      }
    })", cfg);
  const Diagnostic* d = FindCode(report, kDiagNestingTooDeep);
  ASSERT_NE(d, nullptr);
  EXPECT_GT(d->line, 0);
  EXPECT_NE(d->message.find("nesting too deep"), std::string::npos);
}

TEST(AnalysisTest, VerifierStatusKeepsLegacyFormat) {
  auto prog = ParseProgram(R"(
    extension e { on op read "/x"; fn read(o) { return system("x"); } })");
  ASSERT_TRUE(prog.ok());
  Status s = VerifyProgram(**prog, TestConfig()).status;
  EXPECT_EQ(s.code(), ErrorCode::kExtensionRejected);
  EXPECT_NE(s.message().find("verification failed at line"), std::string::npos);
  EXPECT_NE(s.message().find("white list"), std::string::npos);
  EXPECT_NE(s.message().find("[EDC-E012]"), std::string::npos);
}

// ---- Interval-domain precision diagnostics (EDC-W007..W009) ----

TEST(AnalysisTest, DivisionByPossiblyZeroIntervalWarns) {
  auto report = Analyze(R"(
    extension e {
      on op read "/x";
      fn read(o) {
        let d = 0;
        return 10 / d;
      }
    })", TestConfig());
  EXPECT_TRUE(report.ok());  // warning, not error: runtime still catches it
  const Diagnostic* d = FindCode(report, kDiagDivByZero);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->line, 6);
  EXPECT_NE(d->message.find("[0, 0]"), std::string::npos);
}

TEST(AnalysisTest, ModuloByPossiblyZeroIntervalWarns) {
  // len(o) has interval [0, N]: zero is possible, so `% len(o)` warns even
  // though the divisor is not a constant.
  auto report = Analyze(R"(
    extension e {
      on op read "/x";
      fn read(o) {
        return 10 % len(o);
      }
    })", TestConfig());
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(HasCode(report, kDiagDivByZero));
}

TEST(AnalysisTest, NoDivWarningWhenIntervalExcludesZero) {
  // len(o) + 1 is in [1, N]: provably nonzero, no warning. A divisor with an
  // unknown (top) interval — parse_int — must stay silent too; warning on
  // every unknown divisor would be noise, not precision.
  auto report = Analyze(R"(
    extension e {
      on op read "/x";
      fn read(o) {
        let a = 100 / (len(o) + 1);
        let b = 100 / parse_int(o);
        return a + b;
      }
    })", TestConfig());
  EXPECT_TRUE(report.ok());
  EXPECT_FALSE(HasCode(report, kDiagDivByZero));
}

TEST(AnalysisTest, IndexProvablyOutOfRangeWarns) {
  auto report = Analyze(R"(
    extension e {
      on op read "/x";
      fn read(o) {
        let xs = [1, 2, 3];
        return get(xs, 5);
      }
    })", TestConfig());
  EXPECT_TRUE(report.ok());
  const Diagnostic* d = FindCode(report, kDiagIndexOutOfRange);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("at least 5"), std::string::npos);
  EXPECT_NE(d->message.find("3 item(s)"), std::string::npos);
}

TEST(AnalysisTest, NegativeIndexWarnsViaSubscript) {
  auto report = Analyze(R"(
    extension e {
      on op read "/x";
      fn read(o) {
        let xs = [1, 2, 3];
        return xs[0 - 1];
      }
    })", TestConfig());
  EXPECT_TRUE(report.ok());
  const Diagnostic* d = FindCode(report, kDiagIndexOutOfRange);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("negative"), std::string::npos);
}

TEST(AnalysisTest, InRangeIndexDoesNotWarn) {
  auto report = Analyze(R"(
    extension e {
      on op read "/x";
      fn read(o) {
        let xs = [1, 2, 3];
        return get(xs, 2) + xs[0];
      }
    })", TestConfig());
  EXPECT_TRUE(report.ok());
  EXPECT_FALSE(HasCode(report, kDiagIndexOutOfRange));
}

TEST(AnalysisTest, DeadBranchProvablyFalseWarns) {
  auto report = Analyze(R"(
    extension e {
      on op read "/x";
      fn read(o) {
        let x = 5;
        if (x > 9) {
          return 1;
        }
        return 0;
      }
    })", TestConfig());
  EXPECT_TRUE(report.ok());
  const Diagnostic* d = FindCode(report, kDiagDeadBranch);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("provably false"), std::string::npos);
}

TEST(AnalysisTest, DeadElseBranchProvablyTrueWarns) {
  auto report = Analyze(R"(
    extension e {
      on op read "/x";
      fn read(o) {
        let x = 5;
        if (x < 9) {
          return 1;
        } else {
          return 2;
        }
      }
    })", TestConfig());
  EXPECT_TRUE(report.ok());
  const Diagnostic* d = FindCode(report, kDiagDeadBranch);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("provably true"), std::string::npos);
}

TEST(AnalysisTest, UndecidableBranchDoesNotWarn) {
  auto report = Analyze(R"(
    extension e {
      on op read "/x";
      fn read(o) {
        if (len(o) > 9) {
          return 1;
        }
        return 0;
      }
    })", TestConfig());
  EXPECT_TRUE(report.ok());
  EXPECT_FALSE(HasCode(report, kDiagDeadBranch));
}

// ---- Amortized split() bounds and budget seeding ----

constexpr char kSplitLoopExt[] = R"(
    extension e {
      on op read "/x";
      fn read(o) {
        let total = 0;
        foreach (part in split(o, "/")) {
          foreach (ch in split(part, ".")) {
            total = total + len(ch);
          }
        }
        return total;
      }
    })";

TEST(AnalysisTest, NestedSplitLoopsCertifyWithAmortizedBound) {
  // The paper's 2PC shape in miniature: foreach over split() of a request
  // parameter, with a nested split inside. The naive product bound (pieces x
  // pieces x per-char work) explodes; the amortized total-length accounting
  // must keep the bound inside the default certification budget.
  auto report = Analyze(kSplitLoopExt, TestConfig());
  EXPECT_TRUE(report.ok());
  const HandlerReport& hr = report.handlers.at("read");
  EXPECT_TRUE(hr.cost_bounded);
  EXPECT_TRUE(hr.certified);
  EXPECT_GT(hr.step_bound, 0);
  EXPECT_LE(hr.step_bound, 50000);
  EXPECT_FALSE(HasCode(report, kDiagCostUnbounded));
  EXPECT_FALSE(HasCode(report, kDiagCostOverBudget));
}

TEST(AnalysisTest, TinyStepBudgetRejectsDefaultCertifiableHandler) {
  // Regression for budget seeding: the same handler that certifies under the
  // default budget must be *rejected* (not mis-certified) when the registry
  // is configured with max_steps=10 — the analyzer has to compare its bound
  // against the configured limit, not a baked-in default.
  VerifierConfig cfg = TestConfig();
  cfg.budget.max_steps = 10;
  auto report = Analyze(kSplitLoopExt, cfg);
  EXPECT_TRUE(report.ok());
  const HandlerReport& hr = report.handlers.at("read");
  EXPECT_TRUE(hr.cost_bounded);
  EXPECT_FALSE(hr.certified);
  EXPECT_TRUE(HasCode(report, kDiagCostOverBudget));

  // And the runtime agrees: a metered run under the same 10-step limit trips
  // kExtensionLimit instead of completing.
  auto prog = ParseProgram(kSplitLoopExt);
  ASSERT_TRUE(prog.ok());
  ExecBudget tiny;
  tiny.max_steps = 10;
  VmRun run = RunRead(**prog, "/a/b.c/d", tiny);
  EXPECT_EQ(run.result.status().code(), ErrorCode::kExtensionLimit);
}

TEST(AnalysisTest, LintFormatsDiagnosticsAndSummary) {
  LintResult r = LintSource("demo.edc", R"(
    extension e {
      on op read "/x";
      fn read(o) {
        let unused = 1;
        return 2;
      }
    })", LintVerifierConfig());
  EXPECT_FALSE(r.has_errors);
  EXPECT_NE(r.formatted.find("demo.edc:5:"), std::string::npos);
  EXPECT_NE(r.formatted.find("[EDC-W001]"), std::string::npos);
  EXPECT_NE(r.formatted.find("1/1 handlers certified"), std::string::npos);
}

TEST(AnalysisTest, LintReportsParseErrors) {
  LintResult r = LintSource("bad.edc", "extension {", LintVerifierConfig());
  EXPECT_TRUE(r.has_errors);
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.diagnostics[0].code, "EDC-E000");
}

}  // namespace
}  // namespace edc
