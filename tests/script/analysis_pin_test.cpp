// Pins the static analyzer's output (ctest -L analysis).
//
// The certified step bound is a contract between the analyzer and the VM:
// both must agree on CoordScript's block scoping and on the sandbox's caps.
// These tests freeze what the analyzer reports, so a refactor of either side
// that moves a verdict, a bound or a diagnostic fails here:
//
//  * the proven bound of every built-in recipe handler, all certified, under
//    the sandbox edc-lint checks recipes against;
//  * an FNV-1a digest of every AnalyzeProgram report (each handler's
//    verdicts and every diagnostic) over the seeded generators of the
//    cross-validation suite, under the configs that suite uses.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "edc/common/hash.h"
#include "edc/recipes/scripts.h"
#include "edc/script/parser.h"
#include "tests/script/vm_corpus.h"
#include "tools/lint/analyzer.h"
#include "tools/lint/lint.h"

namespace edc {
namespace {

struct RecipeBound {
  const char* recipe;
  const char* source;
  const char* handler;
  int64_t step_bound;
};

TEST(AnalyzerPinTest, RecipeBoundsPinned) {
  const RecipeBound kBounds[] = {
      {"counter", kCounterExtension, "read", 23},
      {"queue", kQueueExtension, "read", 21},
      {"barrier", kBarrierExtension, "block", 50},
      {"election", kElectionExtension, "block", 60},
      {"election", kElectionExtension, "on_deleted", 56},
      {"rename", kRenameExtension, "update", 7985},
      {"two_phase", kTwoPhaseExtension, "update", 66882},
  };
  for (const RecipeBound& b : kBounds) {
    auto program = ParseProgram(b.source);
    ASSERT_TRUE(program.ok()) << b.recipe;
    AnalysisReport report = AnalyzeProgram(**program, LintVerifierConfig());
    ASSERT_EQ(report.handlers.count(b.handler), 1u) << b.recipe << "/" << b.handler;
    const HandlerReport& hr = report.handlers.at(b.handler);
    EXPECT_TRUE(hr.cost_bounded) << b.recipe << "/" << b.handler;
    EXPECT_TRUE(hr.certified) << b.recipe << "/" << b.handler;
    EXPECT_EQ(hr.step_bound, b.step_bound) << b.recipe << "/" << b.handler;
  }
}

// Folds every field of `report` into `h`.
uint64_t FoldReport(uint64_t h, const AnalysisReport& report) {
  for (const auto& [name, hr] : report.handlers) {
    h = Fnv1a64(name + "|" + std::to_string(hr.cost_bounded) + "|" +
                    std::to_string(hr.step_bound) + "|" + std::to_string(hr.certified) +
                    "|" + std::to_string(hr.deterministic) + "\n",
                h);
  }
  for (const Diagnostic& d : report.diagnostics) {
    h = Fnv1a64(std::string(d.code) + "|" +
                    std::to_string(static_cast<int>(d.severity)) + "|" +
                    std::to_string(d.line) + "|" + std::to_string(d.col) + "|" +
                    d.handler + "|" + d.message + "\n",
                h);
  }
  return h;
}

constexpr uint64_t kGenSeeds = 4000;
constexpr uint64_t kSplitSeeds = 1500;

TEST(AnalyzerPinTest, GeneratedReportsDigestPinned) {
  uint64_t gen = kFnvOffset;
  for (uint64_t seed = 1; seed <= kGenSeeds; ++seed) {
    auto program = ParseProgram(ProgramGen(seed).Generate());
    ASSERT_TRUE(program.ok()) << "seed " << seed;
    gen = FoldReport(gen, AnalyzeProgram(**program, CrossValConfig(false)));
    gen = FoldReport(gen, AnalyzeProgram(**program, CrossValConfig(true)));
  }
  uint64_t split = kFnvOffset;
  for (uint64_t seed = 1; seed <= kSplitSeeds; ++seed) {
    auto program = ParseProgram(SplitGen(seed).Generate());
    ASSERT_TRUE(program.ok()) << "seed " << seed;
    split = FoldReport(split, AnalyzeProgram(**program, SplitArmConfig()));
  }
  EXPECT_EQ(gen, 0xd3d2cdaef7ea95e6ULL) << std::hex << "ProgramGen digest 0x" << gen;
  EXPECT_EQ(split, 0x49b1d3698b2012d8ULL) << std::hex << "SplitGen digest 0x" << split;
}

}  // namespace
}  // namespace edc
