// Golden-output tests for edc-lint (ctest -L lint).
//
// Lints every example script and every built-in recipe extension through the
// same LintSource path the CLI uses, and sets of sources through the same
// LintSources path (per-file reports, then the whole-registry section), and
// compares the full formatted report against the checked-in expectation in
// tests/script/golden/. A diagnostic drifting (position, wording, severity,
// certification verdict) fails here first, with the actual output printed
// for easy golden refresh.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "edc/recipes/scripts.h"
#include "tools/lint/lint.h"

namespace edc {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string GoldenPath(const std::string& name) {
  return std::string(EDC_SOURCE_DIR) + "/tests/script/golden/" + name + ".txt";
}

void ExpectMatchesGolden(const std::string& unit, const std::string& source) {
  LintResult result = LintSource(unit, source, LintVerifierConfig());
  std::string expected = ReadFile(GoldenPath(unit));
  EXPECT_EQ(result.formatted, expected)
      << "lint output drifted for " << unit << "; actual output:\n"
      << result.formatted;
}

// `sources` linted together, as `edc-lint a.edc b.edc ...` prints them.
std::string ExpectSetMatchesGolden(const std::string& golden,
                                   const std::vector<LintInput>& sources) {
  std::string actual = LintSources(sources, LintVerifierConfig()).Format(false);
  EXPECT_EQ(actual, ReadFile(GoldenPath(golden)))
      << "lint output drifted for " << golden << "; actual output:\n"
      << actual;
  return actual;
}

std::string ReadGoldenSource(const std::string& name) {
  return ReadFile(std::string(EDC_SOURCE_DIR) + "/tests/script/golden/" + name);
}

TEST(LintGoldenTest, ExampleQueueRemove) {
  ExpectMatchesGolden("queue_remove.edc",
                      ReadFile(std::string(EDC_SOURCE_DIR) +
                               "/examples/scripts/queue_remove.edc"));
}

TEST(LintGoldenTest, ExampleAuditCount) {
  ExpectMatchesGolden("audit_count.edc",
                      ReadFile(std::string(EDC_SOURCE_DIR) +
                               "/examples/scripts/audit_count.edc"));
}

TEST(LintGoldenTest, ExampleBrokenSweeper) {
  ExpectMatchesGolden("broken_sweeper.edc",
                      ReadFile(std::string(EDC_SOURCE_DIR) +
                               "/examples/scripts/broken_sweeper.edc"));
}

// The recipe extensions (paper Figs. 5/7/9/11) must stay lint-clean and
// fully certified: they are the scripts every benchmark registers.
TEST(LintGoldenTest, RecipeCounter) {
  ExpectMatchesGolden("recipe_counter.edc", kCounterExtension);
}

TEST(LintGoldenTest, RecipeQueue) {
  ExpectMatchesGolden("recipe_queue.edc", kQueueExtension);
}

TEST(LintGoldenTest, RecipeBarrier) {
  ExpectMatchesGolden("recipe_barrier.edc", kBarrierExtension);
}

TEST(LintGoldenTest, RecipeElection) {
  ExpectMatchesGolden("recipe_election.edc", kElectionExtension);
}

TEST(LintGoldenTest, RecipeRename) {
  ExpectMatchesGolden("recipe_rename.edc", kRenameExtension);
}

// The 2PC coordinator was the one recipe the pre-interval cost pass could
// not certify (nested foreach over split() results). The abstract domain's
// amortized accounting now proves a finite bound — the golden pins the
// "1/1 handlers certified" verdict so a soundness-motivated precision loss
// shows up here before it silently pushes 2PC back onto the metered
// interpreter.
TEST(LintGoldenTest, RecipeTwoPhase) {
  ExpectMatchesGolden("recipe_two_phase.edc", kTwoPhaseExtension);
}

// The six recipes registered together, in the order the benchmarks use: no
// trigger shadows another and no two write conflicting types to a key.
TEST(LintGoldenTest, RegistryRecipesTogether) {
  ExpectSetMatchesGolden("registry_recipes",
                         {{"recipe_counter.edc", kCounterExtension},
                          {"recipe_queue.edc", kQueueExtension},
                          {"recipe_barrier.edc", kBarrierExtension},
                          {"recipe_election.edc", kElectionExtension},
                          {"recipe_rename.edc", kRenameExtension},
                          {"recipe_two_phase.edc", kTwoPhaseExtension}});
}

// A later subtree subscription takes every read of an earlier exact one:
// exactly one EDC-W010, on the earlier extension.
TEST(LintGoldenTest, RegistryShadowingPair) {
  std::string out = ExpectSetMatchesGolden(
      "registry_shadowing", {{"shadow_head.edc", ReadGoldenSource("shadow_head.edc")},
                             {"shadow_all.edc", ReadGoldenSource("shadow_all.edc")}});
  size_t w010 = 0;
  for (size_t at = out.find("[EDC-W010]"); at != std::string::npos;
       at = out.find("[EDC-W010]", at + 1)) {
    ++w010;
  }
  EXPECT_EQ(w010, 1u);
}

}  // namespace
}  // namespace edc
