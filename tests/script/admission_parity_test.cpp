// Admission vs lint parity (ctest -L analysis).
//
// Every replica runs admission (VerifyProgram); edc-lint runs admission plus
// warning-only passes (AnalyzeProgram). The two must never disagree on what
// registration decides: for every input, the lint report's errors are
// admission's errors, its first error makes admission's Status byte for
// byte, and the per-handler verdicts are equal. Inputs: the seeded
// generators of the cross-validation suite under their configs, and the six
// recipes plus every example script under the EZK and EDS managers' configs
// and edc-lint's.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "edc/ds/types.h"
#include "edc/ext/core.h"
#include "edc/recipes/scripts.h"
#include "edc/script/parser.h"
#include "edc/script/verifier.h"
#include "edc/zk/types.h"
#include "tests/script/vm_corpus.h"
#include "tools/lint/analyzer.h"
#include "tools/lint/lint.h"

namespace edc {
namespace {

std::string Key(const Diagnostic& d) {
  return d.code + "|" + std::to_string(d.line) + "|" + std::to_string(d.col) + "|" +
         d.handler + "|" + d.message;
}

// Returns "" when admission and lint agree on `source` under `config`, else
// what differs.
std::string Mismatch(const std::string& source, const VerifierConfig& config) {
  auto program = ParseProgram(source);
  if (!program.ok()) {
    return "parse: " + program.status().ToString();
  }
  Admission admission = VerifyProgram(**program, config);
  AnalysisReport report = AnalyzeProgram(**program, config);

  const Diagnostic* first = report.first_error();
  Status lint_status = first != nullptr ? Rejection(*first) : Status::Ok();
  if (lint_status.ToString() != admission.status.ToString()) {
    return "status: admission '" + admission.status.ToString() + "', lint '" +
           lint_status.ToString() + "'";
  }
  std::vector<std::string> lint_errors;
  for (const Diagnostic& d : report.diagnostics) {
    if (d.severity == Severity::kError) {
      lint_errors.push_back(Key(d));
    }
  }
  std::vector<std::string> admission_errors;
  for (const Diagnostic& d : admission.errors) {
    admission_errors.push_back(Key(d));
  }
  if (lint_errors != admission_errors) {
    return "errors: admission " + std::to_string(admission_errors.size()) + ", lint " +
           std::to_string(lint_errors.size());
  }
  if (report.handlers.size() != admission.handlers.size()) {
    return "handler count";
  }
  for (const auto& [name, a] : admission.handlers) {
    auto it = report.handlers.find(name);
    if (it == report.handlers.end()) {
      return "handler " + name + " missing from lint";
    }
    const HandlerReport& l = it->second;
    if (a.cost_bounded != l.cost_bounded || a.step_bound != l.step_bound ||
        a.certified != l.certified || a.deterministic != l.deterministic) {
      return "handler " + name + " verdicts";
    }
  }
  return "";
}

TEST(AdmissionParityTest, GeneratedPrograms) {
  size_t rejected = 0;
  for (uint64_t seed = 1; seed <= 4000; ++seed) {
    std::string source = ProgramGen(seed).Generate();
    for (bool deterministic : {false, true}) {
      VerifierConfig config = CrossValConfig(deterministic);
      ASSERT_EQ(Mismatch(source, config), "")
          << "ProgramGen seed " << seed << " deterministic=" << deterministic;
      auto program = ParseProgram(source);
      rejected += VerifyProgram(**program, config).status.ok() ? 0 : 1;
    }
  }
  // The corpus exercises rejection, not only acceptance.
  EXPECT_GT(rejected, 0u);
}

TEST(AdmissionParityTest, SplitPrograms) {
  for (uint64_t seed = 1; seed <= 1500; ++seed) {
    ASSERT_EQ(Mismatch(SplitGen(seed).Generate(), SplitArmConfig()), "")
        << "SplitGen seed " << seed;
  }
}

TEST(AdmissionParityTest, RecipesAndExamplesUnderEveryConfig) {
  std::vector<std::pair<std::string, std::string>> sources = {
      {"counter", kCounterExtension},   {"queue", kQueueExtension},
      {"barrier", kBarrierExtension},   {"election", kElectionExtension},
      {"rename", kRenameExtension},     {"two_phase", kTwoPhaseExtension}};
  for (const auto& entry :
       std::filesystem::directory_iterator(std::string(EDC_SOURCE_DIR) + "/examples/scripts")) {
    if (entry.path().extension() == ".edc") {
      sources.emplace_back(entry.path().filename().string(),
                           ReadExampleScript(entry.path().filename().string()));
    }
  }
  ASSERT_GE(sources.size(), 9u);
  EventLoop loop;
  const std::pair<const char*, VerifierConfig> configs[] = {
      {"ezk", ExtensionManagerCore(&loop, ExtensionLimits{}, CostModel{}, kEzkHost, kZkEmLayout)
                  .verifier_config()},
      {"eds", ExtensionManagerCore(&loop, ExtensionLimits{}, CostModel{}, kEdsHost, kDsEmLayout)
                  .verifier_config()},
      {"lint", LintVerifierConfig()},
  };
  for (const auto& [name, source] : sources) {
    for (const auto& [config_name, config] : configs) {
      EXPECT_EQ(Mismatch(source, config), "") << name << " under " << config_name;
    }
  }
}

}  // namespace
}  // namespace edc
