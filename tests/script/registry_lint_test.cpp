// Whole-registry lint tests (EDC-W010..W012) plus the SubscriptionCovers
// subsumption rules they share with the dispatcher. The prefix-flavor cases
// pin the PR-6 semantics: "/x*" is a plain string prefix (it matches the
// sibling /x1), while "/x/*" is a path subtree (it matches /x and /x/... but
// never /x1) — a lint that conflated the two would report false shadowing.

#include "tools/lint/registry_lint.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "edc/recipes/scripts.h"
#include "edc/script/parser.h"
#include "edc/script/verifier.h"
#include "tools/lint/lint.h"

namespace edc {
namespace {

std::shared_ptr<Program> Parse(const std::string& source) {
  auto program = ParseProgram(source);
  EXPECT_TRUE(program.ok()) << program.status().message();
  return *program;
}

// Parses a one-subscription extension and returns that subscription.
Subscription FirstSub(const std::string& trigger) {
  auto program =
      Parse("extension t { " + trigger + " fn read(oid) { return 1; } }");
  EXPECT_EQ(program->subscriptions.size(), 1u);
  return program->subscriptions[0];
}

TEST(SubscriptionCoversTest, StringPrefixCoversSiblingsAndDescendants) {
  Subscription wide = FirstSub(R"(on op read "/x*";)");
  EXPECT_TRUE(SubscriptionCovers(wide, FirstSub(R"(on op read "/x";)")));
  EXPECT_TRUE(SubscriptionCovers(wide, FirstSub(R"(on op read "/x1";)")));
  EXPECT_TRUE(SubscriptionCovers(wide, FirstSub(R"(on op read "/x/a";)")));
  EXPECT_TRUE(SubscriptionCovers(wide, FirstSub(R"(on op read "/x1*";)")));
  EXPECT_TRUE(SubscriptionCovers(wide, FirstSub(R"(on op read "/x/*";)")));
  EXPECT_FALSE(SubscriptionCovers(wide, FirstSub(R"(on op read "/w";)")));
}

TEST(SubscriptionCoversTest, SubtreeDoesNotCoverSiblings) {
  Subscription wide = FirstSub(R"(on op read "/x/*";)");
  // The subtree includes its own root and everything below it as paths...
  EXPECT_TRUE(SubscriptionCovers(wide, FirstSub(R"(on op read "/x";)")));
  EXPECT_TRUE(SubscriptionCovers(wide, FirstSub(R"(on op read "/x/a/b";)")));
  EXPECT_TRUE(SubscriptionCovers(wide, FirstSub(R"(on op read "/x/a/*";)")));
  // ...but not the sibling /x1, which the string prefix "/x*" would match.
  EXPECT_FALSE(SubscriptionCovers(wide, FirstSub(R"(on op read "/x1";)")));
  // A string prefix rooted at /x also matches /x1 etc., so the subtree does
  // not cover it; a string prefix strictly below the root stays inside.
  EXPECT_FALSE(SubscriptionCovers(wide, FirstSub(R"(on op read "/x*";)")));
  EXPECT_TRUE(SubscriptionCovers(wide, FirstSub(R"(on op read "/x/a*";)")));
}

TEST(SubscriptionCoversTest, OpWildcardKindAndEventSeparation) {
  // Op kind "any" covers every op kind on a covered pattern.
  EXPECT_TRUE(SubscriptionCovers(FirstSub(R"(on op any "/x/*";)"),
                                 FirstSub(R"(on op update "/x/a";)")));
  EXPECT_FALSE(SubscriptionCovers(FirstSub(R"(on op read "/x/*";)"),
                                  FirstSub(R"(on op update "/x/a";)")));
  // Op and event subscriptions live in different namespaces entirely.
  EXPECT_FALSE(SubscriptionCovers(FirstSub(R"(on op any "/x/*";)"),
                                  FirstSub(R"(on event deleted "/x/a";)")));
}

TEST(RegistryLintTest, RedundantSubscriptionWithinExtension) {
  auto program = Parse(
      "extension a {\n"
      "  on op read \"/q*\";\n"
      "  on op read \"/q/head\";\n"
      "  fn read(oid) { return 1; }\n"
      "}\n");
  std::vector<RegistryLintUnit> units = {{"a", 1, program.get()}};
  std::vector<Diagnostic> diags = LintRegistry(units);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].code, "EDC-W011");
  EXPECT_EQ(diags[0].handler, "a");
  EXPECT_EQ(diags[0].line, 3);
}

TEST(RegistryLintTest, LaterRegistrationShadowsEarlierOp) {
  auto first = Parse(
      R"(extension a { on op read "/q/head"; fn read(oid) { return 1; } })");
  auto second = Parse(
      R"(extension b { on op read "/q/*"; fn read(oid) { return 2; } })");
  std::vector<RegistryLintUnit> units = {{"a", 1, first.get()},
                                         {"b", 2, second.get()}};
  std::vector<Diagnostic> diags = LintRegistry(units);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].code, "EDC-W010");
  EXPECT_EQ(diags[0].handler, "a");  // the shadowed (earlier) extension
  EXPECT_NE(diags[0].message.find("'b'"), std::string::npos);

  // Registration order decides: flip it and nothing is shadowed ("/q/head"
  // registered later just takes precedence on the paths it names).
  std::vector<RegistryLintUnit> flipped = {{"b", 1, second.get()},
                                           {"a", 2, first.get()}};
  EXPECT_TRUE(LintRegistry(flipped).empty());
}

TEST(RegistryLintTest, SubtreeDoesNotShadowSibling) {
  // "/q1" is a sibling of the "/q/*" subtree, not inside it — no shadowing.
  auto first = Parse(
      R"(extension a { on op read "/q1"; fn read(oid) { return 1; } })");
  auto second = Parse(
      R"(extension b { on op read "/q/*"; fn read(oid) { return 2; } })");
  std::vector<RegistryLintUnit> units = {{"a", 1, first.get()},
                                         {"b", 2, second.get()}};
  EXPECT_TRUE(LintRegistry(units).empty());

  // The string prefix "/q*" does match the sibling: shadowing reappears.
  auto wider = Parse(
      R"(extension b { on op read "/q*"; fn read(oid) { return 2; } })");
  std::vector<RegistryLintUnit> units2 = {{"a", 1, first.get()},
                                          {"b", 2, wider.get()}};
  std::vector<Diagnostic> diags = LintRegistry(units2);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].code, "EDC-W010");
}

TEST(RegistryLintTest, EventSubscriptionsNeverShadow) {
  // Events fan out to every matching extension; identical event triggers in
  // two extensions are fine (only op dispatch is last-registration-wins).
  auto first = Parse(
      R"(extension a { on event deleted "/m/*"; fn on_deleted(oid) { return null; } })");
  auto second = Parse(
      R"(extension b { on event deleted "/m/*"; fn on_deleted(oid) { return null; } })");
  std::vector<RegistryLintUnit> units = {{"a", 1, first.get()},
                                         {"b", 2, second.get()}};
  EXPECT_TRUE(LintRegistry(units).empty());
}

TEST(RegistryLintTest, ConflictingTypeWritesAcrossExtensions) {
  auto first = Parse(
      R"(extension a { on op read "/a"; fn read(oid) { update("/cfg/mode", 1); return 1; } })");
  auto second = Parse(
      R"(extension b { on op read "/b"; fn read(oid) { update("/cfg/mode", "fast"); return 1; } })");
  std::vector<RegistryLintUnit> units = {{"a", 1, first.get()},
                                         {"b", 2, second.get()}};
  std::vector<Diagnostic> diags = LintRegistry(units);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].code, "EDC-W012");
  EXPECT_EQ(diags[0].handler, "b");
  EXPECT_NE(diags[0].message.find("a/read"), std::string::npos);

  // Same-type writes to the same key are not a conflict.
  auto same = Parse(
      R"(extension b { on op read "/b"; fn read(oid) { update("/cfg/mode", 2); return 1; } })");
  std::vector<RegistryLintUnit> units2 = {{"a", 1, first.get()},
                                          {"b", 2, same.get()}};
  EXPECT_TRUE(LintRegistry(units2).empty());
}

TEST(RegistryLintTest, CasConflictUsesWrittenValueNotCompareValue) {
  // cas(path, expected, new) writes args[2]; args[1] is only compared.
  auto first = Parse(
      R"(extension a { on op update "/a"; fn update(oid) { cas("/k", 0, 1); return 1; } })");
  auto second = Parse(
      R"(extension b { on op update "/b"; fn update(oid) { cas("/k", "x", 2); return 1; } })");
  std::vector<RegistryLintUnit> units = {{"a", 1, first.get()},
                                         {"b", 2, second.get()}};
  EXPECT_TRUE(LintRegistry(units).empty());
}

TEST(RegistryLintTest, BuiltInRecipesAreCleanTogether) {
  // The six paper recipes must not shadow or conflict with one another in
  // any registration order the benchmarks use.
  const std::pair<const char*, const char*> kRecipes[] = {
      {"counter", kCounterExtension},   {"queue", kQueueExtension},
      {"barrier", kBarrierExtension},   {"election", kElectionExtension},
      {"rename", kRenameExtension},     {"two_phase", kTwoPhaseExtension}};
  std::vector<std::shared_ptr<Program>> programs;
  std::vector<RegistryLintUnit> units;
  for (const auto& [name, source] : kRecipes) {
    programs.push_back(Parse(source));
    ASSERT_TRUE(VerifyProgram(*programs.back(), LintVerifierConfig()).status.ok()) << name;
    units.push_back({name, units.size() + 1, programs.back().get()});
  }
  std::vector<Diagnostic> diags = LintRegistry(units);
  EXPECT_TRUE(diags.empty()) << diags[0].message;
}

}  // namespace
}  // namespace edc
