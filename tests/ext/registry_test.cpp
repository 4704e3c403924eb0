#include "edc/ext/registry.h"

#include <gtest/gtest.h>

#include "edc/ext/core.h"
#include "edc/script/parser.h"
#include "edc/zk/types.h"

namespace edc {
namespace {

VerifierConfig Cfg() {
  VerifierConfig cfg;
  cfg.allowed_functions = CoreAllowedFunctions();
  cfg.allowed_functions["read_object"] = true;
  return cfg;
}

constexpr char kReadExt[] =
    R"(extension e { on op read "/x"; fn read(o) { return 1; } })";
constexpr char kPrefixExt[] =
    R"(extension e { on op read "/q/*"; fn read(o) { return 1; } })";
constexpr char kEventExt[] =
    R"(extension e { on event deleted "/m/*"; fn on_deleted(o) { return null; } })";

TEST(ExtensionRegistryTest, LoadVerifiesAndStores) {
  ExtensionRegistry registry;
  ASSERT_TRUE(registry.Load("a", 1, kReadExt, Cfg()).ok());
  EXPECT_TRUE(registry.Contains("a"));
  EXPECT_EQ(registry.Find("a")->owner, 1u);
  EXPECT_EQ(registry.Load("bad", 1, "garbage", Cfg()).code(),
            ErrorCode::kExtensionRejected);
  EXPECT_FALSE(registry.Contains("bad"));
}

TEST(ExtensionRegistryTest, AuthorizationOwnerAndAcks) {
  ExtensionRegistry registry;
  ASSERT_TRUE(registry.Load("a", 1, kReadExt, Cfg()).ok());
  EXPECT_NE(registry.MatchOperation(1, "read", "/x"), nullptr);
  EXPECT_EQ(registry.MatchOperation(2, "read", "/x"), nullptr);
  registry.RecordAck("a", 2);
  EXPECT_NE(registry.MatchOperation(2, "read", "/x"), nullptr);
  registry.RemoveAck("a", 2);
  EXPECT_EQ(registry.MatchOperation(2, "read", "/x"), nullptr);
}

TEST(ExtensionRegistryTest, PrefixAndExactPatterns) {
  ExtensionRegistry registry;
  ASSERT_TRUE(registry.Load("p", 1, kPrefixExt, Cfg()).ok());
  EXPECT_NE(registry.MatchOperation(1, "read", "/q/e1"), nullptr);
  EXPECT_NE(registry.MatchOperation(1, "read", "/q/deep/er"), nullptr);
  EXPECT_EQ(registry.MatchOperation(1, "read", "/qq"), nullptr);
  EXPECT_EQ(registry.MatchOperation(1, "read", "/other"), nullptr);
  // Kind must match too.
  EXPECT_EQ(registry.MatchOperation(1, "delete", "/q/e1"), nullptr);
}

TEST(ExtensionRegistryTest, LastRegisteredWinsForOperations) {
  ExtensionRegistry registry;
  ASSERT_TRUE(registry.Load("first", 1, kReadExt, Cfg()).ok());
  ASSERT_TRUE(registry.Load("second", 1, kReadExt, Cfg()).ok());
  const LoadedExtension* match = registry.MatchOperation(1, "read", "/x");
  ASSERT_NE(match, nullptr);
  EXPECT_EQ(match->name, "second");  // §3.3: last registered executes
  registry.Unload("second");
  match = registry.MatchOperation(1, "read", "/x");
  ASSERT_NE(match, nullptr);
  EXPECT_EQ(match->name, "first");
}

TEST(ExtensionRegistryTest, EventExtensionsFireInRegistrationOrder) {
  ExtensionRegistry registry;
  ASSERT_TRUE(registry.Load("b", 1, kEventExt, Cfg()).ok());
  ASSERT_TRUE(registry.Load("a", 2, kEventExt, Cfg()).ok());
  auto matches = registry.MatchEvent("deleted", "/m/x");
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0]->name, "b");  // registration order, not name order
  EXPECT_EQ(matches[1]->name, "a");
  EXPECT_TRUE(registry.MatchEvent("created", "/m/x").empty());
  EXPECT_TRUE(registry.MatchEvent("deleted", "/other").empty());
}

TEST(ExtensionRegistryTest, HasEventExtensionRespectsAuthorization) {
  ExtensionRegistry registry;
  ASSERT_TRUE(registry.Load("e", 1, kEventExt, Cfg()).ok());
  EXPECT_TRUE(registry.HasEventExtensionFor(1, "deleted", "/m/x"));
  EXPECT_FALSE(registry.HasEventExtensionFor(2, "deleted", "/m/x"));
  registry.RecordAck("e", 2);
  EXPECT_TRUE(registry.HasEventExtensionFor(2, "deleted", "/m/x"));
}

TEST(ExtensionRegistryTest, StrikesAccumulateToLimit) {
  ExtensionRegistry registry;
  ASSERT_TRUE(registry.Load("flaky", 1, kReadExt, Cfg()).ok());
  EXPECT_FALSE(registry.RecordStrike("flaky", 3));
  EXPECT_FALSE(registry.RecordStrike("flaky", 3));
  EXPECT_TRUE(registry.RecordStrike("flaky", 3));
  // Limit 0 disables striking entirely.
  EXPECT_FALSE(registry.RecordStrike("flaky", 0));
  // Unknown names never strike.
  EXPECT_FALSE(registry.RecordStrike("ghost", 1));
}

// strike_limit counts consecutive runtime failures (ExtensionLimits): the
// manager core clears an extension's strikes whenever it succeeds.
TEST(ExtensionRegistryTest, AlternatingFailuresNeverReachStrikeLimit) {
  ExtensionLimits limits;
  limits.strike_limit = 2;
  EventLoop loop;
  ExtensionManagerCore core(&loop, limits, CostModel{}, kEzkHost, kZkEmLayout);
  ASSERT_TRUE(core.registry()
                  .Load("flaky", 1, R"(extension flaky {
                    on op update "/f";
                    fn update(p, d) { if (d == "bad") { return error("bad"); } return 1; }
                  })", core.verifier_config())
                  .ok());
  // The handler makes no host calls, so it needs no state proxy.
  auto run = [&](const std::string& data) {
    return core.RunOperation(*core.registry().Find("flaky"), "update", "/f", data, nullptr);
  };
  for (int i = 0; i < 5; ++i) {
    Invocation failed = run("bad");
    EXPECT_FALSE(failed.result.ok());
    EXPECT_FALSE(failed.evict);
    EXPECT_TRUE(run("ok").result.ok());
  }
  EXPECT_FALSE(run("bad").evict);
  EXPECT_TRUE(run("bad").evict);
}

// The source cap holds before the parser runs: a client-supplied source
// nested deeply enough to exhaust the parser's stack is refused with the
// verifier's own EDC-E001 Status, and still pays the verification CPU.
TEST(ExtensionRegistryTest, OversizedSourceIsRejectedBeforeParsing) {
  EventLoop loop;
  ExtensionManagerCore core(&loop, ExtensionLimits{}, CostModel{}, kEzkHost, kZkEmLayout);
  const size_t cap = core.verifier_config().max_source_bytes;
  std::string parseable = "extension big { on op read \"/x\"; fn read(o) {\n";
  while (parseable.size() <= cap) {
    parseable += "let v" + std::to_string(parseable.size()) + " = 0;\n";
  }
  parseable += "return 0; } }";
  auto program = ParseProgram(parseable);
  ASSERT_TRUE(program.ok());
  Status verifier = VerifyProgram(**program, core.verifier_config()).status;
  EXPECT_NE(verifier.message().find("[EDC-E001]"), std::string::npos) << verifier.ToString();

  auto admit = [&core](const std::string& source, Duration* cpu) {
    return core.AdmitClientWrite(EmWrite::kCreate, "/em/big", 1, source, cpu).status();
  };
  Duration cpu = 0;
  EXPECT_EQ(admit(parseable, &cpu).ToString(), verifier.ToString());
  EXPECT_GT(cpu, 0);

  const size_t depth = 200000;
  std::string nested = "extension deep { on op read \"/x\"; fn read(o) { return " +
                       std::string(depth, '(') + "1" + std::string(depth, ')') + "; } }";
  cpu = 0;
  EXPECT_EQ(admit(nested, &cpu).ToString(), verifier.ToString());
  EXPECT_GT(cpu, 0);
}

TEST(ExtensionRegistryTest, RegistrationBlobRoundTrips) {
  std::string blob = EncodeRegistration(0x123456789ULL, kReadExt);
  auto decoded = DecodeRegistration(blob);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->first, 0x123456789ULL);
  EXPECT_EQ(decoded->second, kReadExt);
  EXPECT_FALSE(DecodeRegistration("short").ok());
}

TEST(ExtensionRegistryTest, HandlerNameMapping) {
  auto program = ParseProgram(R"(extension m {
    on op any "/m"; on event deleted "/m";
    fn read(o) { return 1; } fn block(o) { return 1; }
    fn on_deleted(o) { return 1; } fn on_unblocked(o) { return 1; } })");
  ASSERT_TRUE(program.ok());
  const Program& p = **program;
  EXPECT_STREQ(EntryPointFor(p, false, "read").handler, "read");
  EXPECT_STREQ(EntryPointFor(p, false, "block").handler, "block");
  EXPECT_STREQ(EntryPointFor(p, true, "deleted").handler, "on_deleted");
  EXPECT_STREQ(EntryPointFor(p, true, "unblocked").handler, "on_unblocked");
  // A kind the program has no handler for, or no such kind: the catch-all.
  EXPECT_STREQ(EntryPointFor(p, false, "update").handler, "handle_op");
  EXPECT_EQ(EntryPointFor(p, false, "any").kind, nullptr);
  EXPECT_STREQ(EntryPointFor(p, true, "created").handler, "handle_event");
  EXPECT_EQ(EntryPointFor(p, true, "nonsense").kind, nullptr);
}

TEST(ExtensionRegistryTest, ClearResetsEverything) {
  ExtensionRegistry registry;
  ASSERT_TRUE(registry.Load("a", 1, kReadExt, Cfg()).ok());
  registry.Clear();
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_FALSE(registry.Contains("a"));
}

class NoHost : public ScriptHost {
 public:
  bool HasFunction(const std::string&) const override { return false; }
  Result<Value> Call(const std::string&, std::vector<Value>&) override {
    return Status(ErrorCode::kExtensionError, "no host");
  }
};

// Certification is a diagnostic: a certified handler still runs under the
// step limit, so an unsound bound could never let it run past max_steps.
TEST(ExtensionRegistryTest, CertifiedHandlersAreStillMetered) {
  ExtensionRegistry registry;
  ASSERT_TRUE(registry.Load("a", 1, kReadExt, Cfg()).ok());
  const LoadedExtension& ext = *registry.Find("a");
  ASSERT_TRUE(ext.Certified("read"));
  NoHost host;
  ExtensionLimits limits;
  HandlerRun full = RunExtensionHandler(ext, "read", {Value("/x")}, &host, limits);
  ASSERT_TRUE(full.result.ok());
  ASSERT_GT(full.steps_used, 0);

  limits.budget.max_steps = full.steps_used - 1;
  HandlerRun cut = RunExtensionHandler(ext, "read", {Value("/x")}, &host, limits);
  EXPECT_TRUE(cut.certified);
  EXPECT_EQ(cut.result.code(), ErrorCode::kExtensionLimit);
  EXPECT_EQ(cut.steps_used, full.steps_used);  // stops at max_steps + 1
}

}  // namespace
}  // namespace edc
