#include "edc/script/verifier.h"

#include <gtest/gtest.h>

#include "edc/script/parser.h"

namespace edc {
namespace {

VerifierConfig TestConfig() {
  VerifierConfig cfg;
  cfg.allowed_functions = CoreAllowedFunctions();
  // Service API as a binding would expose it.
  for (const char* fn : {"create", "delete_object", "read_object", "update", "cas",
                         "sub_objects", "block", "monitor", "exists", "client_id"}) {
    cfg.allowed_functions[fn] = true;
  }
  cfg.allowed_functions["now"] = false;     // nondeterministic
  cfg.allowed_functions["random"] = false;  // nondeterministic
  return cfg;
}

Status Verify(const char* src, const VerifierConfig& cfg) {
  auto prog = ParseProgram(src);
  if (!prog.ok()) {
    return prog.status();
  }
  return VerifyProgram(**prog, cfg).status;
}

TEST(VerifierTest, AcceptsWellFormedExtension) {
  auto s = Verify(R"(
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
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(VerifierTest, RejectsUnknownFunction) {
  auto s = Verify(R"(
    extension e { on op read "/x"; fn read(o) { return system("rm -rf /"); } })",
                  TestConfig());
  EXPECT_EQ(s.code(), ErrorCode::kExtensionRejected);
  EXPECT_NE(s.message().find("white list"), std::string::npos);
}

TEST(VerifierTest, RejectsNondeterministicUnderActiveReplication) {
  VerifierConfig cfg = TestConfig();
  cfg.require_deterministic = true;
  auto s = Verify(R"(
    extension e { on op read "/x"; fn read(o) { return now(); } })", cfg);
  EXPECT_EQ(s.code(), ErrorCode::kExtensionRejected);
  EXPECT_NE(s.message().find("nondeterministic"), std::string::npos);
}

TEST(VerifierTest, AllowsNondeterministicUnderPrimaryBackup) {
  VerifierConfig cfg = TestConfig();
  cfg.require_deterministic = false;
  auto s = Verify(R"(
    extension e { on op read "/x"; fn read(o) { return now(); } })", cfg);
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(VerifierTest, RejectsOversizedSource) {
  VerifierConfig cfg = TestConfig();
  cfg.max_source_bytes = 32;
  auto s = Verify(R"(
    extension e { on op read "/x"; fn read(o) { return 1; } })", cfg);
  EXPECT_EQ(s.code(), ErrorCode::kExtensionRejected);
}

TEST(VerifierTest, RejectsTooManyStatements) {
  VerifierConfig cfg = TestConfig();
  cfg.max_statements = 3;
  auto s = Verify(R"(
    extension e { on op read "/x";
      fn read(o) { let a = 1; let b = 2; let c = 3; let d = 4; return a; } })",
                  cfg);
  EXPECT_EQ(s.code(), ErrorCode::kExtensionRejected);
}

TEST(VerifierTest, RejectsDeepNesting) {
  VerifierConfig cfg = TestConfig();
  cfg.max_nesting_depth = 2;
  auto s = Verify(R"(
    extension e { on op read "/x";
      fn read(o) { if (true) { if (true) { if (true) { return 1; } } } return 0; } })",
                  cfg);
  EXPECT_EQ(s.code(), ErrorCode::kExtensionRejected);
}

TEST(VerifierTest, RejectsUndeclaredVariableUse) {
  auto s = Verify(R"(
    extension e { on op read "/x"; fn read(o) { return undeclared_var; } })", TestConfig());
  EXPECT_EQ(s.code(), ErrorCode::kExtensionRejected);
}

TEST(VerifierTest, RejectsAssignToUndeclared) {
  auto s = Verify(R"(
    extension e { on op read "/x"; fn read(o) { ghost = 1; return ghost; } })", TestConfig());
  EXPECT_EQ(s.code(), ErrorCode::kExtensionRejected);
}

TEST(VerifierTest, RejectsVariableEscapingScope) {
  auto s = Verify(R"(
    extension e { on op read "/x";
      fn read(o) { if (true) { let inner = 1; } return inner; } })", TestConfig());
  EXPECT_EQ(s.code(), ErrorCode::kExtensionRejected);
}

TEST(VerifierTest, ForeachVariableVisibleInBody) {
  auto s = Verify(R"(
    extension e { on op read "/x";
      fn read(o) { let sum = 0; foreach (x in [1,2]) { sum = sum + x; } return sum; } })",
                  TestConfig());
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(VerifierTest, RejectsUnknownHandlerName) {
  auto s = Verify(R"(
    extension e { on op read "/x"; fn backdoor(o) { return 1; } })", TestConfig());
  EXPECT_EQ(s.code(), ErrorCode::kExtensionRejected);
}

TEST(VerifierTest, RejectsUnknownOpKind) {
  auto s = Verify(R"(
    extension e { on op explode "/x"; fn read(o) { return 1; } })", TestConfig());
  EXPECT_EQ(s.code(), ErrorCode::kExtensionRejected);
}

TEST(VerifierTest, RejectsBadPattern) {
  auto s = Verify(R"(
    extension e { on op read "not-absolute"; fn read(o) { return 1; } })", TestConfig());
  EXPECT_EQ(s.code(), ErrorCode::kExtensionRejected);
}

TEST(VerifierTest, RejectsEventSubscriptionWithoutEventHandler) {
  auto s = Verify(R"(
    extension e { on event deleted "/x"; fn read(o) { return 1; } })", TestConfig());
  EXPECT_EQ(s.code(), ErrorCode::kExtensionRejected);
}

TEST(VerifierTest, RejectsOpSubscriptionWithoutOpHandler) {
  auto s = Verify(R"(
    extension e { on op read "/x"; fn on_deleted(o) { return; } })", TestConfig());
  EXPECT_EQ(s.code(), ErrorCode::kExtensionRejected);
}

TEST(VerifierTest, RejectsNoSubscriptions) {
  auto s = Verify(R"(extension e { fn read(o) { return 1; } })", TestConfig());
  EXPECT_EQ(s.code(), ErrorCode::kExtensionRejected);
}

TEST(VerifierTest, HandlerKindHelpers) {
  EXPECT_TRUE(IsKnownOpHandler("read"));
  EXPECT_TRUE(IsKnownOpHandler("handle_op"));
  EXPECT_FALSE(IsKnownOpHandler("on_deleted"));
  EXPECT_TRUE(IsKnownEventHandler("on_deleted"));
  EXPECT_FALSE(IsKnownEventHandler("read"));
  EXPECT_TRUE(IsKnownOpKind("any"));
  EXPECT_FALSE(IsKnownOpKind("created"));
  EXPECT_TRUE(IsKnownEventKind("created"));
}

}  // namespace
}  // namespace edc
