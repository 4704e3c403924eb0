#include "edc/script/parser.h"

#include <gtest/gtest.h>

#include <ostream>

namespace edc {
namespace {

constexpr char kCounter[] = R"(
extension ctr_increment {
  on op read "/ctr-increment";
  fn read(oid) {
    let c = parse_int(get(read_object("/ctr"), "data"));
    update("/ctr", str(c + 1));
    return c + 1;
  }
}
)";

TEST(ParserTest, ParsesCounterExtension) {
  auto prog = ParseProgram(kCounter);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  EXPECT_EQ((*prog)->name, "ctr_increment");
  ASSERT_EQ((*prog)->subscriptions.size(), 1u);
  EXPECT_FALSE((*prog)->subscriptions[0].is_event);
  EXPECT_EQ((*prog)->subscriptions[0].kind, "read");
  EXPECT_EQ((*prog)->subscriptions[0].pattern, "/ctr-increment");
  EXPECT_FALSE((*prog)->subscriptions[0].prefix);
  ASSERT_EQ((*prog)->handlers.size(), 1u);
  EXPECT_EQ((*prog)->handlers.begin()->second.params.size(), 1u);
}

TEST(ParserTest, PrefixPatternStripsStar) {
  auto prog = ParseProgram(R"(
    extension q { on op read "/queue/*"; fn read(oid) { return null; } })");
  ASSERT_TRUE(prog.ok());
  EXPECT_TRUE((*prog)->subscriptions[0].prefix);
  EXPECT_EQ((*prog)->subscriptions[0].pattern, "/queue");
}

TEST(ParserTest, EventSubscription) {
  auto prog = ParseProgram(R"(
    extension e { on event deleted "/clients/*"; fn on_deleted(oid) { return null; } })");
  ASSERT_TRUE(prog.ok());
  EXPECT_TRUE((*prog)->subscriptions[0].is_event);
  EXPECT_EQ((*prog)->subscriptions[0].kind, "deleted");
}

TEST(ParserTest, AllStatementForms) {
  auto prog = ParseProgram(R"(
    extension s {
      on op any "/x";
      fn handle_op(req) {
        let a = 1;
        a = a + 1;
        if (a > 1) { a = 2; } else if (a == 0) { a = 3; } else { a = 4; }
        foreach (x in [1, 2, 3]) { a = a + x; }
        len("side effect");
        return a;
      }
    })");
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  const Handler& h = (*prog)->handlers.begin()->second;
  EXPECT_EQ(h.body.size(), 6u);
  EXPECT_EQ(h.body[0]->kind, Stmt::Kind::kLet);
  EXPECT_EQ(h.body[1]->kind, Stmt::Kind::kAssign);
  EXPECT_EQ(h.body[2]->kind, Stmt::Kind::kIf);
  EXPECT_EQ(h.body[3]->kind, Stmt::Kind::kForEach);
  EXPECT_EQ(h.body[4]->kind, Stmt::Kind::kExpr);
  EXPECT_EQ(h.body[5]->kind, Stmt::Kind::kReturn);
}

TEST(ParserTest, PrecedenceMulBeforeAdd) {
  auto prog = ParseProgram(R"(
    extension p { on op any "/x"; fn handle_op(r) { return 1 + 2 * 3; } })");
  ASSERT_TRUE(prog.ok());
  const Stmt& ret = *(*prog)->handlers.begin()->second.body[0];
  ASSERT_EQ(ret.expr->kind, Expr::Kind::kBinary);
  EXPECT_EQ(ret.expr->binary_op, BinaryOp::kAdd);
  EXPECT_EQ(ret.expr->rhs->binary_op, BinaryOp::kMul);
}

TEST(ParserTest, IndexingAndCalls) {
  auto prog = ParseProgram(R"(
    extension p { on op any "/x"; fn handle_op(r) { return r["a"][0]; } })");
  ASSERT_TRUE(prog.ok());
  const Stmt& ret = *(*prog)->handlers.begin()->second.body[0];
  EXPECT_EQ(ret.expr->kind, Expr::Kind::kIndex);
  EXPECT_EQ(ret.expr->lhs->kind, Expr::Kind::kIndex);
}

struct BadCase {
  const char* name;
  const char* src;
};

// Prints a case by name, so the test names ctest lists do not carry the
// addresses of the case's strings, which change from run to run.
void PrintTo(const BadCase& c, std::ostream* os) { *os << c.name; }

class ParserRejectTest : public ::testing::TestWithParam<BadCase> {};

TEST_P(ParserRejectTest, Rejects) {
  auto prog = ParseProgram(GetParam().src);
  EXPECT_FALSE(prog.ok()) << GetParam().name;
  if (!prog.ok()) {
    EXPECT_EQ(prog.code(), ErrorCode::kExtensionRejected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, ParserRejectTest,
    ::testing::Values(
        BadCase{"empty", ""},
        BadCase{"no_handlers", "extension e { on op read \"/x\"; }"},
        BadCase{"missing_brace", "extension e { fn read(o) { return 1; }"},
        BadCase{"missing_semicolon", "extension e { fn read(o) { return 1 } }"},
        BadCase{"while_keyword_absent", "extension e { fn read(o) { while (1) {} } }"},
        BadCase{"duplicate_handler",
                "extension e { fn read(o) { return 1; } fn read(o) { return 2; } }"},
        BadCase{"trailing_garbage", "extension e { fn read(o) { return 1; } } extra"},
        BadCase{"bad_subscription", "extension e { on banana read \"/x\"; fn read(o){return 1;} }"},
        BadCase{"unclosed_paren", "extension e { fn read(o) { return (1 + 2; } }"},
        BadCase{"unclosed_list", "extension e { fn read(o) { return [1, 2; } }"}),
    [](const ::testing::TestParamInfo<BadCase>& info) { return info.param.name; });

TEST(ParserTest, RecordsSourceSize) {
  std::string src = "extension e { on op read \"/x\"; fn read(o) { return 1; } }";
  auto prog = ParseProgram(src);
  ASSERT_TRUE(prog.ok());
  EXPECT_EQ((*prog)->source_bytes, src.size());
}

}  // namespace
}  // namespace edc
