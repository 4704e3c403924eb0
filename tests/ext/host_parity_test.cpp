// Host-contract parity: EZK and EDS run every handler in the same sandbox
// host, so a misused shared host function fails the same way on both
// systems — same error code, same message — whatever state proxy sits
// behind it. Each case registers a one-handler extension and triggers it
// with a read; both system parameters check against one expectation table.

#include <gtest/gtest.h>

#include <string>

#include "edc/common/result.h"
#include "edc/harness/fixture.h"

namespace edc {
namespace {

constexpr char kEmGuard[] = "extensions may not touch the /em namespace";

struct HostCase {
  const char* body;  // the read handler's body
  ErrorCode code;
  const char* message;
};

const HostCase kCases[] = {
    // Wrong arity.
    {R"(return read_object("/a", "/b");)", ErrorCode::kExtensionError,
     "read_object expects 1 argument(s)"},
    {R"(return cas("/p", "x");)", ErrorCode::kExtensionError, "cas expects 3 argument(s)"},
    {R"(return create("/q");)", ErrorCode::kExtensionError, "create expects 2 argument(s)"},
    // A non-string path.
    {R"(return exists(5);)", ErrorCode::kExtensionError, "exists: expected str argument"},
    {R"(return update(5, "v");)", ErrorCode::kExtensionError, "update: expected str argument"},
    {R"(return monitor("x", 7);)", ErrorCode::kExtensionError, "monitor: expected str argument"},
    // An /em target, for every mutating host function.
    {R"(return create("/em/x", "v");)", ErrorCode::kExtensionError, kEmGuard},
    {R"(return create_ephemeral("/em/x", "v");)", ErrorCode::kExtensionError, kEmGuard},
    {R"(return delete_object("/em/x");)", ErrorCode::kExtensionError, kEmGuard},
    {R"(return update("/em", "v");)", ErrorCode::kExtensionError, kEmGuard},
    {R"(return cas("/em/x", "a", "b");)", ErrorCode::kExtensionError, kEmGuard},
    {R"(return monitor("x", "/em/x/ack-1");)", ErrorCode::kExtensionError, kEmGuard},
    // The state-op budget (8): the ninth write is refused.
    {R"(foreach (i in [1, 2, 3, 4, 5, 6, 7, 8, 9]) { update("/p", str(i)); } return 1;)",
     ErrorCode::kExtensionLimit, "state-operation budget exceeded"},
    // The create budget (2): the third create is refused.
    {R"(foreach (i in [1, 2, 3]) { create("/c" + str(i), ""); } return 1;)",
     ErrorCode::kExtensionLimit, "object-creation budget exceeded"},
};

class HostParityTest : public ::testing::TestWithParam<SystemKind> {};

TEST_P(HostParityTest, SharedHostFunctionsFailIdentically) {
  FixtureOptions options;
  options.system = GetParam();
  options.limits.max_state_ops = 8;
  options.limits.max_created_objects = 2;
  CoordFixture fix(options);
  fix.Start();
  CoordClient* client = fix.coord(0);
  client->Create("/p", "0", [](Result<std::string>) {});
  fix.Settle(Millis(500));

  for (size_t i = 0; i < std::size(kCases); ++i) {
    const HostCase& c = kCases[i];
    SCOPED_TRACE(c.body);
    const std::string name = "case" + std::to_string(i);
    const std::string trigger = "/" + name;
    Status reg = Status(ErrorCode::kInternal);
    client->RegisterExtension(
        name,
        "extension " + name + " { on op read \"" + trigger + "\"; fn read(p) { " + c.body +
            " } }",
        [&](Status s) { reg = s; });
    fix.Settle(Millis(500));
    ASSERT_TRUE(reg.ok()) << reg.ToString();

    Result<std::string> got = Status(ErrorCode::kInternal);
    client->Read(trigger, [&](Result<std::string> r) { got = std::move(r); });
    fix.Settle(Millis(500));
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.code(), c.code);
    EXPECT_EQ(got.status().message(), c.message);
  }
}

INSTANTIATE_TEST_SUITE_P(BothSystems, HostParityTest,
                         ::testing::Values(SystemKind::kExtensibleZooKeeper,
                                           SystemKind::kExtensibleDepSpace),
                         [](const ::testing::TestParamInfo<SystemKind>& info) {
                           return info.param == SystemKind::kExtensibleZooKeeper
                                      ? std::string("Ezk")
                                      : std::string("Eds");
                         });

}  // namespace
}  // namespace edc
