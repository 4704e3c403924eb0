// String and path helpers shared by the services.
//
// Paths follow ZooKeeper conventions: absolute, '/'-separated, no trailing
// slash (except the root "/"), no empty components, components must not be
// "." or "..".

#ifndef EDC_COMMON_STRINGS_H_
#define EDC_COMMON_STRINGS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "edc/common/result.h"

namespace edc {

std::vector<std::string> StrSplit(std::string_view text, char sep);
std::string StrJoin(const std::vector<std::string>& parts, std::string_view sep);

// Validates an absolute data-object path. Returns kInvalidArgument on
// malformed input.
Status ValidatePath(std::string_view path);

// Parent of "/a/b/c" is "/a/b"; parent of "/a" is "/"; parent of "/" is "".
std::string ParentPath(std::string_view path);

// Basename of "/a/b/c" is "c"; basename of "/" is "".
std::string BaseName(std::string_view path);

// True if `path` is `prefix` itself or lies strictly below it
// ("/a/b" is under "/a", not under "/ab").
bool PathIsUnder(std::string_view path, std::string_view prefix);

// ZooKeeper-style sequential suffix: value zero-padded to ten digits.
std::string SequenceSuffix(uint64_t n);

// Lexical int64 parse; full-string match required.
Result<int64_t> ParseInt64(std::string_view text);

// The extension manager's namespace (§3.5): registrations and
// acknowledgments live under it. Clients may only register, acknowledge and
// deregister there, and extensions may neither subscribe to nor write under
// it (§5.2.2).
inline constexpr char kEmRoot[] = "/em";

// A client's acknowledgment of extension `name` (§3.6).
struct EmAck {
  std::string name;
  uint64_t client = 0;
};

// How a service names its /em entries. The registration of extension
// <name> is kEmRoot/<name> on every service; an acknowledgment is
// kEmRoot/<name>/<ack_prefix><client id>, with the service's own prefix.
struct EmLayout {
  std::string_view ack_prefix;

  static std::string RegistrationPath(std::string_view name);
  // The extension a registration path names; empty if `path` is not one.
  static std::string RegisteredName(std::string_view path);
  std::string AckPath(std::string_view name, uint64_t client) const;
  // The acknowledgment `path` records (canonical decimal id > 0 only);
  // nullopt if `path` is not one.
  std::optional<EmAck> ParseAck(std::string_view path) const;
};

}  // namespace edc

#endif  // EDC_COMMON_STRINGS_H_
