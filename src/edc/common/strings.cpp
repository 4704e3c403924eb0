#include "edc/common/strings.h"

#include <cstdio>
#include <cstdlib>

namespace edc {

std::vector<std::string> StrSplit(std::string_view text, char sep) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(text.substr(start));
      return parts;
    }
    parts.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string StrJoin(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) {
      out += sep;
    }
    out += parts[i];
  }
  return out;
}

Status ValidatePath(std::string_view path) {
  if (path.empty() || path[0] != '/') {
    return Status(ErrorCode::kInvalidArgument, "path must be absolute");
  }
  if (path == "/") {
    return Status::Ok();
  }
  if (path.back() == '/') {
    return Status(ErrorCode::kInvalidArgument, "path must not end with '/'");
  }
  size_t start = 1;
  while (start <= path.size()) {
    size_t pos = path.find('/', start);
    std::string_view comp = (pos == std::string_view::npos) ? path.substr(start)
                                                            : path.substr(start, pos - start);
    if (comp.empty()) {
      return Status(ErrorCode::kInvalidArgument, "empty path component");
    }
    if (comp == "." || comp == "..") {
      return Status(ErrorCode::kInvalidArgument, "relative path component");
    }
    if (pos == std::string_view::npos) {
      break;
    }
    start = pos + 1;
  }
  return Status::Ok();
}

std::string ParentPath(std::string_view path) {
  if (path == "/" || path.empty()) {
    return "";
  }
  size_t pos = path.rfind('/');
  if (pos == 0) {
    return "/";
  }
  return std::string(path.substr(0, pos));
}

std::string BaseName(std::string_view path) {
  if (path == "/" || path.empty()) {
    return "";
  }
  size_t pos = path.rfind('/');
  return std::string(path.substr(pos + 1));
}

bool PathIsUnder(std::string_view path, std::string_view prefix) {
  if (prefix == "/") {
    return !path.empty() && path[0] == '/';
  }
  if (path == prefix) {
    return true;
  }
  return path.size() > prefix.size() && path.compare(0, prefix.size(), prefix) == 0 &&
         path[prefix.size()] == '/';
}

std::string SequenceSuffix(uint64_t n) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%010llu", static_cast<unsigned long long>(n));
  return buf;
}

Result<int64_t> ParseInt64(std::string_view text) {
  if (text.empty()) {
    return Status(ErrorCode::kInvalidArgument, "empty integer");
  }
  std::string owned(text);
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(owned.c_str(), &end, 10);
  if (errno != 0 || end != owned.c_str() + owned.size()) {
    return Status(ErrorCode::kInvalidArgument, "bad integer: " + owned);
  }
  return static_cast<int64_t>(v);
}

std::string EmLayout::RegistrationPath(std::string_view name) {
  return std::string(kEmRoot) + "/" + std::string(name);
}

std::string EmLayout::RegisteredName(std::string_view path) {
  const size_t start = std::string_view(kEmRoot).size() + 1;  // past "/em/"
  if (path.size() <= start || !path.starts_with(kEmRoot) || path[start - 1] != '/' ||
      path.find('/', start) != std::string_view::npos) {
    return "";
  }
  return std::string(path.substr(start));
}

std::string EmLayout::AckPath(std::string_view name, uint64_t client) const {
  return RegistrationPath(name) + "/" + std::string(ack_prefix) + std::to_string(client);
}

std::optional<EmAck> EmLayout::ParseAck(std::string_view path) const {
  size_t slash = path.find('/', std::string_view(kEmRoot).size() + 1);  // after <name>
  std::string name = RegisteredName(path.substr(0, slash));
  if (name.empty() || slash == std::string_view::npos ||
      !path.substr(slash + 1).starts_with(ack_prefix)) {
    return std::nullopt;
  }
  std::string_view id = path.substr(slash + 1 + ack_prefix.size());
  auto client = ParseInt64(id);
  if (!client.ok() || *client <= 0 || std::to_string(*client) != id) {
    return std::nullopt;
  }
  return EmAck{std::move(name), static_cast<uint64_t>(*client)};
}

}  // namespace edc
