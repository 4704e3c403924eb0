#include "edc/ds/types.h"

namespace edc {

bool FieldMatches(const DsTField& tf, const DsField& f) {
  switch (tf.kind) {
    case DsTField::Kind::kAny:
      return true;
    case DsTField::Kind::kExact:
      return tf.value == f;
    case DsTField::Kind::kPrefix: {
      if (!std::holds_alternative<std::string>(tf.value) ||
          !std::holds_alternative<std::string>(f)) {
        return false;
      }
      const std::string& prefix = std::get<std::string>(tf.value);
      const std::string& s = std::get<std::string>(f);
      if (s.size() <= prefix.size() || s.compare(0, prefix.size(), prefix) != 0) {
        return false;
      }
      // Path semantics: "/queue" matches "/queue/e1" but not "/queuex".
      return prefix == "/" || s[prefix.size()] == '/';
    }
  }
  return false;
}

bool TupleMatches(const DsTemplate& templ, const DsTuple& tuple) {
  if (templ.size() != tuple.size()) {
    return false;
  }
  for (size_t i = 0; i < templ.size(); ++i) {
    if (!FieldMatches(templ[i], tuple[i])) {
      return false;
    }
  }
  return true;
}

Status CheckEmAccess(DsOpType type, const DsTuple* tuple, const DsTemplate* templ) {
  auto path_is_em = [](const DsField& f) {
    return std::holds_alternative<std::string>(f) &&
           PathIsUnder(std::get<std::string>(f), kEmRoot);
  };
  bool denied = tuple != nullptr && !tuple->empty() && path_is_em((*tuple)[0]);
  if (templ != nullptr && !templ->empty()) {
    const DsTField& first = (*templ)[0];
    denied = denied || (first.kind != DsTField::Kind::kAny && path_is_em(first.value));
    // A removal through a first field that also matches kEmRoot itself (a
    // wildcard, the root prefix) could take /em tuples with it.
    const bool removes =
        type == DsOpType::kInp || type == DsOpType::kIn || type == DsOpType::kReplace;
    denied = denied || (removes && FieldMatches(first, DsField{std::string(kEmRoot)}));
  }
  return denied ? Status(ErrorCode::kAccessDenied, "extension-manager namespace") : Status::Ok();
}

std::string FieldToString(const DsField& f) {
  if (std::holds_alternative<int64_t>(f)) {
    return std::to_string(std::get<int64_t>(f));
  }
  return std::get<std::string>(f);
}

std::string TupleToString(const DsTuple& t) {
  std::string out = "<";
  for (size_t i = 0; i < t.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += FieldToString(t[i]);
  }
  out += ">";
  return out;
}

DsTuple ObjectTuple(const std::string& path, const std::string& data) {
  return DsTuple{DsField{path}, DsField{data}};
}

DsTemplate ObjectTemplate(const std::string& path) {
  return DsTemplate{DsTField::Exact(DsField{path}), DsTField::Any()};
}

DsTemplate ObjectPrefixTemplate(const std::string& prefix) {
  return DsTemplate{DsTField::Prefix(prefix), DsTField::Any()};
}

}  // namespace edc
