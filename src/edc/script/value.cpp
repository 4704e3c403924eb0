#include "edc/script/value.h"

#include <memory>
#include <string>
#include <utility>

namespace edc {

bool Value::Truthy() const {
  switch (type()) {
    case Type::kNull:
      return false;
    case Type::kBool:
      return AsBool();
    case Type::kInt:
      return AsInt() != 0;
    case Type::kStr:
      return !AsStr().empty();
    case Type::kList:
      return !AsList().empty();
    case Type::kMap:
      return !AsMap().empty();
  }
  return false;
}

bool Value::Equals(const Value& other) const {
  if (type() != other.type()) {
    return false;
  }
  switch (type()) {
    case Type::kNull:
      return true;
    case Type::kBool:
      return AsBool() == other.AsBool();
    case Type::kInt:
      return AsInt() == other.AsInt();
    case Type::kStr:
      return AsStr() == other.AsStr();
    case Type::kList: {
      const ValueList& a = AsList();
      const ValueList& b = other.AsList();
      if (a.size() != b.size()) {
        return false;
      }
      for (size_t i = 0; i < a.size(); ++i) {
        if (!a[i].Equals(b[i])) {
          return false;
        }
      }
      return true;
    }
    case Type::kMap: {
      const ValueMap& a = AsMap();
      const ValueMap& b = other.AsMap();
      if (a.size() != b.size()) {
        return false;
      }
      auto ita = a.begin();
      auto itb = b.begin();
      for (; ita != a.end(); ++ita, ++itb) {
        if (ita->first != itb->first || !ita->second.Equals(itb->second)) {
          return false;
        }
      }
      return true;
    }
  }
  return false;
}

Value Value::List(ValueList items) {
  size_t size = 24;
  for (const Value& v : items) {
    size += v.ApproxSize();
  }
  return Value(std::make_shared<const Collection<ValueList>>(
      Collection<ValueList>{std::move(items), size}));
}

Value Value::Map(ValueMap items) {
  size_t size = 24;
  for (const auto& [k, v] : items) {
    size += 16 + k.size() + v.ApproxSize();
  }
  return Value(
      std::make_shared<const Collection<ValueMap>>(Collection<ValueMap>{std::move(items), size}));
}

size_t Value::ApproxSize() const {
  switch (type()) {
    case Type::kNull:
    case Type::kBool:
    case Type::kInt:
      return 8;
    case Type::kStr:
      return 16 + AsStr().size();
    case Type::kList:
      return std::get<ListPtr>(v_)->approx_size;
    case Type::kMap:
      return std::get<MapPtr>(v_)->approx_size;
  }
  return 8;
}

std::string Value::ToString() const {
  switch (type()) {
    case Type::kNull:
      return "null";
    case Type::kBool:
      return AsBool() ? "true" : "false";
    case Type::kInt:
      return std::to_string(AsInt());
    case Type::kStr:
      return AsStr();
    case Type::kList: {
      std::string out = "[";
      bool first = true;
      for (const Value& v : AsList()) {
        if (!first) {
          out += ", ";
        }
        first = false;
        out += v.ToString();
      }
      out += "]";
      return out;
    }
    case Type::kMap: {
      std::string out = "{";
      bool first = true;
      for (const auto& [k, v] : AsMap()) {
        if (!first) {
          out += ", ";
        }
        first = false;
        out += k;
        out += ": ";
        out += v.ToString();
      }
      out += "}";
      return out;
    }
  }
  return "?";
}

const char* Value::TypeName(Type t) {
  switch (t) {
    case Type::kNull:
      return "null";
    case Type::kBool:
      return "bool";
    case Type::kInt:
      return "int";
    case Type::kStr:
      return "str";
    case Type::kList:
      return "list";
    case Type::kMap:
      return "map";
  }
  return "?";
}

}  // namespace edc
