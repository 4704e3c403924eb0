// Dynamic values for the CoordScript extension language.
//
// Lists and maps are immutable once built and shared by pointer; builtins
// that "modify" a collection (append, sort_by, ...) return a new one. This
// keeps copies O(1), makes aliasing harmless, and matches the determinism
// requirement for actively-replicated execution.

#ifndef EDC_SCRIPT_VALUE_H_
#define EDC_SCRIPT_VALUE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

namespace edc {

class Value;

using ValueList = std::vector<Value>;
using ValueMap = std::map<std::string, Value>;

class Value {
 public:
  enum class Type { kNull, kBool, kInt, kStr, kList, kMap };

  Value() : v_(std::monostate{}) {}
  Value(bool b) : v_(b) {}                       // NOLINT(runtime/explicit)
  Value(int64_t i) : v_(i) {}                    // NOLINT(runtime/explicit)
  Value(int i) : v_(static_cast<int64_t>(i)) {}  // NOLINT(runtime/explicit)
  Value(std::string s) : v_(std::move(s)) {}     // NOLINT(runtime/explicit)
  Value(const char* s) : v_(std::string(s)) {}   // NOLINT(runtime/explicit)
  static Value List(ValueList items);
  static Value Map(ValueMap items);

  Type type() const { return static_cast<Type>(v_.index()); }
  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_int() const { return type() == Type::kInt; }
  bool is_str() const { return type() == Type::kStr; }
  bool is_list() const { return type() == Type::kList; }
  bool is_map() const { return type() == Type::kMap; }

  bool AsBool() const { return std::get<bool>(v_); }
  int64_t AsInt() const { return std::get<int64_t>(v_); }
  const std::string& AsStr() const { return std::get<std::string>(v_); }
  const ValueList& AsList() const { return std::get<ListPtr>(v_)->items; }
  const ValueMap& AsMap() const { return std::get<MapPtr>(v_)->items; }

  // Truthiness: null/false/0/""/empty collections are falsy.
  bool Truthy() const;

  bool Equals(const Value& other) const;

  // Rough in-memory footprint, used for sandbox value-size accounting. O(1):
  // a list or map records its size when it is built.
  size_t ApproxSize() const;

  // Debug / reply rendering.
  std::string ToString() const;

  static const char* TypeName(Type t);

 private:
  template <typename Items>
  struct Collection {
    Items items;
    size_t approx_size;
  };
  using ListPtr = std::shared_ptr<const Collection<ValueList>>;
  using MapPtr = std::shared_ptr<const Collection<ValueMap>>;

  explicit Value(ListPtr l) : v_(std::move(l)) {}
  explicit Value(MapPtr m) : v_(std::move(m)) {}

  std::variant<std::monostate, bool, int64_t, std::string, ListPtr, MapPtr> v_;
};

}  // namespace edc

#endif  // EDC_SCRIPT_VALUE_H_
