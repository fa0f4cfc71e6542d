// Scalar type system shared by the SQL layer and the storage layer.
//
// The paper's index "supports any type of column, but for good performance
// primitive column types are recommended" (§III-A). We support the same core
// set: 32/64-bit integers, double, bool, and string; strings used as index
// keys are hashed to 64 bits and verified against the row (§IV-E).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "common/status.h"

namespace idf {

enum class TypeId : uint8_t {
  kBool = 0,
  kInt32 = 1,
  kInt64 = 2,
  kFloat64 = 3,
  kString = 4,
};

std::string_view TypeName(TypeId type);

/// Width of the fixed-size slot a value of this type occupies in the binary
/// row layout (strings occupy an 8-byte offset/length descriptor).
size_t FixedSlotWidth(TypeId type);

/// True for types stored entirely inside their fixed slot.
inline bool IsFixedWidth(TypeId type) { return type != TypeId::kString; }

/// A nullable dynamically-typed scalar. Used at API boundaries (literals,
/// lookup keys, test expectations); hot paths operate on binary rows or
/// columnar vectors instead.
class Value {
 public:
  Value() : type_(TypeId::kBool), null_(true) {}  // typed as bool, but null

  static Value Null(TypeId type) {
    Value v;
    v.type_ = type;
    v.null_ = true;
    return v;
  }
  static Value Bool(bool b) { return Value(TypeId::kBool, Storage(b)); }
  static Value Int32(int32_t i) { return Value(TypeId::kInt32, Storage(i)); }
  static Value Int64(int64_t i) { return Value(TypeId::kInt64, Storage(i)); }
  static Value Float64(double d) { return Value(TypeId::kFloat64, Storage(d)); }
  static Value String(std::string s) {
    return Value(TypeId::kString, Storage(std::move(s)));
  }

  TypeId type() const { return type_; }
  bool is_null() const { return null_; }

  bool bool_value() const { return Get<bool>(TypeId::kBool); }
  int32_t int32_value() const { return Get<int32_t>(TypeId::kInt32); }
  int64_t int64_value() const { return Get<int64_t>(TypeId::kInt64); }
  double float64_value() const { return Get<double>(TypeId::kFloat64); }
  const std::string& string_value() const {
    IDF_CHECK(type_ == TypeId::kString && !null_);
    return std::get<std::string>(storage_);
  }

  /// Numeric widening view: any non-null numeric value as int64 / double.
  /// Aborts on strings — the caller must dispatch on type() first.
  int64_t AsInt64() const;
  double AsFloat64() const;

  /// SQL equality: null == anything is false (callers needing null-aware
  /// semantics check is_null() explicitly).
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// Total order within one type (nulls first); used by ORDER BY (SortExec).
  /// Comparing values of different numeric types compares as double.
  int Compare(const Value& other) const;

  std::string ToString() const;

 private:
  using Storage = std::variant<bool, int32_t, int64_t, double, std::string>;

  Value(TypeId type, Storage storage)
      : type_(type), null_(false), storage_(std::move(storage)) {}

  template <typename T>
  T Get(TypeId expected) const {
    IDF_CHECK(type_ == expected && !null_);
    return std::get<T>(storage_);
  }

  TypeId type_;
  bool null_;
  Storage storage_;
};

}  // namespace idf
