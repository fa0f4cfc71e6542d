#include "types/value.h"

#include <cstdio>

namespace idf {

std::string_view TypeName(TypeId type) {
  switch (type) {
    case TypeId::kBool: return "bool";
    case TypeId::kInt32: return "int32";
    case TypeId::kInt64: return "int64";
    case TypeId::kFloat64: return "float64";
    case TypeId::kString: return "string";
  }
  return "unknown";
}

size_t FixedSlotWidth(TypeId type) {
  switch (type) {
    case TypeId::kBool: return 1;
    case TypeId::kInt32: return 4;
    case TypeId::kInt64: return 8;
    case TypeId::kFloat64: return 8;
    case TypeId::kString: return 8;  // packed (offset:32, length:32)
  }
  return 0;
}

int64_t Value::AsInt64() const {
  IDF_CHECK(!null_);
  switch (type_) {
    case TypeId::kBool: return bool_value() ? 1 : 0;
    case TypeId::kInt32: return int32_value();
    case TypeId::kInt64: return int64_value();
    case TypeId::kFloat64: return static_cast<int64_t>(float64_value());
    case TypeId::kString: break;
  }
  IDF_CHECK_MSG(false, "AsInt64 on string value");
  return 0;
}

double Value::AsFloat64() const {
  IDF_CHECK(!null_);
  switch (type_) {
    case TypeId::kBool: return bool_value() ? 1.0 : 0.0;
    case TypeId::kInt32: return int32_value();
    case TypeId::kInt64: return static_cast<double>(int64_value());
    case TypeId::kFloat64: return float64_value();
    case TypeId::kString: break;
  }
  IDF_CHECK_MSG(false, "AsFloat64 on string value");
  return 0.0;
}

bool Value::operator==(const Value& other) const {
  if (null_ || other.null_) return false;  // SQL three-valued logic collapses
  if (type_ == TypeId::kString || other.type_ == TypeId::kString) {
    if (type_ != other.type_) return false;
    return string_value() == other.string_value();
  }
  if (type_ == other.type_) return storage_ == other.storage_;
  // Cross-numeric comparison widens to double.
  return AsFloat64() == other.AsFloat64();
}

int Value::Compare(const Value& other) const {
  // Nulls sort first, equal to each other.
  if (null_ && other.null_) return 0;
  if (null_) return -1;
  if (other.null_) return 1;
  if (type_ == TypeId::kString || other.type_ == TypeId::kString) {
    IDF_CHECK_MSG(type_ == other.type_, "Compare string with non-string");
    return string_value().compare(other.string_value());
  }
  const double a = AsFloat64();
  const double b = other.AsFloat64();
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;
}

std::string Value::ToString() const {
  if (null_) return "NULL";
  char buf[64];
  switch (type_) {
    case TypeId::kBool: return bool_value() ? "true" : "false";
    case TypeId::kInt32:
      std::snprintf(buf, sizeof(buf), "%d", int32_value());
      return buf;
    case TypeId::kInt64:
      std::snprintf(buf, sizeof(buf), "%lld",
                    static_cast<long long>(int64_value()));
      return buf;
    case TypeId::kFloat64:
      std::snprintf(buf, sizeof(buf), "%g", float64_value());
      return buf;
    case TypeId::kString:
      return "\"" + string_value() + "\"";
  }
  return "?";
}

}  // namespace idf
