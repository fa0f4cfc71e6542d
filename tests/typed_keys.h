// Join keys that are easy to get wrong, shared by the cross-mode join
// gates: strings that are empty or share prefixes, doubles with NaN, -0.0
// and 0.0, and nulls of either type, with duplicates on both sides.
#pragma once

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "types/schema.h"
#include "types/value.h"

namespace idf {

/// (key, v): a nullable string or double key and an int64 payload.
inline SchemaPtr TypedKeySchema(bool strings) {
  return std::make_shared<Schema>(Schema({
      {"key", strings ? TypeId::kString : TypeId::kFloat64, true},
      {"v", TypeId::kInt64, false},
  }));
}

/// `n` rows of TypedKeySchema(strings); `salt` shifts which keys repeat, so
/// two sides built with different salts overlap only in part.
inline std::vector<RowVec> TypedKeyRows(bool strings, int64_t n,
                                        int64_t salt) {
  const std::vector<std::string> words = {"", "a", "ab", "abc", "b", "ba",
                                          "zz", "a\x01"};
  const std::vector<double> numbers = {std::nan(""), -0.0, 0.0, 1.5, -2.25,
                                       1e300, -1e-300};
  std::vector<RowVec> rows;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t k = (i * 5 + salt) % 9;
    Value key = strings ? Value::String(words[k % words.size()])
                        : Value::Float64(numbers[k % numbers.size()]);
    if (k == 8) key = Value::Null(strings ? TypeId::kString : TypeId::kFloat64);
    rows.push_back({std::move(key), Value::Int64(i + salt * 1000)});
  }
  return rows;
}

}  // namespace idf
