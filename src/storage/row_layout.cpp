#include "storage/row_layout.h"

#include <cstring>

namespace idf {
namespace {

constexpr uint32_t kHeaderBytes = 16;  // row_size + pad + back_ptr

uint32_t AlignUp(uint32_t x, uint32_t a) { return (x + a - 1) / a * a; }

}  // namespace

RowLayout::RowLayout(SchemaPtr schema) : schema_(std::move(schema)) {
  IDF_CHECK(schema_ != nullptr);
  const size_t n = schema_->num_fields();
  bitmap_bytes_ = AlignUp(static_cast<uint32_t>((n + 7) / 8), 8);
  uint32_t cursor = kHeaderBytes + bitmap_bytes_;
  slot_offsets_.resize(n);

  // Lay out 8-byte slots first, then 4-byte, then 1-byte, so every slot is
  // naturally aligned without per-field padding.
  for (uint32_t width : {8u, 4u, 1u}) {
    for (size_t i = 0; i < n; ++i) {
      if (FixedSlotWidth(schema_->field(i).type) != width) continue;
      slot_offsets_[i] = cursor;
      cursor += width;
    }
  }
  fixed_size_ = AlignUp(cursor, 4);  // var-length offsets stay 4-aligned
}

Result<uint32_t> RowLayout::ComputeRowSize(const RowVec& row) const {
  IDF_RETURN_IF_ERROR(ValidateRow(*schema_, row));
  uint64_t size = fixed_size_;
  for (size_t i = 0; i < row.size(); ++i) {
    if (schema_->field(i).type == TypeId::kString && !row[i].is_null()) {
      size += row[i].string_value().size();
    }
  }
  if (size > PackedRowPtr::kMaxRowSize) {
    return Status::InvalidArgument(
        "row of " + std::to_string(size) + " bytes exceeds the " +
        std::to_string(PackedRowPtr::kMaxRowSize) + "-byte row bound");
  }
  return static_cast<uint32_t>(size);
}

void RowLayout::EncodeRow(const RowVec& row, uint8_t* dst,
                          PackedRowPtr back_ptr) const {
  Result<uint32_t> size = ComputeRowSize(row);
  IDF_CHECK_OK(size.status());
  const uint32_t row_size = *size;

  std::memset(dst, 0, fixed_size_);
  std::memcpy(dst, &row_size, sizeof(row_size));
  SetBackPtr(dst, back_ptr);

  uint32_t var_cursor = fixed_size_;
  for (size_t i = 0; i < row.size(); ++i) {
    const Value& v = row[i];
    if (v.is_null()) {
      dst[16 + i / 8] |= static_cast<uint8_t>(1u << (i % 8));
      continue;  // slot stays zeroed
    }
    uint8_t* slot = dst + slot_offsets_[i];
    switch (schema_->field(i).type) {
      case TypeId::kBool: {
        *slot = v.bool_value() ? 1 : 0;
        break;
      }
      case TypeId::kInt32: {
        const int32_t x = v.int32_value();
        std::memcpy(slot, &x, sizeof(x));
        break;
      }
      case TypeId::kInt64: {
        const int64_t x = v.int64_value();
        std::memcpy(slot, &x, sizeof(x));
        break;
      }
      case TypeId::kFloat64: {
        const double x = v.float64_value();
        std::memcpy(slot, &x, sizeof(x));
        break;
      }
      case TypeId::kString: {
        const std::string& s = v.string_value();
        const uint32_t off = var_cursor;
        const uint32_t len = static_cast<uint32_t>(s.size());
        std::memcpy(slot, &off, sizeof(off));
        std::memcpy(slot + 4, &len, sizeof(len));
        std::memcpy(dst + var_cursor, s.data(), s.size());
        var_cursor += len;
        break;
      }
    }
  }
  IDF_CHECK(var_cursor == row_size);
}

RowVec RowLayout::DecodeRow(const uint8_t* src) const {
  const size_t n = schema_->num_fields();
  RowVec row;
  row.reserve(n);
  for (size_t i = 0; i < n; ++i) row.push_back(GetValue(src, i));
  return row;
}

Value RowLayout::GetValue(const uint8_t* src, size_t col) const {
  const Field& f = schema_->field(col);
  if (IsNull(src, col)) return Value::Null(f.type);
  switch (f.type) {
    case TypeId::kBool: return Value::Bool(GetBool(src, col));
    case TypeId::kInt32: return Value::Int32(GetInt32(src, col));
    case TypeId::kInt64: return Value::Int64(GetInt64(src, col));
    case TypeId::kFloat64: return Value::Float64(GetFloat64(src, col));
    case TypeId::kString: {
      std::string_view s = GetString(src, col);
      return Value::String(std::string(s));
    }
  }
  return Value();
}

uint64_t RowLayout::KeyCode(const uint8_t* src, size_t col) const {
  const Field& f = schema_->field(col);
  IDF_CHECK_MSG(!IsNull(src, col), "null values are not indexable");
  switch (f.type) {
    case TypeId::kBool: return GetBool(src, col) ? 1 : 0;
    case TypeId::kInt32: return static_cast<uint64_t>(
        static_cast<int64_t>(GetInt32(src, col)));
    case TypeId::kInt64: return static_cast<uint64_t>(GetInt64(src, col));
    case TypeId::kFloat64: return DoubleKeyCode(GetFloat64(src, col));
    case TypeId::kString: return HashString(GetString(src, col));
  }
  return 0;
}

namespace {

/// A non-null numeric column widened to double, as Value::AsFloat64 does.
double WidenedAt(const RowLayout& layout, const uint8_t* row, size_t col) {
  switch (layout.schema().field(col).type) {
    case TypeId::kBool: return layout.GetBool(row, col) ? 1.0 : 0.0;
    case TypeId::kInt32: return layout.GetInt32(row, col);
    case TypeId::kInt64: return static_cast<double>(layout.GetInt64(row, col));
    case TypeId::kFloat64: return layout.GetFloat64(row, col);
    case TypeId::kString: break;
  }
  IDF_CHECK_MSG(false, "numeric widening of a string column");
  return 0.0;
}

}  // namespace

bool KeysEqual(const RowLayout& a, const uint8_t* arow, size_t acol,
               const RowLayout& b, const uint8_t* brow, size_t bcol) {
  if (a.IsNull(arow, acol) || b.IsNull(brow, bcol)) return false;
  const TypeId at = a.schema().field(acol).type;
  const TypeId bt = b.schema().field(bcol).type;
  if (at == TypeId::kString || bt == TypeId::kString) {
    return at == bt && a.GetString(arow, acol) == b.GetString(brow, bcol);
  }
  // Two int64s compare exactly; every other pair compares as doubles, which
  // is exact for bools and int32s.
  if (at == TypeId::kInt64 && bt == TypeId::kInt64) {
    return a.GetInt64(arow, acol) == b.GetInt64(brow, bcol);
  }
  return WidenedAt(a, arow, acol) == WidenedAt(b, brow, bcol);
}

uint64_t IndexKeyCode(const Value& key) {
  IDF_CHECK_MSG(!key.is_null(), "null values are not indexable");
  switch (key.type()) {
    case TypeId::kBool: return key.bool_value() ? 1 : 0;
    case TypeId::kInt32: return static_cast<uint64_t>(
        static_cast<int64_t>(key.int32_value()));
    case TypeId::kInt64: return static_cast<uint64_t>(key.int64_value());
    case TypeId::kFloat64: return DoubleKeyCode(key.float64_value());
    case TypeId::kString: return HashString(key.string_value());
  }
  return 0;
}

}  // namespace idf
