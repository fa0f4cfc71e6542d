// Binary row layout for the Indexed Batch RDD's row batches.
//
// The paper stores rows in "binary, unsafe arrays" off the JVM heap
// (§III-C/F). Our equivalent is a schema-driven layout over raw buffers:
//
//   offset 0   : uint32  row_size        (total bytes, incl. this header)
//   offset 4   : uint32  reserved/padding
//   offset 8   : uint64  back_ptr        (PackedRowPtr bits; §III-C backward
//                                         pointer to previous row w/ same key)
//   offset 16  : null bitmap             ((nfields+7)/8 bytes, padded to 8)
//   then       : fixed-width slots       (aligned; strings hold off/len)
//   then       : var-length data         (string bytes)
//
// Rows are self-contained: decoding needs only the layout and a pointer.
// Maximum row size is PackedRowPtr::kMaxRowSize (1 KB, as in the paper).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "storage/packed_ptr.h"
#include "types/schema.h"

namespace idf {

class RowLayout {
 public:
  explicit RowLayout(SchemaPtr schema);

  const Schema& schema() const { return *schema_; }
  const SchemaPtr& schema_ptr() const { return schema_; }

  /// Bytes this row will occupy when encoded, or InvalidArgument if it
  /// exceeds the 1 KB row bound or mismatches the schema.
  Result<uint32_t> ComputeRowSize(const RowVec& row) const;

  /// Encodes `row` at `dst` (which must have ComputeRowSize bytes available).
  /// `back_ptr` seeds the backward-pointer header.
  void EncodeRow(const RowVec& row, uint8_t* dst, PackedRowPtr back_ptr) const;

  /// Full decode to a RowVec (API-boundary path; hot paths use accessors).
  RowVec DecodeRow(const uint8_t* src) const;

  // ---- zero-copy field accessors -------------------------------------

  static uint32_t RowSize(const uint8_t* src) {
    uint32_t s;
    std::memcpy(&s, src, sizeof(s));
    return s;
  }
  /// Calls fn(row) for each row of a buffer of back-to-back encoded rows, in
  /// order. Returns false, after visiting the rows before it, if a row is
  /// shorter than its header or overruns the buffer.
  template <typename Fn>
  static bool ForEachRow(const uint8_t* data, size_t size, Fn&& fn) {
    size_t cursor = 0;
    while (cursor < size) {
      if (size - cursor < 16) return false;
      const uint32_t row_size = RowSize(data + cursor);
      if (row_size < 16 || row_size > size - cursor) return false;
      fn(data + cursor);
      cursor += row_size;
    }
    return true;
  }
  /// Appends to `rows` a pointer to each row of a buffer (ForEachRow).
  static bool SplitRows(const uint8_t* data, size_t size,
                        std::vector<const uint8_t*>& rows) {
    return ForEachRow(data, size,
                      [&rows](const uint8_t* row) { rows.push_back(row); });
  }
  static PackedRowPtr BackPtr(const uint8_t* src) {
    uint64_t bits;
    std::memcpy(&bits, src + 8, sizeof(bits));
    return PackedRowPtr::FromBits(bits);
  }
  static void SetBackPtr(uint8_t* dst, PackedRowPtr p) {
    const uint64_t bits = p.bits();
    std::memcpy(dst + 8, &bits, sizeof(bits));
  }

  /// The null bitmap starts right after the 16-byte header.
  static constexpr uint32_t kNullBitmapOffset = 16;

  bool IsNull(const uint8_t* src, size_t col) const {
    IDF_CHECK(col < slot_offsets_.size());
    return (src[kNullBitmapOffset + col / 8] >> (col % 8)) & 1;
  }
  /// Byte offset of a column's fixed slot, for kernels that read one column
  /// across many rows.
  uint32_t slot_offset(size_t col) const {
    IDF_CHECK(col < slot_offsets_.size());
    return slot_offsets_[col];
  }

  bool GetBool(const uint8_t* src, size_t col) const {
    return src[SlotOffset(col, TypeId::kBool)] != 0;
  }
  int32_t GetInt32(const uint8_t* src, size_t col) const {
    int32_t v;
    std::memcpy(&v, src + SlotOffset(col, TypeId::kInt32), sizeof(v));
    return v;
  }
  int64_t GetInt64(const uint8_t* src, size_t col) const {
    int64_t v;
    std::memcpy(&v, src + SlotOffset(col, TypeId::kInt64), sizeof(v));
    return v;
  }
  double GetFloat64(const uint8_t* src, size_t col) const {
    double v;
    std::memcpy(&v, src + SlotOffset(col, TypeId::kFloat64), sizeof(v));
    return v;
  }
  std::string_view GetString(const uint8_t* src, size_t col) const {
    const size_t slot = SlotOffset(col, TypeId::kString);
    uint32_t off, len;
    std::memcpy(&off, src + slot, sizeof(off));
    std::memcpy(&len, src + slot + 4, sizeof(len));
    return std::string_view(reinterpret_cast<const char*>(src) + off, len);
  }

  /// Column value as a Value (dispatches on declared type; handles nulls).
  Value GetValue(const uint8_t* src, size_t col) const;

  /// 64-bit key code of a column, consistent with IndexKeyCode(Value) below:
  /// integer columns use their value hashed by the trie (identity here,
  /// Mix64 in the trie); doubles code through DoubleKeyCode; strings hash
  /// their bytes — the lookup path then verifies the actual keys to resolve
  /// collisions (§IV-E).
  uint64_t KeyCode(const uint8_t* src, size_t col) const;

  /// Fixed-section size (header + bitmap + slots); var data starts here.
  uint32_t fixed_size() const { return fixed_size_; }

 private:
  size_t SlotOffset(size_t col, TypeId expect) const {
    IDF_CHECK(col < slot_offsets_.size());
    IDF_CHECK(schema_->field(col).type == expect);
    return slot_offsets_[col];
  }

  SchemaPtr schema_;
  std::vector<uint32_t> slot_offsets_;
  uint32_t bitmap_bytes_ = 0;
  uint32_t fixed_size_ = 0;
};

/// Whether column `acol` of `arow` equals column `bcol` of `brow`: exactly
/// `a.GetValue(arow, acol) == b.GetValue(brow, bcol)` without boxing either
/// side. Nulls match nothing, a string matches only a string, mixed numeric
/// types widen to double (NaN matches nothing; -0.0 equals +0.0). The one
/// rule for verifying keys whose codes hash (§IV-E).
bool KeysEqual(const RowLayout& a, const uint8_t* arow, size_t acol,
               const RowLayout& b, const uint8_t* brow, size_t bcol);

/// The 64-bit key code for indexing a Value of any supported type. Matches
/// RowLayout::KeyCode for the same column value, so a user-supplied lookup
/// key probes the slot the stored row occupies.
uint64_t IndexKeyCode(const Value& key);

/// The key code of a double. An integral double in int64 range codes as
/// that integer (-0.0 as 0), so it shares a code with the equal int64,
/// int32 or bool key and a mixed numeric probe or join finds it; any other
/// double (fractional, out of range, infinite, NaN) codes as HashDouble.
/// Limit: above 2^53 `Value ==` widens an int64 to double with rounding, so
/// int64 2^53 + 1 equals double 2^53 there while their codes differ — no
/// code can agree with that equality.
inline uint64_t DoubleKeyCode(double v) {
  // 2^63 is exact as a double; the range check also rejects NaN.
  constexpr double kTwo63 = 9223372036854775808.0;
  if (v >= -kTwo63 && v < kTwo63) {
    const auto i = static_cast<int64_t>(v);
    if (static_cast<double>(i) == v) return static_cast<uint64_t>(i);
  }
  return HashDouble(v);
}

/// Whether key codes of this type are injective (no verify step needed).
/// Strings and doubles hash, so equal codes require verifying the column.
inline bool KeyCodeNeedsVerify(TypeId type) {
  return type == TypeId::kString || type == TypeId::kFloat64;
}

}  // namespace idf
