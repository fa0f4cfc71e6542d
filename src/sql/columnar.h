// Columnar in-memory representation — the vanilla baseline.
//
// "The Indexed DataFrame is an in-memory table, thus our performance baseline
// is the default in-memory (columnar) caching mechanism provided by Spark"
// (§IV-A). ColumnarChunk is one cached partition: typed column vectors with
// null bitmaps and a string arena. Scans, projections and vectorizable
// filters are fast here (which is exactly why Fig. 8 / Fig. 13 show the
// row-wise Indexed DataFrame *losing* on projection-heavy operators).
//
// Rows move between the binary row layout (storage/row_layout.h) and chunks
// through three typed kernels that work a column at a time: the encoder
// (ColumnarChunk::EncodeRows), the decoder (DecodeRows) and the gather
// (GatherRows). No Value is boxed per cell.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iosfwd>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/status.h"
#include "engine/block.h"
#include "mem/governor.h"
#include "storage/row_layout.h"
#include "types/schema.h"

namespace idf {

class ColumnVector {
 public:
  explicit ColumnVector(TypeId type);

  TypeId type() const { return type_; }
  size_t size() const { return size_; }

  // ---- building -------------------------------------------------------
  void AppendValue(const Value& v);
  void AppendNull();
  void AppendBool(bool v);
  void AppendInt32(int32_t v);
  void AppendInt64(int64_t v);
  void AppendFloat64(double v);
  void AppendString(std::string_view v);

  /// Appends n rows read from `src`, a column reader with IsNull(i) and
  /// operator[](i) returning T — bool, int32_t, int64_t, double or
  /// std::string_view, as VisitType(type()) gives it. The transcoding
  /// kernels' append: one typed loop, bit-identical to appending the rows
  /// one at a time.
  template <typename T, typename Src>
  void AppendRun(const Src& src, size_t n);

  /// Appends every row of `src`, a column of the same type: the values in
  /// bulk, bit-identical to appending the rows one at a time.
  void AppendColumn(const ColumnVector& src);

  /// Makes room for `rows` more rows holding, in a string column,
  /// `string_bytes` more bytes of values, so that appending them does not
  /// reallocate.
  void Reserve(size_t rows, size_t string_bytes);
  /// Bytes of a string column's values; 0 for other types.
  size_t string_bytes() const;

  // ---- reading --------------------------------------------------------
  bool IsNull(size_t i) const {
    return i < nulls_.size() * 8 && ((nulls_[i / 8] >> (i % 8)) & 1);
  }
  /// Bit i set = row i is null; rows past the end are non-null.
  const std::vector<uint8_t>& null_bitmap() const { return nulls_; }
  bool BoolAt(size_t i) const { return Data<BoolData>().values[i] != 0; }
  int32_t Int32At(size_t i) const { return Data<Int32Data>().values[i]; }
  int64_t Int64At(size_t i) const { return Data<Int64Data>().values[i]; }
  double Float64At(size_t i) const { return Data<Float64Data>().values[i]; }
  std::string_view StringAt(size_t i) const {
    const auto& d = Data<StringData>();
    const uint32_t begin = d.offsets[i];
    const uint32_t end = d.offsets[i + 1];
    return std::string_view(d.arena.data() + begin, end - begin);
  }

  /// Typed storage for kernels that loop over the column: T is uint8_t
  /// (bool, 0/1), int32_t, int64_t or double. Null rows hold 0.
  template <typename T>
  const T* values() const {
    return const_cast<ColumnVector*>(this)->MutableValues<T>().data();
  }

  Value ValueAt(size_t i) const;

  /// Numeric value widened to double (null/any-numeric fast path for
  /// vectorized comparisons). Caller must ensure non-null numeric column.
  double NumericAt(size_t i) const;

  /// 64-bit key code of row i, consistent with IndexKeyCode(Value).
  uint64_t KeyCodeAt(size_t i) const;

  uint64_t ByteSize() const;

  // ---- spill I/O (ColumnarChunk eviction) -----------------------------
  /// Writes nulls + typed storage as length-prefixed raw vectors.
  void WriteTo(std::ostream& out) const;
  /// Restores storage written by WriteTo. kUnavailable on short/corrupt
  /// reads (including a row count that disagrees with size()).
  Status ReadFrom(std::istream& in);
  /// Frees all storage, keeping type() and size() — the column is
  /// unreadable until ReadFrom() restores it.
  void ReleaseStorage();

 private:
  struct BoolData { std::vector<uint8_t> values; };
  struct Int32Data { std::vector<int32_t> values; };
  struct Int64Data { std::vector<int64_t> values; };
  struct Float64Data { std::vector<double> values; };
  struct StringData {
    std::vector<char> arena;
    std::vector<uint32_t> offsets{0};  // size()+1 entries
  };

  template <typename T>
  const T& Data() const { return std::get<T>(data_); }
  template <typename T>
  T& Data() { return std::get<T>(data_); }
  template <typename T>
  std::vector<T>& MutableValues() {
    if constexpr (std::is_same_v<T, uint8_t>) {
      return Data<BoolData>().values;
    } else if constexpr (std::is_same_v<T, int32_t>) {
      return Data<Int32Data>().values;
    } else if constexpr (std::is_same_v<T, int64_t>) {
      return Data<Int64Data>().values;
    } else {
      static_assert(std::is_same_v<T, double>);
      return Data<Float64Data>().values;
    }
  }

  void MarkNull(size_t i);
  void AppendBoolSlot();

  TypeId type_;
  size_t size_ = 0;
  std::vector<uint8_t> nulls_;
  std::variant<BoolData, Int32Data, Int64Data, Float64Data, StringData> data_;
};

/// Whether row `ai` of `a` equals row `bi` of `b`: KeysEqual's rules
/// (storage/row_layout.h) on columns, so `a.ValueAt(ai) == b.ValueAt(bi)`
/// without boxing either side.
bool KeysEqual(const ColumnVector& a, size_t ai, const ColumnVector& b,
               size_t bi);

/// One cached partition of a table: a block the engine can store and ship.
///
/// Under a memory budget a chunk is also an evictable payload: once sealed
/// (SealForCache, called where chunks are cached — TableSink::Emit, lineage
/// builds — after which the chunk is immutable) it registers with the memory
/// governor tagged {owner = producing RDD, shard = partition}, so it shows
/// up in the residency map for spill-aware scheduling and may be spilled
/// column-by-column and faulted back on access. Readers go through
/// column()/RowAt()/ValueAt(), which pin the payload for the duration of
/// the read (mem::AccessScope rules apply: bodies that hold column
/// references across reads of *other* chunks must open a scope).
class ColumnarChunk : public Block, public mem::Evictable {
 public:
  explicit ColumnarChunk(SchemaPtr schema);
  ~ColumnarChunk() override;

  const Schema& schema() const { return *schema_; }
  const SchemaPtr& schema_ptr() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  const ColumnVector& column(size_t i) const {
    IDF_CHECK(i < columns_.size());
    EnsureReadable();
    return columns_[i];
  }
  ColumnVector& mutable_column(size_t i) {
    IDF_CHECK(i < columns_.size());
    IDF_CHECK_MSG(!sealed_for_governor(), "mutating a sealed chunk");
    return columns_[i];
  }

  /// Appends a validated row (API-boundary path; generators use typed
  /// per-column appends directly on the vectors then call SetRowCount).
  Status AppendRow(const RowVec& row);

  /// For builders that filled columns directly; validates column lengths.
  void SetRowCount(size_t n);

  RowVec RowAt(size_t i) const;
  Value ValueAt(size_t row, size_t col) const {
    EnsureReadable();
    return columns_[col].ValueAt(row);
  }

  /// The encoder: writes rows `rows` of this chunk in `layout`'s format,
  /// back to back into `out` (replacing its contents), a column at a time
  /// under one pin. Every row gets a null back pointer. InvalidArgument when
  /// the chunk's column types differ from the layout's, a row holds a null
  /// in a NOT NULL field of the layout, or a row exceeds the 1 KB row bound;
  /// `out` is then unspecified. Callers encode a bounded block of rows per
  /// call (ForEachEncodedRow).
  Status EncodeRows(std::span<const uint32_t> rows, const RowLayout& layout,
                    std::vector<uint8_t>& out) const;

  uint64_t ByteSize() const override;

  /// Seals this chunk under the memory governor as partition `partition` of
  /// RDD `owner_rdd` — from here on it is immutable, budget-accounted, and
  /// evictable. Idempotent; empty chunks stay unregistered; a chunk
  /// re-emitted under a second id (UNION's zero-copy pass-through) keeps
  /// its first identity. No-op until a governor budget engages.
  void SealForCache(uint64_t owner_rdd, uint32_t partition) const;

 private:
  /// Pin chokepoint for every read accessor: faults the payload back in if
  /// evicted and holds it resident while the caller reads. Free while the
  /// chunk is still being built (unsealed payloads cannot be evicted).
  void EnsureReadable() const {
    if (!sealed_for_governor()) return;
    mem::AccessScope::Pin(const_cast<ColumnarChunk*>(this));
  }

  Result<uint64_t> SpillPayload(const std::string& path) override;
  void ReleasePayload() override;
  Status ReloadPayload(const std::string& path) override;
  uint64_t PayloadBytes() const override { return sealed_bytes_; }

  SchemaPtr schema_;
  std::vector<ColumnVector> columns_;
  size_t num_rows_ = 0;
  uint64_t sealed_bytes_ = 0;  // ByteSize() at seal; survives eviction
  mutable std::atomic<bool> seal_started_{false};
};

using ChunkPtr = std::shared_ptr<const ColumnarChunk>;

/// Calls fn(T{}) with the C++ type a kernel reads a column of `type` as.
template <typename Fn>
decltype(auto) VisitType(TypeId type, Fn&& fn) {
  switch (type) {
    case TypeId::kBool: return fn(bool{});
    case TypeId::kInt32: return fn(int32_t{});
    case TypeId::kInt64: return fn(int64_t{});
    case TypeId::kFloat64: return fn(double{});
    case TypeId::kString: break;
  }
  return fn(std::string_view{});
}

template <typename T, typename Src>
void ColumnVector::AppendRun(const Src& src, size_t n) {
  const size_t base = size_;
  if constexpr (std::is_same_v<T, std::string_view>) {
    auto& d = Data<StringData>();
    size_t bytes = 0;
    for (size_t i = 0; i < n; ++i) {
      if (!src.IsNull(i)) bytes += src[i].size();
    }
    size_t cursor = d.arena.size();
    d.arena.resize(cursor + bytes);
    d.offsets.resize(base + 1 + n);
    uint32_t* offsets = d.offsets.data() + base + 1;
    for (size_t i = 0; i < n; ++i) {
      if (src.IsNull(i)) {
        MarkNull(base + i);
      } else if (const std::string_view v = src[i]; !v.empty()) {
        std::memcpy(d.arena.data() + cursor, v.data(), v.size());
        cursor += v.size();
      }
      offsets[i] = static_cast<uint32_t>(cursor);
    }
  } else {
    using Stored = std::conditional_t<std::is_same_v<T, bool>, uint8_t, T>;
    std::vector<Stored>& values = MutableValues<Stored>();
    values.resize(base + n);
    Stored* out = values.data() + base;
    for (size_t i = 0; i < n; ++i) {
      if (src.IsNull(i)) {
        MarkNull(base + i);  // the slot stays 0
      } else {
        out[i] = static_cast<Stored>(src[i]);
      }
    }
  }
  size_ += n;
}

// ---- column readers ---------------------------------------------------------
//
// A run exposes `size()` and `column<T>(col)`, a typed reader with
// `IsNull(i)` and `operator[](i)`; T is bool, int32_t, int64_t, double or
// std::string_view. Readers are built once per block of rows, so a column
// is pinned and type-checked once, not once per value.

/// All rows of one columnar chunk.
class ChunkRun {
 public:
  explicit ChunkRun(const ColumnarChunk& chunk) : chunk_(chunk) {}

  template <typename T>
  class Column {
   public:
    explicit Column(const ColumnVector& column)
        : column_(&column),
          nulls_(column.null_bitmap().data()),
          null_bits_(column.null_bitmap().size() * 8) {
      if constexpr (std::is_same_v<T, bool>) {
        values_ = column.values<uint8_t>();
      } else if constexpr (!std::is_same_v<T, std::string_view>) {
        values_ = column.values<T>();
      }
    }
    bool IsNull(size_t i) const {
      return i < null_bits_ && ((nulls_[i / 8] >> (i % 8)) & 1);
    }
    T operator[](size_t i) const {
      if constexpr (std::is_same_v<T, std::string_view>) {
        return column_->StringAt(i);
      } else {
        return static_cast<T>(values_[i]);
      }
    }

   private:
    using Stored = std::conditional_t<std::is_same_v<T, bool>, uint8_t, T>;
    const ColumnVector* column_;
    const uint8_t* nulls_;
    size_t null_bits_;
    const Stored* values_ = nullptr;
  };

  size_t size() const { return chunk_.num_rows(); }
  template <typename T>
  Column<T> column(size_t col) const {
    return Column<T>(chunk_.column(col));
  }

 private:
  const ColumnarChunk& chunk_;
};

/// Encoded rows of one layout, e.g. one row batch split at its row headers.
/// Column c reads field fields[c] of the layout (field c when `fields` is
/// empty). Every field sits at a fixed slot offset, so a reader is a
/// strided load plus a null-bit test per row.
class RowRun {
 public:
  RowRun(const RowLayout& layout, std::span<const uint8_t* const> rows,
         std::span<const size_t> fields = {})
      : layout_(layout), rows_(rows), fields_(fields) {}

  template <typename T>
  class Column {
   public:
    Column(const uint8_t* const* rows, size_t field, uint32_t slot)
        : rows_(rows),
          null_byte_(RowLayout::kNullBitmapOffset +
                     static_cast<uint32_t>(field / 8)),
          null_mask_(static_cast<uint8_t>(1u << (field % 8))),
          slot_(slot) {}
    bool IsNull(size_t i) const {
      return (rows_[i][null_byte_] & null_mask_) != 0;
    }
    T operator[](size_t i) const {
      const uint8_t* row = rows_[i];
      if constexpr (std::is_same_v<T, std::string_view>) {
        uint32_t off, len;
        std::memcpy(&off, row + slot_, sizeof(off));
        std::memcpy(&len, row + slot_ + 4, sizeof(len));
        return std::string_view(reinterpret_cast<const char*>(row) + off, len);
      } else if constexpr (std::is_same_v<T, bool>) {
        return row[slot_] != 0;
      } else {
        T v;
        std::memcpy(&v, row + slot_, sizeof(v));
        return v;
      }
    }

   private:
    const uint8_t* const* rows_;
    uint32_t null_byte_;
    uint8_t null_mask_;
    uint32_t slot_;
  };

  size_t size() const { return rows_.size(); }
  template <typename T>
  Column<T> column(size_t col) const {
    const size_t field = fields_.empty() ? col : fields_[col];
    return Column<T>(rows_.data(), field, layout_.slot_offset(field));
  }

 private:
  const RowLayout& layout_;
  std::span<const uint8_t* const> rows_;
  std::span<const size_t> fields_;
};

// ---- row <-> column transcoding ---------------------------------------------

/// Rows per block of the transcoding kernels: the encoder's scratch and the
/// row pointers a caller collects before decoding them stay this bounded.
inline constexpr size_t kTranscodeBlockRows = 1024;

/// Encodes rows `sel` of `chunk` with `layout` a block at a time
/// (ColumnarChunk::EncodeRows) and calls emit(k, row, size) for each in
/// order, k indexing `sel`; `row` is valid only during the call. Stops at
/// the first error, after emitting the blocks before it.
template <typename Emit>
Status ForEachEncodedRow(const ColumnarChunk& chunk,
                         std::span<const uint32_t> sel,
                         const RowLayout& layout, Emit&& emit) {
  std::vector<uint8_t> block;
  for (size_t begin = 0; begin < sel.size(); begin += kTranscodeBlockRows) {
    const size_t n = std::min(kTranscodeBlockRows, sel.size() - begin);
    IDF_RETURN_IF_ERROR(chunk.EncodeRows(sel.subspan(begin, n), layout, block));
    const uint8_t* row = block.data();
    for (size_t k = 0; k < n; ++k) {
      const uint32_t size = RowLayout::RowSize(row);
      emit(begin + k, row, size);
      row += size;
    }
  }
  return Status::OK();
}

/// A routing target that drops the row.
inline constexpr uint32_t kDropRow = std::numeric_limits<uint32_t>::max();

/// The map-side router of every exchange: one pass over column `key_column`
/// of `chunk` gives each row its target, target(code) for a key with code
/// `code` and target(std::nullopt) for a null key; then the rows not sent to
/// kDropRow encode with `layout` (ForEachEncodedRow) and emit(target, row,
/// size) sees each in chunk order.
template <typename Target, typename Emit>
Status RouteByKey(const ColumnarChunk& chunk, size_t key_column,
                  const RowLayout& layout, Target&& target, Emit&& emit) {
  const ColumnVector& key = chunk.column(key_column);
  std::vector<uint32_t> sel;
  std::vector<uint32_t> targets;
  sel.reserve(chunk.num_rows());
  targets.reserve(chunk.num_rows());
  for (size_t i = 0; i < chunk.num_rows(); ++i) {
    const uint32_t t = key.IsNull(i)
                           ? target(std::optional<uint64_t>())
                           : target(std::optional<uint64_t>(key.KeyCodeAt(i)));
    if (t == kDropRow) continue;
    sel.push_back(static_cast<uint32_t>(i));
    targets.push_back(t);
  }
  return ForEachEncodedRow(chunk, sel, layout,
                           [&](size_t k, const uint8_t* row, uint32_t size) {
                             emit(targets[k], row, size);
                           });
}

/// The decoder: appends field fields[c] of `rows`, encoded with `layout`,
/// to column offset + c of `out`, in order (a projected scan passes only
/// the fields its pipeline reads). A null pointer appends a null to each of
/// those columns (the padded side of an outer join). The caller keeps the
/// rows pinned for the call, and sets the row count once every column of
/// `out` is filled.
void DecodeRows(const RowLayout& layout, std::span<const uint8_t* const> rows,
                std::span<const size_t> fields, ColumnarChunk& out,
                size_t offset);

/// Every field of `schema`, in order: the field list that decodes or
/// gathers whole rows.
std::vector<size_t> AllFields(const Schema& schema);

/// Appends every row of each chunk of `srcs`, in order, to `out`, whose
/// column types they share, and sets out's row count: the concatenation of
/// pipeline blocks into one materialized chunk, identical to building that
/// chunk in one go. Each column of `out` grows once, to its final size.
void AppendChunks(std::span<const ChunkPtr> srcs, ColumnarChunk& out);

/// Row `row` of source chunk `chunk`; chunk kNull stands for a row of nulls.
struct RowRef {
  static constexpr uint32_t kNull = ~0u;
  uint32_t chunk = 0;
  uint32_t row = 0;
};

/// The gather: appends column fields[c] of row refs[i].row of
/// sources[refs[i].chunk] to column offset + c of `out`, in order. `sources`
/// is not empty and its chunks share one schema. The caller keeps the
/// sources pinned (an AccessScope) for the call, and sets the row count once
/// every column of `out` is filled.
void GatherRows(std::span<const ChunkPtr> sources,
                std::span<const RowRef> refs, std::span<const size_t> fields,
                ColumnarChunk& out, size_t offset);

/// Collects joined pairs of encoded rows and decodes them a block of up to
/// kTranscodeBlockRows pairs at a time into a chunk of `schema`, which
/// `emit` takes: fields `left_fields` of the left rows fill its first
/// columns, fields `right_fields` of the right rows the rest, and a null
/// right row pads them with nulls. The field lists outlive the decoder.
/// Call Flush() before the scope that pins the rows closes.
class JoinedRowDecoder {
 public:
  using Emit = std::function<void(std::shared_ptr<ColumnarChunk>)>;

  JoinedRowDecoder(const RowLayout& left, std::span<const size_t> left_fields,
                   const RowLayout& right,
                   std::span<const size_t> right_fields, SchemaPtr schema,
                   Emit emit)
      : left_(left),
        right_(right),
        left_fields_(left_fields),
        right_fields_(right_fields),
        schema_(std::move(schema)),
        emit_(std::move(emit)) {}

  void Add(const uint8_t* left_row, const uint8_t* right_row) {
    left_rows_.push_back(left_row);
    right_rows_.push_back(right_row);
    if (left_rows_.size() == kTranscodeBlockRows) Flush();
  }
  /// Decodes and emits the pending pairs, if any.
  void Flush();

 private:
  const RowLayout& left_;
  const RowLayout& right_;
  std::span<const size_t> left_fields_;
  std::span<const size_t> right_fields_;
  SchemaPtr schema_;
  Emit emit_;
  std::vector<const uint8_t*> left_rows_;
  std::vector<const uint8_t*> right_rows_;
};

}  // namespace idf
