// Columnar in-memory representation — the vanilla baseline.
//
// "The Indexed DataFrame is an in-memory table, thus our performance baseline
// is the default in-memory (columnar) caching mechanism provided by Spark"
// (§IV-A). ColumnarChunk is one cached partition: typed column vectors with
// null bitmaps and a string arena. Scans, projections and vectorizable
// filters are fast here (which is exactly why Fig. 8 / Fig. 13 show the
// row-wise Indexed DataFrame *losing* on projection-heavy operators).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
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
  void Reserve(size_t n);

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
    if constexpr (std::is_same_v<T, uint8_t>) {
      return Data<BoolData>().values.data();
    } else if constexpr (std::is_same_v<T, int32_t>) {
      return Data<Int32Data>().values.data();
    } else if constexpr (std::is_same_v<T, int64_t>) {
      return Data<Int64Data>().values.data();
    } else {
      static_assert(std::is_same_v<T, double>);
      return Data<Float64Data>().values.data();
    }
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

  void MarkNull(size_t i);
  void AppendBoolSlot();

  TypeId type_;
  size_t size_ = 0;
  std::vector<uint8_t> nulls_;
  std::variant<BoolData, Int32Data, Int64Data, Float64Data, StringData> data_;
};

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

  /// Serializes row i with the given layout into `out` (shuffle path).
  /// `scratch` avoids per-row allocations.
  void EncodeRowTo(const RowLayout& layout, size_t i,
                   std::vector<uint8_t>& scratch) const;

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

/// Builds a chunk from encoded binary rows (shuffle-receive / index fallback
/// scan: this row->columnar conversion is the cost that makes projections on
/// the Indexed DataFrame slower than on the columnar cache).
class ChunkBuilder {
 public:
  explicit ChunkBuilder(SchemaPtr schema);

  void AddEncodedRow(const RowLayout& layout, const uint8_t* row);
  void AddRow(const RowVec& row);

  size_t num_rows() const { return chunk_->num_rows(); }
  ChunkPtr Finish();

 private:
  std::shared_ptr<ColumnarChunk> chunk_;
};

}  // namespace idf
