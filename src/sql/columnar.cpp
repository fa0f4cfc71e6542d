#include "sql/columnar.h"

#include <bit>
#include <cstring>
#include <fstream>
#include <istream>
#include <numeric>
#include <ostream>

namespace idf {

namespace {

template <typename T>
void WriteVec(std::ostream& out, const std::vector<T>& v) {
  const uint64_t n = v.size();
  out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  if (n > 0) {
    out.write(reinterpret_cast<const char*>(v.data()),
              static_cast<std::streamsize>(n * sizeof(T)));
  }
}

template <typename T>
bool ReadVec(std::istream& in, std::vector<T>* v) {
  uint64_t n = 0;
  in.read(reinterpret_cast<char*>(&n), sizeof(n));
  if (!in) return false;
  v->resize(n);
  if (n > 0) {
    in.read(reinterpret_cast<char*>(v->data()),
            static_cast<std::streamsize>(n * sizeof(T)));
  }
  return static_cast<bool>(in);
}

}  // namespace

ColumnVector::ColumnVector(TypeId type) : type_(type) {
  switch (type) {
    case TypeId::kBool: data_ = BoolData{}; break;
    case TypeId::kInt32: data_ = Int32Data{}; break;
    case TypeId::kInt64: data_ = Int64Data{}; break;
    case TypeId::kFloat64: data_ = Float64Data{}; break;
    case TypeId::kString: data_ = StringData{}; break;
  }
}

void ColumnVector::MarkNull(size_t i) {
  if (nulls_.size() * 8 <= i) nulls_.resize(i / 8 + 1, 0);
  nulls_[i / 8] |= static_cast<uint8_t>(1u << (i % 8));
}

void ColumnVector::AppendNull() {
  MarkNull(size_);
  switch (type_) {
    case TypeId::kBool: AppendBoolSlot(); break;
    case TypeId::kInt32: Data<Int32Data>().values.push_back(0); break;
    case TypeId::kInt64: Data<Int64Data>().values.push_back(0); break;
    case TypeId::kFloat64: Data<Float64Data>().values.push_back(0); break;
    case TypeId::kString: Data<StringData>().offsets.push_back(
        Data<StringData>().offsets.back());
      break;
  }
  ++size_;
}

// Helper kept out-of-line to keep AppendNull readable.
void ColumnVector::AppendBoolSlot() { Data<BoolData>().values.push_back(0); }

void ColumnVector::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  IDF_CHECK_MSG(v.type() == type_, "column type mismatch");
  switch (type_) {
    case TypeId::kBool: AppendBool(v.bool_value()); break;
    case TypeId::kInt32: AppendInt32(v.int32_value()); break;
    case TypeId::kInt64: AppendInt64(v.int64_value()); break;
    case TypeId::kFloat64: AppendFloat64(v.float64_value()); break;
    case TypeId::kString: AppendString(v.string_value()); break;
  }
}

void ColumnVector::AppendBool(bool v) {
  IDF_CHECK(type_ == TypeId::kBool);
  Data<BoolData>().values.push_back(v ? 1 : 0);
  ++size_;
}
void ColumnVector::AppendInt32(int32_t v) {
  IDF_CHECK(type_ == TypeId::kInt32);
  Data<Int32Data>().values.push_back(v);
  ++size_;
}
void ColumnVector::AppendInt64(int64_t v) {
  IDF_CHECK(type_ == TypeId::kInt64);
  Data<Int64Data>().values.push_back(v);
  ++size_;
}
void ColumnVector::AppendFloat64(double v) {
  IDF_CHECK(type_ == TypeId::kFloat64);
  Data<Float64Data>().values.push_back(v);
  ++size_;
}
void ColumnVector::AppendString(std::string_view v) {
  IDF_CHECK(type_ == TypeId::kString);
  auto& d = Data<StringData>();
  d.arena.insert(d.arena.end(), v.begin(), v.end());
  d.offsets.push_back(static_cast<uint32_t>(d.arena.size()));
  ++size_;
}

void ColumnVector::AppendColumn(const ColumnVector& src) {
  IDF_CHECK_MSG(src.type_ == type_, "column type mismatch");
  const size_t base = size_;
  std::visit(
      [&](auto& dst) {
        using D = std::decay_t<decltype(dst)>;
        const D& from = std::get<D>(src.data_);
        if constexpr (std::is_same_v<D, StringData>) {
          const auto shift = static_cast<uint32_t>(dst.arena.size());
          dst.arena.insert(dst.arena.end(), from.arena.begin(),
                           from.arena.end());
          for (size_t i = 1; i < from.offsets.size(); ++i) {
            dst.offsets.push_back(shift + from.offsets[i]);
          }
        } else {
          // A null's slot holds 0 in both columns, as AppendNull leaves it.
          dst.values.insert(dst.values.end(), from.values.begin(),
                            from.values.end());
        }
      },
      data_);
  for (size_t byte = 0; byte < src.nulls_.size(); ++byte) {
    for (unsigned bits = src.nulls_[byte]; bits != 0; bits &= bits - 1) {
      MarkNull(base + byte * 8 + std::countr_zero(bits));
    }
  }
  size_ += src.size_;
}

void ColumnVector::Reserve(size_t rows, size_t string_bytes) {
  switch (type_) {
    case TypeId::kBool: Data<BoolData>().values.reserve(size_ + rows); break;
    case TypeId::kInt32: Data<Int32Data>().values.reserve(size_ + rows); break;
    case TypeId::kInt64: Data<Int64Data>().values.reserve(size_ + rows); break;
    case TypeId::kFloat64:
      Data<Float64Data>().values.reserve(size_ + rows);
      break;
    case TypeId::kString: {
      auto& d = Data<StringData>();
      d.offsets.reserve(size_ + rows + 1);
      d.arena.reserve(d.arena.size() + string_bytes);
      break;
    }
  }
}

size_t ColumnVector::string_bytes() const {
  return type_ == TypeId::kString ? Data<StringData>().arena.size() : 0;
}

Value ColumnVector::ValueAt(size_t i) const {
  IDF_CHECK(i < size_);
  if (IsNull(i)) return Value::Null(type_);
  switch (type_) {
    case TypeId::kBool: return Value::Bool(BoolAt(i));
    case TypeId::kInt32: return Value::Int32(Int32At(i));
    case TypeId::kInt64: return Value::Int64(Int64At(i));
    case TypeId::kFloat64: return Value::Float64(Float64At(i));
    case TypeId::kString: return Value::String(std::string(StringAt(i)));
  }
  return Value();
}

double ColumnVector::NumericAt(size_t i) const {
  switch (type_) {
    case TypeId::kBool: return BoolAt(i) ? 1.0 : 0.0;
    case TypeId::kInt32: return Int32At(i);
    case TypeId::kInt64: return static_cast<double>(Int64At(i));
    case TypeId::kFloat64: return Float64At(i);
    case TypeId::kString: break;
  }
  IDF_CHECK_MSG(false, "NumericAt on string column");
  return 0;
}

uint64_t ColumnVector::KeyCodeAt(size_t i) const {
  IDF_CHECK_MSG(!IsNull(i), "null values are not indexable");
  switch (type_) {
    case TypeId::kBool: return BoolAt(i) ? 1 : 0;
    case TypeId::kInt32: return static_cast<uint64_t>(
        static_cast<int64_t>(Int32At(i)));
    case TypeId::kInt64: return static_cast<uint64_t>(Int64At(i));
    case TypeId::kFloat64: return DoubleKeyCode(Float64At(i));
    case TypeId::kString: return HashString(StringAt(i));
  }
  return 0;
}

bool KeysEqual(const ColumnVector& a, size_t ai, const ColumnVector& b,
               size_t bi) {
  if (a.IsNull(ai) || b.IsNull(bi)) return false;
  if (a.type() == TypeId::kString || b.type() == TypeId::kString) {
    return a.type() == b.type() && a.StringAt(ai) == b.StringAt(bi);
  }
  if (a.type() == TypeId::kInt64 && b.type() == TypeId::kInt64) {
    return a.Int64At(ai) == b.Int64At(bi);
  }
  return a.NumericAt(ai) == b.NumericAt(bi);
}

uint64_t ColumnVector::ByteSize() const {
  uint64_t bytes = nulls_.size();
  switch (type_) {
    case TypeId::kBool: bytes += Data<BoolData>().values.size(); break;
    case TypeId::kInt32: bytes += Data<Int32Data>().values.size() * 4; break;
    case TypeId::kInt64: bytes += Data<Int64Data>().values.size() * 8; break;
    case TypeId::kFloat64:
      bytes += Data<Float64Data>().values.size() * 8;
      break;
    case TypeId::kString: {
      const auto& d = Data<StringData>();
      bytes += d.arena.size() + d.offsets.size() * 4;
      break;
    }
  }
  return bytes;
}

void ColumnVector::WriteTo(std::ostream& out) const {
  WriteVec(out, nulls_);
  switch (type_) {
    case TypeId::kBool: WriteVec(out, Data<BoolData>().values); break;
    case TypeId::kInt32: WriteVec(out, Data<Int32Data>().values); break;
    case TypeId::kInt64: WriteVec(out, Data<Int64Data>().values); break;
    case TypeId::kFloat64: WriteVec(out, Data<Float64Data>().values); break;
    case TypeId::kString: {
      const auto& d = Data<StringData>();
      WriteVec(out, d.arena);
      WriteVec(out, d.offsets);
      break;
    }
  }
}

Status ColumnVector::ReadFrom(std::istream& in) {
  bool ok = ReadVec(in, &nulls_);
  size_t restored = 0;
  switch (type_) {
    case TypeId::kBool:
      ok = ok && ReadVec(in, &Data<BoolData>().values);
      restored = Data<BoolData>().values.size();
      break;
    case TypeId::kInt32:
      ok = ok && ReadVec(in, &Data<Int32Data>().values);
      restored = Data<Int32Data>().values.size();
      break;
    case TypeId::kInt64:
      ok = ok && ReadVec(in, &Data<Int64Data>().values);
      restored = Data<Int64Data>().values.size();
      break;
    case TypeId::kFloat64:
      ok = ok && ReadVec(in, &Data<Float64Data>().values);
      restored = Data<Float64Data>().values.size();
      break;
    case TypeId::kString: {
      auto& d = Data<StringData>();
      ok = ok && ReadVec(in, &d.arena) && ReadVec(in, &d.offsets);
      restored = d.offsets.empty() ? 0 : d.offsets.size() - 1;
      break;
    }
  }
  if (!ok) return Status::Unavailable("short read reloading column");
  if (restored != size_) {
    return Status::Unavailable("reloaded column row count mismatch");
  }
  return Status::OK();
}

void ColumnVector::ReleaseStorage() {
  nulls_ = {};
  switch (type_) {
    case TypeId::kBool: data_ = BoolData{}; break;
    case TypeId::kInt32: data_ = Int32Data{}; break;
    case TypeId::kInt64: data_ = Int64Data{}; break;
    case TypeId::kFloat64: data_ = Float64Data{}; break;
    case TypeId::kString: data_ = StringData{}; break;
  }
}

// ---- ColumnarChunk ---------------------------------------------------------

ColumnarChunk::ColumnarChunk(SchemaPtr schema) : schema_(std::move(schema)) {
  IDF_CHECK(schema_ != nullptr);
  columns_.reserve(schema_->num_fields());
  for (const Field& f : schema_->fields()) columns_.emplace_back(f.type);
}

Status ColumnarChunk::AppendRow(const RowVec& row) {
  IDF_CHECK_MSG(!sealed_for_governor(), "appending to a sealed chunk");
  IDF_RETURN_IF_ERROR(ValidateRow(*schema_, row));
  for (size_t i = 0; i < row.size(); ++i) columns_[i].AppendValue(row[i]);
  ++num_rows_;
  return Status::OK();
}

void ColumnarChunk::SetRowCount(size_t n) {
  for (const ColumnVector& c : columns_) {
    IDF_CHECK_MSG(c.size() == n, "ragged columns in chunk");
  }
  num_rows_ = n;
}

RowVec ColumnarChunk::RowAt(size_t i) const {
  IDF_CHECK(i < num_rows_);
  EnsureReadable();
  RowVec row;
  row.reserve(columns_.size());
  for (const ColumnVector& c : columns_) row.push_back(c.ValueAt(i));
  return row;
}

Status ColumnarChunk::EncodeRows(std::span<const uint32_t> rows,
                                 const RowLayout& layout,
                                 std::vector<uint8_t>& out) const {
  const Schema& schema = layout.schema();
  bool types_match = schema.num_fields() == columns_.size();
  bool has_strings = false;
  for (size_t c = 0; types_match && c < columns_.size(); ++c) {
    types_match = columns_[c].type() == schema.field(c).type;
    has_strings = has_strings || schema.field(c).type == TypeId::kString;
  }
  if (!types_match) {
    return Status::InvalidArgument("chunk columns do not match the layout " +
                                   schema.ToString());
  }
  EnsureReadable();
  const size_t n = rows.size();
  const uint32_t fixed = layout.fixed_size();
  auto row_bound_error = [](uint64_t size) {
    return Status::InvalidArgument(
        "row of " + std::to_string(size) + " bytes exceeds the " +
        std::to_string(PackedRowPtr::kMaxRowSize) + "-byte row bound");
  };

  // A column without a null bitmap holds no null: it needs no null tests.
  for (size_t c = 0; c < columns_.size(); ++c) {
    const Field& f = schema.field(c);
    if (f.nullable || columns_[c].null_bitmap().empty()) continue;
    for (size_t k = 0; k < n; ++k) {
      if (columns_[c].IsNull(rows[k])) {
        return Status::InvalidArgument("null in NOT NULL field '" + f.name +
                                       "'");
      }
    }
  }

  // Row sizes: the fixed section plus the bytes of each non-null string.
  // Without strings every row is the fixed section, and row k starts at
  // k * fixed.
  std::vector<uint64_t> sizes;
  std::vector<size_t> starts;
  size_t total = n * fixed;
  if (has_strings) {
    sizes.assign(n, fixed);
    for (size_t c = 0; c < columns_.size(); ++c) {
      const ColumnVector& col = columns_[c];
      if (col.type() != TypeId::kString) continue;
      for (size_t k = 0; k < n; ++k) {
        if (!col.IsNull(rows[k])) sizes[k] += col.StringAt(rows[k]).size();
      }
    }
    starts.resize(n);
    total = 0;
    for (size_t k = 0; k < n; ++k) {
      if (sizes[k] > PackedRowPtr::kMaxRowSize) {
        return row_bound_error(sizes[k]);
      }
      starts[k] = total;
      total += sizes[k];
    }
  } else if (n > 0 && fixed > PackedRowPtr::kMaxRowSize) {
    return row_bound_error(fixed);
  }

  // Fixed sections: size, zeroed pad, null back pointer, bitmap and slots.
  out.resize(total);
  uint8_t* const base = out.data();
  if (total > 0) std::memset(base, 0, total);
  auto row_at = [&](size_t k) {
    return base + (has_strings ? starts[k] : k * fixed);
  };
  for (size_t k = 0; k < n; ++k) {
    uint8_t* row = row_at(k);
    const uint32_t size =
        has_strings ? static_cast<uint32_t>(sizes[k]) : fixed;
    std::memcpy(row, &size, sizeof(size));
    RowLayout::SetBackPtr(row, PackedRowPtr::Null());
  }
  // Strings append to their row's var section in column order.
  std::vector<uint32_t> var(has_strings ? n : 0, fixed);
  for (size_t c = 0; c < columns_.size(); ++c) {
    const uint32_t slot = layout.slot_offset(c);
    const size_t null_byte = RowLayout::kNullBitmapOffset + c / 8;
    const uint8_t null_mask = static_cast<uint8_t>(1u << (c % 8));
    const bool may_be_null = !columns_[c].null_bitmap().empty();
    VisitType(columns_[c].type(), [&](auto tag) {
      using T = decltype(tag);
      const ChunkRun::Column<T> col(columns_[c]);
      for (size_t k = 0; k < n; ++k) {
        uint8_t* row = row_at(k);
        if (may_be_null && col.IsNull(rows[k])) {
          row[null_byte] |= null_mask;  // the slot stays zeroed
          continue;
        }
        const T v = col[rows[k]];
        if constexpr (std::is_same_v<T, std::string_view>) {
          const uint32_t len = static_cast<uint32_t>(v.size());
          std::memcpy(row + slot, &var[k], sizeof(var[k]));
          std::memcpy(row + slot + 4, &len, sizeof(len));
          if (len > 0) std::memcpy(row + var[k], v.data(), len);
          var[k] += len;
        } else if constexpr (std::is_same_v<T, bool>) {
          row[slot] = v ? 1 : 0;
        } else {
          std::memcpy(row + slot, &v, sizeof(v));
        }
      }
    });
  }
  return Status::OK();
}

uint64_t ColumnarChunk::ByteSize() const {
  // Sealed chunks report their seal-time size so accounting (block manager,
  // shuffle modeling) never has to fault an evicted payload back in.
  if (sealed_bytes_ > 0) return sealed_bytes_;
  uint64_t bytes = 0;
  for (const ColumnVector& c : columns_) bytes += c.ByteSize();
  return bytes;
}

ColumnarChunk::~ColumnarChunk() {
  // First statement: blocks out in-flight evictions before the payload
  // vtable entries die (see Evictable::RetireFromGovernor).
  RetireFromGovernor();
}

void ColumnarChunk::SealForCache(uint64_t owner_rdd, uint32_t partition) const {
  // Gate on engagement: without a budget the governor never evicts, so
  // unbudgeted runs skip registration entirely and behave exactly as before.
  if (!mem::MemoryGovernor::Engaged()) return;
  ColumnarChunk* self = const_cast<ColumnarChunk*>(this);
  if (self->seal_started_.exchange(true, std::memory_order_acq_rel)) return;
  if (num_rows_ == 0) return;  // nothing worth spilling; stay unregistered
  uint64_t bytes = 0;
  for (const ColumnVector& c : columns_) bytes += c.ByteSize();
  if (bytes == 0) return;
  self->sealed_bytes_ = bytes;
  self->SetSpillIdentity({owner_rdd, partition, 0});
  self->AccountAllocated(bytes);
  self->SealForGovernor();
}

Result<uint64_t> ColumnarChunk::SpillPayload(const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::Unavailable("cannot open spill file '" + path + "'");
  }
  for (const ColumnVector& c : columns_) c.WriteTo(out);
  out.flush();
  if (!out) return Status::Unavailable("short write to '" + path + "'");
  return static_cast<uint64_t>(out.tellp());
}

void ColumnarChunk::ReleasePayload() {
  for (ColumnVector& c : columns_) c.ReleaseStorage();
}

Status ColumnarChunk::ReloadPayload(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::Unavailable("cannot open spill file '" + path + "'");
  }
  for (ColumnVector& c : columns_) {
    IDF_RETURN_IF_ERROR(c.ReadFrom(in));
  }
  return Status::OK();
}

// ---- transcoding kernels ----------------------------------------------------

namespace {

/// RowRun::Column that reads a null row pointer as a row of nulls.
template <typename T>
class PaddedRowColumn {
 public:
  PaddedRowColumn(const uint8_t* const* rows, RowRun::Column<T> column)
      : rows_(rows), column_(column) {}
  bool IsNull(size_t i) const {
    return rows_[i] == nullptr || column_.IsNull(i);
  }
  T operator[](size_t i) const { return column_[i]; }

 private:
  const uint8_t* const* rows_;
  RowRun::Column<T> column_;
};

/// One column of several chunks, read in RowRef order.
template <typename T>
class GatherColumn {
 public:
  GatherColumn(const RowRef* refs, const ChunkRun::Column<T>* columns)
      : refs_(refs), columns_(columns) {}
  bool IsNull(size_t i) const {
    const RowRef& ref = refs_[i];
    return ref.chunk == RowRef::kNull || columns_[ref.chunk].IsNull(ref.row);
  }
  T operator[](size_t i) const {
    return columns_[refs_[i].chunk][refs_[i].row];
  }

 private:
  const RowRef* refs_;
  const ChunkRun::Column<T>* columns_;
};

}  // namespace

namespace {

/// Decodes field `field` of `block`'s rows into `dst`.
void DecodeField(const RowLayout& layout, const RowRun& run,
                 std::span<const uint8_t* const> block, size_t field,
                 ColumnVector& dst) {
  IDF_CHECK_MSG(dst.type() == layout.schema().field(field).type,
                "column type mismatch");
  VisitType(dst.type(), [&](auto tag) {
    using T = decltype(tag);
    dst.AppendRun<T>(
        PaddedRowColumn<T>(block.data(), run.template column<T>(field)),
        block.size());
  });
}

/// Calls fn(block, run) for consecutive blocks of `rows`: blocks keep the
/// rows a column pass strides over in cache.
template <typename Fn>
void ForEachRowBlock(const RowLayout& layout,
                     std::span<const uint8_t* const> rows, Fn&& fn) {
  for (size_t begin = 0; begin < rows.size(); begin += kTranscodeBlockRows) {
    const size_t n = std::min(kTranscodeBlockRows, rows.size() - begin);
    const std::span<const uint8_t* const> block = rows.subspan(begin, n);
    fn(block, RowRun(layout, block));
  }
}

}  // namespace

void DecodeRows(const RowLayout& layout, std::span<const uint8_t* const> rows,
                std::span<const size_t> fields, ColumnarChunk& out,
                size_t offset) {
  ForEachRowBlock(layout, rows, [&](auto block, const RowRun& run) {
    for (size_t c = 0; c < fields.size(); ++c) {
      DecodeField(layout, run, block, fields[c],
                  out.mutable_column(offset + c));
    }
  });
}

std::vector<size_t> AllFields(const Schema& schema) {
  std::vector<size_t> fields(schema.num_fields());
  std::iota(fields.begin(), fields.end(), size_t{0});
  return fields;
}

void AppendChunks(std::span<const ChunkPtr> srcs, ColumnarChunk& out) {
  size_t rows = 0;
  for (const ChunkPtr& src : srcs) rows += src->num_rows();
  for (size_t c = 0; c < out.num_columns(); ++c) {
    ColumnVector& dst = out.mutable_column(c);
    size_t bytes = 0;
    for (const ChunkPtr& src : srcs) bytes += src->column(c).string_bytes();
    dst.Reserve(rows, bytes);
    for (const ChunkPtr& src : srcs) dst.AppendColumn(src->column(c));
  }
  out.SetRowCount(out.num_rows() + rows);
}

void GatherRows(std::span<const ChunkPtr> sources,
                std::span<const RowRef> refs, std::span<const size_t> fields,
                ColumnarChunk& out, size_t offset) {
  IDF_CHECK(!sources.empty());
  for (size_t c = 0; c < fields.size(); ++c) {
    ColumnVector& dst = out.mutable_column(offset + c);
    VisitType(dst.type(), [&](auto tag) {
      using T = decltype(tag);
      std::vector<ChunkRun::Column<T>> columns;
      columns.reserve(sources.size());
      for (const ChunkPtr& source : sources) {
        const ColumnVector& column = source->column(fields[c]);
        IDF_CHECK_MSG(column.type() == dst.type(), "column type mismatch");
        columns.emplace_back(column);
      }
      dst.AppendRun<T>(GatherColumn<T>(refs.data(), columns.data()),
                       refs.size());
    });
  }
}

void JoinedRowDecoder::Flush() {
  if (left_rows_.empty()) return;
  auto block = std::make_shared<ColumnarChunk>(schema_);
  DecodeRows(left_, left_rows_, left_fields_, *block, 0);
  DecodeRows(right_, right_rows_, right_fields_, *block, left_fields_.size());
  block->SetRowCount(left_rows_.size());
  left_rows_.clear();
  right_rows_.clear();
  emit_(std::move(block));
}

}  // namespace idf
