// The row <-> column transcoding kernels (sql/columnar.h) against the
// per-row conversions they replaced, kept here as the reference: encoded
// bytes, column values, null bitmaps, ByteSize() and row order must match.
#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <string>
#include <vector>

#include "sql/columnar.h"
#include "storage/row_layout.h"

namespace idf {
namespace {

// ---- the per-row reference --------------------------------------------------

/// Boxes row i into a RowVec, then validates, sizes and encodes it.
Result<std::vector<uint8_t>> ReferenceEncode(const ColumnarChunk& chunk,
                                             const RowLayout& layout,
                                             size_t i) {
  const RowVec row = chunk.RowAt(i);
  IDF_ASSIGN_OR_RETURN(uint32_t size, layout.ComputeRowSize(row));
  std::vector<uint8_t> out(size);
  layout.EncodeRow(row, out.data(), PackedRowPtr::Null());
  return out;
}

/// Appends one encoded row to columns [offset, offset + fields) of `out`,
/// a cell at a time; a null row appends a null to each column.
void ReferenceDecode(ColumnarChunk& out, size_t offset,
                     const RowLayout& layout, const uint8_t* row) {
  const Schema& schema = layout.schema();
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    ColumnVector& dst = out.mutable_column(offset + c);
    if (row == nullptr || layout.IsNull(row, c)) {
      dst.AppendNull();
      continue;
    }
    switch (schema.field(c).type) {
      case TypeId::kBool: dst.AppendBool(layout.GetBool(row, c)); break;
      case TypeId::kInt32: dst.AppendInt32(layout.GetInt32(row, c)); break;
      case TypeId::kInt64: dst.AppendInt64(layout.GetInt64(row, c)); break;
      case TypeId::kFloat64:
        dst.AppendFloat64(layout.GetFloat64(row, c));
        break;
      case TypeId::kString: dst.AppendString(layout.GetString(row, c)); break;
    }
  }
}

/// Appends row `row` of `in` to columns [offset, offset + in columns) of
/// `out`, a cell at a time; a null `in` appends `width` nulls.
void ReferenceCopy(ColumnarChunk& out, size_t offset, const ColumnarChunk* in,
                   size_t row, size_t width) {
  for (size_t c = 0; c < width; ++c) {
    ColumnVector& dst = out.mutable_column(offset + c);
    if (in == nullptr || in->column(c).IsNull(row)) {
      dst.AppendNull();
      continue;
    }
    const ColumnVector& src = in->column(c);
    switch (src.type()) {
      case TypeId::kBool: dst.AppendBool(src.BoolAt(row)); break;
      case TypeId::kInt32: dst.AppendInt32(src.Int32At(row)); break;
      case TypeId::kInt64: dst.AppendInt64(src.Int64At(row)); break;
      case TypeId::kFloat64: dst.AppendFloat64(src.Float64At(row)); break;
      case TypeId::kString: dst.AppendString(src.StringAt(row)); break;
    }
  }
}

// ---- inputs -----------------------------------------------------------------

/// All five types, nullable, plus a NOT NULL key and a second string.
SchemaPtr WideSchema() {
  return std::make_shared<Schema>(Schema({
      {"id", TypeId::kInt64, false},
      {"b", TypeId::kBool, true},
      {"i32", TypeId::kInt32, true},
      {"s", TypeId::kString, true},
      {"i64", TypeId::kInt64, true},
      {"f", TypeId::kFloat64, true},
      {"t", TypeId::kString, true},
  }));
}

/// No strings: every row is the layout's fixed section.
SchemaPtr FixedSchema() {
  return std::make_shared<Schema>(Schema({
      {"id", TypeId::kInt64, false},
      {"b", TypeId::kBool, true},
      {"i32", TypeId::kInt32, true},
      {"i64", TypeId::kInt64, true},
      {"f", TypeId::kFloat64, true},
  }));
}

SchemaPtr NarrowSchema() {
  return std::make_shared<Schema>(Schema({
      {"k", TypeId::kInt32, true},
      {"name", TypeId::kString, true},
  }));
}

/// Seeded rows with nulls in every nullable column, empty strings and
/// strings of varied length (all within the row bound).
std::vector<RowVec> MakeRows(const Schema& schema, size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<RowVec> rows;
  for (size_t r = 0; r < n; ++r) {
    RowVec row;
    for (const Field& f : schema.fields()) {
      if (f.nullable && rng() % 4 == 0) {
        row.push_back(Value::Null(f.type));
        continue;
      }
      switch (f.type) {
        case TypeId::kBool: row.push_back(Value::Bool(rng() % 2 == 0)); break;
        case TypeId::kInt32:
          row.push_back(Value::Int32(static_cast<int32_t>(rng())));
          break;
        case TypeId::kInt64:
          row.push_back(Value::Int64(static_cast<int64_t>(rng()) << 20 |
                                     static_cast<int64_t>(r)));
          break;
        case TypeId::kFloat64:
          row.push_back(Value::Float64(static_cast<double>(rng()) / 7.0 - 1e8));
          break;
        case TypeId::kString: {
          const size_t len = rng() % 3 == 0 ? 0 : rng() % 40;
          row.push_back(Value::String(
              std::string(len, static_cast<char>('a' + rng() % 26))));
          break;
        }
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

std::shared_ptr<ColumnarChunk> MakeChunk(const SchemaPtr& schema,
                                         const std::vector<RowVec>& rows) {
  auto chunk = std::make_shared<ColumnarChunk>(schema);
  for (const RowVec& row : rows) EXPECT_TRUE(chunk->AppendRow(row).ok());
  return chunk;
}

/// Rows encoded one at a time by RowLayout::EncodeRow.
std::vector<std::vector<uint8_t>> EncodeEach(const RowLayout& layout,
                                             const std::vector<RowVec>& rows) {
  std::vector<std::vector<uint8_t>> out;
  for (const RowVec& row : rows) {
    out.emplace_back(*layout.ComputeRowSize(row));
    layout.EncodeRow(row, out.back().data(), PackedRowPtr::Null());
  }
  return out;
}

/// Same shape, values, null bitmaps and ByteSize(), column by column.
void ExpectSameChunk(const ColumnarChunk& want, const ColumnarChunk& got) {
  ASSERT_EQ(want.num_columns(), got.num_columns());
  EXPECT_EQ(want.num_rows(), got.num_rows());
  EXPECT_EQ(want.ByteSize(), got.ByteSize());
  for (size_t c = 0; c < want.num_columns(); ++c) {
    const ColumnVector& w = want.column(c);
    const ColumnVector& g = got.column(c);
    ASSERT_EQ(w.size(), g.size()) << "column " << c;
    EXPECT_EQ(w.null_bitmap(), g.null_bitmap()) << "column " << c;
    EXPECT_EQ(w.ByteSize(), g.ByteSize()) << "column " << c;
    for (size_t i = 0; i < w.size(); ++i) {
      ASSERT_EQ(w.IsNull(i), g.IsNull(i)) << "column " << c << " row " << i;
      EXPECT_EQ(w.ValueAt(i).ToString(), g.ValueAt(i).ToString())
          << "column " << c << " row " << i;
    }
  }
}

/// Runs of 0, 1 and many rows; "many" spans several transcoding blocks.
const size_t kRunSizes[] = {0, 1, 2 * kTranscodeBlockRows + 37};

// ---- encoder ----------------------------------------------------------------

TEST(TranscodeTest, EncodeMatchesPerRowEncoder) {
  const SchemaPtr schema = WideSchema();
  const RowLayout layout(schema);
  for (size_t n : kRunSizes) {
    const auto chunk = MakeChunk(schema, MakeRows(*schema, n, 7 + n));
    // Every row in order, then every third row backwards.
    std::vector<uint32_t> all(n);
    for (size_t i = 0; i < n; ++i) all[i] = static_cast<uint32_t>(i);
    std::vector<uint32_t> some;
    for (size_t i = n; i-- > 0;) {
      if (i % 3 == 0) some.push_back(static_cast<uint32_t>(i));
    }
    for (const std::vector<uint32_t>* sel : {&all, &some}) {
      std::vector<std::vector<uint8_t>> got;
      std::vector<size_t> order;
      ASSERT_TRUE(ForEachEncodedRow(*chunk, *sel, layout,
                                    [&](size_t k, const uint8_t* row,
                                        uint32_t size) {
                                      order.push_back(k);
                                      got.emplace_back(row, row + size);
                                    })
                      .ok());
      ASSERT_EQ(got.size(), sel->size()) << "n=" << n;
      for (size_t k = 0; k < sel->size(); ++k) {
        EXPECT_EQ(order[k], k);
        auto want = ReferenceEncode(*chunk, layout, (*sel)[k]);
        ASSERT_TRUE(want.ok());
        ASSERT_EQ(*want, got[k]) << "n=" << n << " row " << (*sel)[k];
      }
    }
  }
}

TEST(TranscodeTest, FixedWidthEncodeMatchesPerRowEncoder) {
  // Without strings the encoder sizes every row as the fixed section. The
  // nullable columns hold nulls, except "f", whose null bitmap stays empty.
  const SchemaPtr schema = FixedSchema();
  const RowLayout layout(schema);
  for (size_t n : kRunSizes) {
    std::vector<RowVec> rows = MakeRows(*schema, n, 13 + n);
    for (RowVec& row : rows) {
      if (row[4].is_null()) row[4] = Value::Float64(0.5);
    }
    const auto chunk = MakeChunk(schema, rows);
    EXPECT_TRUE(chunk->column(4).null_bitmap().empty());
    if (n > 1) {
      EXPECT_FALSE(chunk->column(1).null_bitmap().empty());
    }
    std::vector<uint32_t> sel;
    for (size_t i = n; i-- > 0;) sel.push_back(static_cast<uint32_t>(i));
    std::vector<uint8_t> got = {9, 9};  // replaced, not appended to
    ASSERT_TRUE(chunk->EncodeRows(sel, layout, got).ok());
    std::vector<uint8_t> want;
    for (uint32_t i : sel) {
      auto row = ReferenceEncode(*chunk, layout, i);
      ASSERT_TRUE(row.ok());
      EXPECT_EQ(row->size(), layout.fixed_size());
      want.insert(want.end(), row->begin(), row->end());
    }
    EXPECT_EQ(want, got) << "n=" << n;
  }
}

TEST(TranscodeTest, FixedWidthEncodeRejectsNullInNotNullField) {
  // The chunk allows nulls in "v"; the layout it is encoded with does not.
  const auto nullable = std::make_shared<Schema>(Schema({
      {"k", TypeId::kInt32, true},
      {"v", TypeId::kInt64, true},
  }));
  const auto strict = std::make_shared<Schema>(Schema({
      {"k", TypeId::kInt32, true},
      {"v", TypeId::kInt64, false},
  }));
  const RowLayout layout(strict);
  const auto chunk = MakeChunk(
      nullable, {{Value::Int32(1), Value::Int64(10)},
                 {Value::Null(TypeId::kInt32), Value::Null(TypeId::kInt64)}});
  const auto want = ReferenceEncode(*chunk, layout, 1);
  ASSERT_FALSE(want.ok());

  const std::vector<uint32_t> sel = {0, 1};
  std::vector<uint8_t> out;
  const Status got = chunk->EncodeRows(sel, layout, out);
  EXPECT_EQ(got.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(got.ToString(), want.status().ToString());
  const std::vector<uint32_t> first = {0};
  EXPECT_TRUE(chunk->EncodeRows(first, layout, out).ok());
  auto row = ReferenceEncode(*chunk, layout, 0);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(*row, out);
}

TEST(TranscodeTest, EncodeRowsWritesRowsBackToBack) {
  const SchemaPtr schema = WideSchema();
  const RowLayout layout(schema);
  const auto chunk = MakeChunk(schema, MakeRows(*schema, 50, 3));
  const std::vector<uint32_t> sel = {4, 0, 49, 17, 17};
  std::vector<uint8_t> got = {1, 2, 3};  // replaced, not appended to
  ASSERT_TRUE(chunk->EncodeRows(sel, layout, got).ok());
  std::vector<uint8_t> want;
  for (uint32_t i : sel) {
    auto row = ReferenceEncode(*chunk, layout, i);
    ASSERT_TRUE(row.ok());
    want.insert(want.end(), row->begin(), row->end());
  }
  EXPECT_EQ(want, got);
}

TEST(TranscodeTest, EncodeRejectsNullInNotNullField) {
  // The chunk allows nulls in "name"; the layout it is encoded with does not.
  const SchemaPtr nullable = NarrowSchema();
  const auto strict = std::make_shared<Schema>(Schema({
      {"k", TypeId::kInt32, true},
      {"name", TypeId::kString, false},
  }));
  const RowLayout layout(strict);
  const auto chunk = MakeChunk(
      nullable, {{Value::Int32(1), Value::String("x")},
                 {Value::Int32(2), Value::Null(TypeId::kString)}});
  const auto want = ReferenceEncode(*chunk, layout, 1);
  ASSERT_FALSE(want.ok());

  const std::vector<uint32_t> sel = {0, 1};
  std::vector<uint8_t> out;
  const Status got = chunk->EncodeRows(sel, layout, out);
  EXPECT_EQ(got.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(got.ToString(), want.status().ToString());
  // The row without the null still encodes.
  const std::vector<uint32_t> first = {0};
  EXPECT_TRUE(chunk->EncodeRows(first, layout, out).ok());
}

TEST(TranscodeTest, EncodeRejectsRowOverTheBound) {
  // 600 + 450 string bytes fit each column but not one row.
  const auto schema = std::make_shared<Schema>(Schema({
      {"a", TypeId::kString, false},
      {"b", TypeId::kString, true},
  }));
  const RowLayout layout(schema);
  const auto chunk = MakeChunk(
      schema, {{Value::String("small"), Value::String("")},
               {Value::String(std::string(600, 'a')),
                Value::String(std::string(450, 'b'))},
               {Value::String(std::string(600, 'a')),
                Value::Null(TypeId::kString)}});
  const auto want = ReferenceEncode(*chunk, layout, 1);
  ASSERT_FALSE(want.ok());

  const std::vector<uint32_t> sel = {0, 1, 2};
  std::vector<uint8_t> out;
  const Status got = chunk->EncodeRows(sel, layout, out);
  EXPECT_EQ(got.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(got.ToString(), want.status().ToString());

  // Through the block driver the error stops the run.
  size_t emitted = 0;
  EXPECT_FALSE(ForEachEncodedRow(*chunk, sel, layout,
                                 [&](size_t, const uint8_t*, uint32_t) {
                                   ++emitted;
                                 })
                   .ok());
  EXPECT_EQ(emitted, 0u);
  const std::vector<uint32_t> fits = {0, 2};
  EXPECT_TRUE(chunk->EncodeRows(fits, layout, out).ok());
}

// ---- decoder ----------------------------------------------------------------

TEST(TranscodeTest, DecodeMatchesPerRowDecoder) {
  const SchemaPtr schema = WideSchema();
  const RowLayout layout(schema);
  for (size_t n : kRunSizes) {
    const auto encoded = EncodeEach(layout, MakeRows(*schema, n, 11 + n));
    std::vector<const uint8_t*> rows;
    for (const auto& row : encoded) rows.push_back(row.data());

    ColumnarChunk want(schema);
    for (const uint8_t* row : rows) ReferenceDecode(want, 0, layout, row);
    want.SetRowCount(n);
    ColumnarChunk got(schema);
    DecodeRows(layout, rows, AllFields(layout.schema()), got, 0);
    got.SetRowCount(n);
    ExpectSameChunk(want, got);
  }
}

TEST(TranscodeTest, DecodeJoinedSidesWithNullPadding) {
  // left ++ right, as a join emits them: the right side is sometimes a
  // null row (left-outer padding), and both sides land at their offsets.
  const SchemaPtr left = WideSchema();
  const SchemaPtr right = NarrowSchema();
  const RowLayout llayout(left);
  const RowLayout rlayout(right);
  const auto out_schema =
      std::make_shared<Schema>(left->ConcatForJoin(*right));
  for (size_t n : kRunSizes) {
    const auto lencoded = EncodeEach(llayout, MakeRows(*left, n, 5 + n));
    const auto rencoded = EncodeEach(rlayout, MakeRows(*right, n, 9 + n));
    std::vector<const uint8_t*> lrows;
    std::vector<const uint8_t*> rrows;
    for (size_t i = 0; i < n; ++i) {
      lrows.push_back(lencoded[i].data());
      rrows.push_back(i % 5 == 2 ? nullptr : rencoded[i].data());
    }

    ColumnarChunk want(out_schema);
    for (size_t i = 0; i < n; ++i) {
      ReferenceDecode(want, 0, llayout, lrows[i]);
      ReferenceDecode(want, left->num_fields(), rlayout, rrows[i]);
    }
    want.SetRowCount(n);

    ColumnarChunk got(out_schema);
    DecodeRows(llayout, lrows, AllFields(llayout.schema()), got, 0);
    DecodeRows(rlayout, rrows, AllFields(rlayout.schema()), got,
               left->num_fields());
    got.SetRowCount(n);
    ExpectSameChunk(want, got);

    // The pair decoder emits blocks of at most kTranscodeBlockRows rows;
    // appended back to back they are the chunk decoded in one go.
    std::vector<ChunkPtr> blocks;
    const std::vector<size_t> lfields = AllFields(*left);
    const std::vector<size_t> rfields = AllFields(*right);
    JoinedRowDecoder decoder(llayout, lfields, rlayout, rfields, out_schema,
                             [&](std::shared_ptr<ColumnarChunk> block) {
                               EXPECT_GT(block->num_rows(), 0u);
                               EXPECT_LE(block->num_rows(), kTranscodeBlockRows);
                               blocks.push_back(std::move(block));
                             });
    for (size_t i = 0; i < n; ++i) decoder.Add(lrows[i], rrows[i]);
    decoder.Flush();
    ColumnarChunk paired(out_schema);
    AppendChunks(blocks, paired);
    ExpectSameChunk(want, paired);
  }
}

// ---- gather -----------------------------------------------------------------

TEST(TranscodeTest, GatherMatchesPerRowCopy) {
  const SchemaPtr schema = WideSchema();
  for (size_t n : kRunSizes) {
    std::vector<ChunkPtr> sources;
    for (uint32_t s = 0; s < 3; ++s) {
      sources.push_back(MakeChunk(schema, MakeRows(*schema, 40 + s, 20 + s)));
    }
    // Refs across the sources in a scrambled order, repeats included.
    std::mt19937 rng(static_cast<uint32_t>(n));
    std::vector<RowRef> refs;
    for (size_t i = 0; i < n; ++i) {
      const uint32_t chunk = rng() % 3;
      refs.push_back(
          {chunk, static_cast<uint32_t>(rng() % sources[chunk]->num_rows())});
    }

    ColumnarChunk want(schema);
    for (const RowRef& ref : refs) {
      ReferenceCopy(want, 0, sources[ref.chunk].get(), ref.row,
                    schema->num_fields());
    }
    want.SetRowCount(n);
    ColumnarChunk got(schema);
    GatherRows(sources, refs, AllFields(*schema), got, 0);
    got.SetRowCount(n);
    ExpectSameChunk(want, got);
  }
}

TEST(TranscodeTest, GatherPadsNullRefsAtAnOffset) {
  // probe ++ build, as the broadcast-hash left-outer join emits them.
  const SchemaPtr probe_schema = NarrowSchema();
  const SchemaPtr build_schema = WideSchema();
  const auto out_schema =
      std::make_shared<Schema>(probe_schema->ConcatForJoin(*build_schema));
  const std::vector<ChunkPtr> probe = {
      MakeChunk(probe_schema, MakeRows(*probe_schema, 30, 1))};
  const std::vector<ChunkPtr> build = {
      MakeChunk(build_schema, MakeRows(*build_schema, 10, 2)),
      MakeChunk(build_schema, MakeRows(*build_schema, 12, 3))};
  std::vector<RowRef> probe_refs;
  std::vector<RowRef> build_refs;
  for (uint32_t i = 0; i < 30; ++i) {
    probe_refs.push_back({0, 29 - i});
    build_refs.push_back(i % 4 == 1 ? RowRef{RowRef::kNull, 0}
                                    : RowRef{i % 2, i % 10});
  }

  ColumnarChunk want(out_schema);
  for (size_t i = 0; i < probe_refs.size(); ++i) {
    ReferenceCopy(want, 0, probe[0].get(), probe_refs[i].row,
                  probe_schema->num_fields());
    const RowRef& b = build_refs[i];
    ReferenceCopy(want, probe_schema->num_fields(),
                  b.chunk == RowRef::kNull ? nullptr : build[b.chunk].get(),
                  b.row, build_schema->num_fields());
  }
  want.SetRowCount(probe_refs.size());

  ColumnarChunk got(out_schema);
  GatherRows(probe, probe_refs, AllFields(*probe_schema), got, 0);
  GatherRows(build, build_refs, AllFields(*build_schema), got,
             probe_schema->num_fields());
  got.SetRowCount(probe_refs.size());
  ExpectSameChunk(want, got);
}

// ---- round trip -------------------------------------------------------------

TEST(TranscodeTest, EncodeThenDecodeRestoresTheChunk) {
  const SchemaPtr schema = WideSchema();
  const RowLayout layout(schema);
  const size_t n = kTranscodeBlockRows + 5;
  const auto chunk = MakeChunk(schema, MakeRows(*schema, n, 42));
  std::vector<uint32_t> sel(n);
  for (size_t i = 0; i < n; ++i) sel[i] = static_cast<uint32_t>(i);
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(chunk->EncodeRows(sel, layout, bytes).ok());
  std::vector<const uint8_t*> rows;
  ASSERT_TRUE(RowLayout::SplitRows(bytes.data(), bytes.size(), rows));
  ColumnarChunk back(schema);
  DecodeRows(layout, rows, AllFields(layout.schema()), back, 0);
  back.SetRowCount(rows.size());
  ExpectSameChunk(*chunk, back);
}

// ---- key equality on columns ------------------------------------------------

TEST(ColumnKeysEqualTest, IsValueEqualityOnEveryPair) {
  // The broadcast-hash probe verifies candidates with the column KeysEqual;
  // it must answer exactly what `==` on the two boxed values does.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const int64_t two53 = int64_t{1} << 53;
  const std::vector<Value> grid = {
      Value::Int32(7),         Value::Int32(-7),
      Value::Int64(7),         Value::Int64(two53),
      Value::Int64(two53 + 1), Value::Float64(static_cast<double>(two53)),
      Value::Float64(7.0),     Value::Float64(nan),
      Value::Float64(0.0),     Value::Float64(-0.0),
      Value::Bool(true),       Value::Bool(false),
      Value::String(""),       Value::String(std::string("a\0b", 3)),
      Value::String("a"),      Value::String("7"),
      Value::Null(TypeId::kInt64), Value::Null(TypeId::kString),
  };
  // Each key is row 1 of its column, behind a first row of its type.
  std::vector<ColumnVector> columns;
  for (const Value& key : grid) {
    ColumnVector column(key.type());
    column.AppendNull();
    column.AppendValue(key);
    columns.push_back(std::move(column));
  }
  for (size_t i = 0; i < grid.size(); ++i) {
    for (size_t j = 0; j < grid.size(); ++j) {
      EXPECT_EQ(KeysEqual(columns[i], 1, columns[j], 1), grid[i] == grid[j])
          << grid[i].ToString() << " vs " << grid[j].ToString();
    }
  }
}

}  // namespace
}  // namespace idf
