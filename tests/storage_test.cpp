// Tests for the storage layer: packed pointers, binary row layout, row
// batches, and the COW-versioned PartitionStore.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "storage/packed_ptr.h"
#include "storage/partition_store.h"
#include "storage/row_batch.h"
#include "storage/row_layout.h"

namespace idf {
namespace {

// ---- PackedRowPtr ----------------------------------------------------------

TEST(PackedRowPtrTest, DefaultIsNull) {
  PackedRowPtr p;
  EXPECT_TRUE(p.is_null());
  EXPECT_EQ(p, PackedRowPtr::Null());
}

TEST(PackedRowPtrTest, FieldsRoundTrip) {
  PackedRowPtr p = PackedRowPtr::Make(123, 456789, 1000);
  EXPECT_FALSE(p.is_null());
  EXPECT_EQ(p.batch(), 123u);
  EXPECT_EQ(p.offset(), 456789u);
  EXPECT_EQ(p.prev_size(), 1000u);
}

TEST(PackedRowPtrTest, ExtremesRoundTrip) {
  PackedRowPtr p = PackedRowPtr::Make(
      PackedRowPtr::kMaxBatch - 1, PackedRowPtr::kMaxOffset,
      PackedRowPtr::kMaxPrevSize);
  EXPECT_EQ(p.batch(), PackedRowPtr::kMaxBatch - 1);
  EXPECT_EQ(p.offset(), PackedRowPtr::kMaxOffset);
  EXPECT_EQ(p.prev_size(), PackedRowPtr::kMaxPrevSize);
  PackedRowPtr zero = PackedRowPtr::Make(0, 0, 0);
  EXPECT_EQ(zero.batch(), 0u);
  EXPECT_EQ(zero.offset(), 0u);
  EXPECT_EQ(zero.prev_size(), 0u);
  EXPECT_FALSE(zero.is_null());
}

TEST(PackedRowPtrTest, BitsRoundTrip) {
  PackedRowPtr p = PackedRowPtr::Make(7, 42, 99);
  PackedRowPtr q = PackedRowPtr::FromBits(p.bits());
  EXPECT_EQ(p, q);
}

// Property sweep: random triples survive pack/unpack.
class PackedPtrPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PackedPtrPropertyTest, RandomTriplesRoundTrip) {
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    const uint32_t batch =
        static_cast<uint32_t>(rng.Below(PackedRowPtr::kMaxBatch));
    const uint32_t offset =
        static_cast<uint32_t>(rng.Below(PackedRowPtr::kMaxOffset + 1));
    const uint32_t prev =
        static_cast<uint32_t>(rng.Below(PackedRowPtr::kMaxPrevSize + 1));
    PackedRowPtr p = PackedRowPtr::Make(batch, offset, prev);
    EXPECT_EQ(p.batch(), batch);
    EXPECT_EQ(p.offset(), offset);
    EXPECT_EQ(p.prev_size(), prev);
    EXPECT_FALSE(p.is_null());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackedPtrPropertyTest,
                         ::testing::Values(1, 2, 3));

// ---- RowLayout ---------------------------------------------------------------

SchemaPtr MixedSchema() {
  return std::make_shared<Schema>(Schema({
      {"id", TypeId::kInt64, false},
      {"flag", TypeId::kBool, true},
      {"name", TypeId::kString, true},
      {"score", TypeId::kFloat64, true},
      {"count", TypeId::kInt32, true},
      {"tag", TypeId::kString, true},
  }));
}

RowVec MixedRow() {
  return {Value::Int64(42),       Value::Bool(true), Value::String("hello"),
          Value::Float64(2.5),    Value::Int32(-7),  Value::String("world!")};
}

TEST(RowLayoutTest, EncodeDecodeRoundTrip) {
  RowLayout layout(MixedSchema());
  RowVec row = MixedRow();
  auto size = layout.ComputeRowSize(row);
  ASSERT_TRUE(size.ok());
  std::vector<uint8_t> buf(*size);
  layout.EncodeRow(row, buf.data(), PackedRowPtr::Null());

  RowVec decoded = layout.DecodeRow(buf.data());
  ASSERT_EQ(decoded.size(), row.size());
  EXPECT_EQ(decoded[0], Value::Int64(42));
  EXPECT_EQ(decoded[1], Value::Bool(true));
  EXPECT_EQ(decoded[2], Value::String("hello"));
  EXPECT_EQ(decoded[3], Value::Float64(2.5));
  EXPECT_EQ(decoded[4], Value::Int32(-7));
  EXPECT_EQ(decoded[5], Value::String("world!"));
}

TEST(RowLayoutTest, ZeroCopyAccessors) {
  RowLayout layout(MixedSchema());
  RowVec row = MixedRow();
  std::vector<uint8_t> buf(*layout.ComputeRowSize(row));
  layout.EncodeRow(row, buf.data(), PackedRowPtr::Null());

  EXPECT_EQ(layout.GetInt64(buf.data(), 0), 42);
  EXPECT_TRUE(layout.GetBool(buf.data(), 1));
  EXPECT_EQ(layout.GetString(buf.data(), 2), "hello");
  EXPECT_DOUBLE_EQ(layout.GetFloat64(buf.data(), 3), 2.5);
  EXPECT_EQ(layout.GetInt32(buf.data(), 4), -7);
  EXPECT_EQ(layout.GetString(buf.data(), 5), "world!");
  for (size_t c = 0; c < 6; ++c) EXPECT_FALSE(layout.IsNull(buf.data(), c));
}

TEST(RowLayoutTest, NullsRoundTrip) {
  RowLayout layout(MixedSchema());
  RowVec row{Value::Int64(1),           Value::Null(TypeId::kBool),
             Value::Null(TypeId::kString), Value::Null(TypeId::kFloat64),
             Value::Null(TypeId::kInt32),  Value::String("t")};
  std::vector<uint8_t> buf(*layout.ComputeRowSize(row));
  layout.EncodeRow(row, buf.data(), PackedRowPtr::Null());

  EXPECT_FALSE(layout.IsNull(buf.data(), 0));
  EXPECT_TRUE(layout.IsNull(buf.data(), 1));
  EXPECT_TRUE(layout.IsNull(buf.data(), 2));
  EXPECT_TRUE(layout.IsNull(buf.data(), 3));
  EXPECT_TRUE(layout.IsNull(buf.data(), 4));
  EXPECT_FALSE(layout.IsNull(buf.data(), 5));
  RowVec decoded = layout.DecodeRow(buf.data());
  EXPECT_TRUE(decoded[1].is_null());
  EXPECT_TRUE(decoded[2].is_null());
  EXPECT_EQ(decoded[5], Value::String("t"));
}

TEST(RowLayoutTest, BackPtrHeader) {
  RowLayout layout(MixedSchema());
  RowVec row = MixedRow();
  std::vector<uint8_t> buf(*layout.ComputeRowSize(row));
  PackedRowPtr back = PackedRowPtr::Make(3, 1024, 96);
  layout.EncodeRow(row, buf.data(), back);
  EXPECT_EQ(RowLayout::BackPtr(buf.data()), back);
  PackedRowPtr other = PackedRowPtr::Make(9, 2048, 128);
  RowLayout::SetBackPtr(buf.data(), other);
  EXPECT_EQ(RowLayout::BackPtr(buf.data()), other);
}

TEST(RowLayoutTest, RowSizeHeaderMatches) {
  RowLayout layout(MixedSchema());
  RowVec row = MixedRow();
  auto size = layout.ComputeRowSize(row);
  std::vector<uint8_t> buf(*size);
  layout.EncodeRow(row, buf.data(), PackedRowPtr::Null());
  EXPECT_EQ(RowLayout::RowSize(buf.data()), *size);
}

TEST(RowLayoutTest, EmptyStringsSupported) {
  RowLayout layout(MixedSchema());
  RowVec row{Value::Int64(1), Value::Bool(false), Value::String(""),
             Value::Float64(0), Value::Int32(0), Value::String("")};
  std::vector<uint8_t> buf(*layout.ComputeRowSize(row));
  layout.EncodeRow(row, buf.data(), PackedRowPtr::Null());
  EXPECT_EQ(layout.GetString(buf.data(), 2), "");
  EXPECT_EQ(layout.GetString(buf.data(), 5), "");
}

TEST(RowLayoutTest, OversizeRowRejected) {
  RowLayout layout(MixedSchema());
  RowVec row{Value::Int64(1),   Value::Bool(false),
             Value::String(std::string(2000, 'x')),
             Value::Float64(0), Value::Int32(0),
             Value::String("")};
  auto size = layout.ComputeRowSize(row);
  EXPECT_EQ(size.status().code(), StatusCode::kInvalidArgument);
}

TEST(RowLayoutTest, WrongArityRejected) {
  RowLayout layout(MixedSchema());
  auto size = layout.ComputeRowSize({Value::Int64(1)});
  EXPECT_FALSE(size.ok());
}

TEST(RowLayoutTest, KeyCodeMatchesValueCode) {
  // The stored row's key code must equal IndexKeyCode of the lookup Value —
  // this is the contract that makes getRows(key) find appended rows.
  RowLayout layout(MixedSchema());
  RowVec row = MixedRow();
  std::vector<uint8_t> buf(*layout.ComputeRowSize(row));
  layout.EncodeRow(row, buf.data(), PackedRowPtr::Null());

  EXPECT_EQ(layout.KeyCode(buf.data(), 0), IndexKeyCode(Value::Int64(42)));
  EXPECT_EQ(layout.KeyCode(buf.data(), 2),
            IndexKeyCode(Value::String("hello")));
  EXPECT_EQ(layout.KeyCode(buf.data(), 3), IndexKeyCode(Value::Float64(2.5)));
  EXPECT_EQ(layout.KeyCode(buf.data(), 4), IndexKeyCode(Value::Int32(-7)));
}

TEST(RowLayoutTest, Int32AndInt64KeyCodesAgreeOnSameValue) {
  // TPC-DS joins int32 ss_sold_date_sk against int64 d_date_sk analogues;
  // key codes must be numeric-value based, not type based.
  EXPECT_EQ(IndexKeyCode(Value::Int32(12345)), IndexKeyCode(Value::Int64(12345)));
  EXPECT_EQ(IndexKeyCode(Value::Int32(-5)), IndexKeyCode(Value::Int64(-5)));
}

TEST(RowLayoutTest, IntegralDoublesCodeAsTheirInteger) {
  // An integral double codes as the equal integer, so a mixed numeric probe
  // or join meets its match; every other double hashes.
  EXPECT_EQ(IndexKeyCode(Value::Float64(3.0)), IndexKeyCode(Value::Int64(3)));
  EXPECT_EQ(IndexKeyCode(Value::Float64(-7.0)), IndexKeyCode(Value::Int32(-7)));
  EXPECT_EQ(IndexKeyCode(Value::Float64(1.0)), IndexKeyCode(Value::Bool(true)));
  EXPECT_EQ(DoubleKeyCode(-0.0), 0u);
  EXPECT_EQ(DoubleKeyCode(0.0), 0u);
  EXPECT_EQ(DoubleKeyCode(-9223372036854775808.0),
            static_cast<uint64_t>(std::numeric_limits<int64_t>::min()));
  for (const double v : {0.5, -2.25, 9223372036854775808.0, 1e300,
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(DoubleKeyCode(v), HashDouble(v)) << v;
  }
  EXPECT_EQ(DoubleKeyCode(std::nan("")), HashDouble(std::nan("")));
}

TEST(RowLayoutTest, KeyCodeNeedsVerifyOnlyForInexactTypes) {
  EXPECT_FALSE(KeyCodeNeedsVerify(TypeId::kInt32));
  EXPECT_FALSE(KeyCodeNeedsVerify(TypeId::kInt64));
  EXPECT_FALSE(KeyCodeNeedsVerify(TypeId::kBool));
  EXPECT_TRUE(KeyCodeNeedsVerify(TypeId::kString));
  EXPECT_TRUE(KeyCodeNeedsVerify(TypeId::kFloat64));
}

TEST(RowLayoutTest, KeysEqualIsValueEqualityOnEveryPair) {
  // KeysEqual must answer exactly what `==` on the two boxed GetValues does,
  // for every pair across types: the reference is Value::operator==.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const int64_t two53 = int64_t{1} << 53;
  const std::vector<Value> grid = {
      Value::Int32(7),
      Value::Int32(-7),
      Value::Int32(0),
      Value::Int64(7),
      Value::Int64(-7),
      Value::Int64(two53 - 1),
      Value::Int64(two53),
      Value::Int64(two53 + 1),
      Value::Float64(static_cast<double>(two53 - 1)),
      Value::Float64(static_cast<double>(two53)),
      Value::Float64(7.0),
      Value::Float64(nan),
      Value::Float64(0.0),
      Value::Float64(-0.0),
      Value::Bool(true),
      Value::Bool(false),
      Value::String(""),
      Value::String(std::string("a\0b", 3)),
      Value::String("a"),
      Value::String("7"),
      Value::Null(TypeId::kInt64),
      Value::Null(TypeId::kString),
  };
  // Each key sits behind a string column, so its slot and any string bytes
  // are at a nonzero offset.
  struct Encoded {
    RowLayout layout;
    std::vector<uint8_t> row;
  };
  std::vector<Encoded> encoded;
  for (const Value& key : grid) {
    RowLayout layout(std::make_shared<Schema>(Schema({
        {"pad", TypeId::kString, false},
        {"k", key.type(), true},
    })));
    const RowVec row{Value::String("pad"), key};
    std::vector<uint8_t> buf(*layout.ComputeRowSize(row));
    layout.EncodeRow(row, buf.data(), PackedRowPtr::Null());
    encoded.push_back({std::move(layout), std::move(buf)});
  }
  for (const Encoded& a : encoded) {
    for (const Encoded& b : encoded) {
      const Value av = a.layout.GetValue(a.row.data(), 1);
      const Value bv = b.layout.GetValue(b.row.data(), 1);
      EXPECT_EQ(KeysEqual(a.layout, a.row.data(), 1, b.layout, b.row.data(), 1),
                av == bv)
          << av.ToString() << " vs " << bv.ToString();
    }
  }
  // The rules the reference encodes, spelled out.
  auto keys_equal = [&](size_t i, size_t j) {
    return KeysEqual(encoded[i].layout, encoded[i].row.data(), 1,
                     encoded[j].layout, encoded[j].row.data(), 1);
  };
  EXPECT_TRUE(keys_equal(0, 3));     // int32 7 == int64 7
  EXPECT_TRUE(keys_equal(7, 9));     // 2^53 + 1 widens to 2^53
  EXPECT_FALSE(keys_equal(5, 6));    // int64 compares exactly
  EXPECT_FALSE(keys_equal(11, 11));  // NaN matches nothing
  EXPECT_TRUE(keys_equal(12, 13));   // -0.0 == +0.0
  EXPECT_FALSE(keys_equal(17, 18));  // the NUL byte counts
  EXPECT_FALSE(keys_equal(19, 0));   // "7" is not 7
  EXPECT_FALSE(keys_equal(20, 20));  // NULL matches nothing
}

// Property test: random schemas, random rows, round-trip.
class RowLayoutPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RowLayoutPropertyTest, RandomRowsRoundTrip) {
  Rng rng(GetParam());
  static const TypeId kTypes[] = {TypeId::kBool, TypeId::kInt32,
                                  TypeId::kInt64, TypeId::kFloat64,
                                  TypeId::kString};
  for (int trial = 0; trial < 50; ++trial) {
    const size_t nfields = 1 + rng.Below(12);
    std::vector<Field> fields;
    for (size_t i = 0; i < nfields; ++i) {
      fields.push_back({"c" + std::to_string(i),
                        kTypes[rng.Below(5)], true});
    }
    auto schema = std::make_shared<Schema>(Schema(fields));
    RowLayout layout(schema);

    for (int r = 0; r < 20; ++r) {
      RowVec row;
      for (size_t i = 0; i < nfields; ++i) {
        if (rng.Chance(0.15)) {
          row.push_back(Value::Null(fields[i].type));
          continue;
        }
        switch (fields[i].type) {
          case TypeId::kBool: row.push_back(Value::Bool(rng.Chance(0.5))); break;
          case TypeId::kInt32:
            row.push_back(Value::Int32(static_cast<int32_t>(rng.Next())));
            break;
          case TypeId::kInt64:
            row.push_back(Value::Int64(static_cast<int64_t>(rng.Next())));
            break;
          case TypeId::kFloat64:
            row.push_back(Value::Float64(rng.NextDouble() * 1e6));
            break;
          case TypeId::kString:
            row.push_back(Value::String(rng.NextString(rng.Below(40))));
            break;
        }
      }
      auto size = layout.ComputeRowSize(row);
      ASSERT_TRUE(size.ok());
      std::vector<uint8_t> buf(*size);
      layout.EncodeRow(row, buf.data(), PackedRowPtr::Null());
      RowVec decoded = layout.DecodeRow(buf.data());
      ASSERT_EQ(decoded.size(), row.size());
      for (size_t i = 0; i < row.size(); ++i) {
        if (row[i].is_null()) {
          EXPECT_TRUE(decoded[i].is_null());
        } else {
          EXPECT_EQ(decoded[i], row[i]) << "field " << i;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RowLayoutPropertyTest,
                         ::testing::Values(11, 22, 33, 44));

// ---- RowBatch -----------------------------------------------------------------

TEST(RowBatchTest, AllocateBumpsOffsets) {
  auto batch = RowBatch::Create(1024);
  auto a = batch->Allocate(100);
  auto b = batch->Allocate(200);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, 0u);
  EXPECT_EQ(*b, 100u);
  EXPECT_EQ(batch->used(), 300u);
  EXPECT_EQ(batch->remaining(), 724u);
  EXPECT_EQ(batch->num_rows(), 2u);
}

TEST(RowBatchTest, FullBatchRejectsAllocation) {
  auto batch = RowBatch::Create(128);
  ASSERT_TRUE(batch->Allocate(128).ok());
  auto r = batch->Allocate(1);
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(RowBatchTest, CloneCopiesPrefix) {
  auto batch = RowBatch::Create(256);
  auto off = batch->Allocate(8);
  std::memcpy(batch->MutableData() + *off, "abcdefgh", 8);
  auto clone = batch->Clone();
  EXPECT_EQ(clone->used(), batch->used());
  EXPECT_EQ(clone->num_rows(), batch->num_rows());
  EXPECT_EQ(std::memcmp(clone->data(), batch->data(), 8), 0);
  // Mutating the clone leaves the original untouched.
  clone->MutableData()[0] = 'z';
  EXPECT_EQ(batch->data()[0], 'a');
}

// ---- PartitionStore -------------------------------------------------------------

SchemaPtr EdgeSchema() {
  return std::make_shared<Schema>(Schema({
      {"src", TypeId::kInt64, false},
      {"dst", TypeId::kInt64, false},
      {"weight", TypeId::kFloat64, true},
  }));
}

RowVec Edge(int64_t src, int64_t dst, double w) {
  return {Value::Int64(src), Value::Int64(dst), Value::Float64(w)};
}

TEST(PartitionStoreTest, AppendAndRead) {
  RowLayout layout(EdgeSchema());
  PartitionStore store(4096);
  auto p1 = store.AppendRow(layout, Edge(1, 2, 0.5), PackedRowPtr::Null());
  ASSERT_TRUE(p1.ok());
  auto p2 = store.AppendRow(layout, Edge(3, 4, 1.5), PackedRowPtr::Null());
  ASSERT_TRUE(p2.ok());

  const uint8_t* r1 = store.RowAt(*p1);
  EXPECT_EQ(layout.GetInt64(r1, 0), 1);
  EXPECT_EQ(layout.GetInt64(r1, 1), 2);
  const uint8_t* r2 = store.RowAt(*p2);
  EXPECT_EQ(layout.GetInt64(r2, 0), 3);
  EXPECT_EQ(store.num_rows(), 2u);
  EXPECT_EQ(store.num_batches(), 1u);
}

TEST(PartitionStoreTest, BackwardChainAcrossAppends) {
  RowLayout layout(EdgeSchema());
  PartitionStore store(4096);
  auto p1 = store.AppendRow(layout, Edge(7, 1, 0), PackedRowPtr::Null());
  auto p2 = store.AppendRow(layout, Edge(7, 2, 0), *p1);
  auto p3 = store.AppendRow(layout, Edge(7, 3, 0), *p2);
  ASSERT_TRUE(p3.ok());

  // Walk the chain newest -> oldest via back pointers.
  const uint8_t* r3 = store.RowAt(*p3);
  EXPECT_EQ(layout.GetInt64(r3, 1), 3);
  PackedRowPtr back = RowLayout::BackPtr(r3);
  EXPECT_EQ(back, *p2);
  const uint8_t* r2 = store.RowAt(back);
  EXPECT_EQ(layout.GetInt64(r2, 1), 2);
  back = RowLayout::BackPtr(r2);
  EXPECT_EQ(back, *p1);
  const uint8_t* r1 = store.RowAt(back);
  EXPECT_EQ(layout.GetInt64(r1, 1), 1);
  EXPECT_TRUE(RowLayout::BackPtr(r1).is_null());

  // prev_size of p3's pointer equals p2's row size (paper's packed layout).
  EXPECT_EQ(p3->prev_size(), RowLayout::RowSize(r2));
  EXPECT_EQ(p1->prev_size(), 0u);
}

TEST(PartitionStoreTest, RollsOverToNewBatches) {
  RowLayout layout(EdgeSchema());
  PartitionStore store(1200);  // tiny batches force rollover
  std::vector<PackedRowPtr> ptrs;
  for (int i = 0; i < 100; ++i) {
    auto p = store.AppendRow(layout, Edge(i, i, 0), PackedRowPtr::Null());
    ASSERT_TRUE(p.ok());
    ptrs.push_back(*p);
  }
  EXPECT_GT(store.num_batches(), 1u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(layout.GetInt64(store.RowAt(ptrs[i]), 0), i);
  }
}

TEST(PartitionStoreTest, SnapshotIsolatesAppends) {
  RowLayout layout(EdgeSchema());
  PartitionStore store(4096);
  auto p1 = store.AppendRow(layout, Edge(1, 1, 0), PackedRowPtr::Null());
  ASSERT_TRUE(p1.ok());

  PartitionStore snap = store.Snapshot();
  auto p2 = store.AppendRow(layout, Edge(2, 2, 0), PackedRowPtr::Null());
  ASSERT_TRUE(p2.ok());

  // The snapshot sees only the first row.
  EXPECT_EQ(snap.num_rows(), 1u);
  EXPECT_EQ(store.num_rows(), 2u);
  EXPECT_EQ(layout.GetInt64(snap.RowAt(*p1), 0), 1);
  EXPECT_EQ(layout.GetInt64(store.RowAt(*p2), 0), 2);
}

TEST(PartitionStoreTest, DivergentAppendsCoexist) {
  // Paper Listing 2: two children of one parent, appends in either order.
  RowLayout layout(EdgeSchema());
  PartitionStore parent(4096);
  auto base = parent.AppendRow(layout, Edge(0, 0, 0), PackedRowPtr::Null());
  ASSERT_TRUE(base.ok());

  PartitionStore child_a = parent.Snapshot();
  PartitionStore child_b = parent.Snapshot();

  auto pa = child_a.AppendRow(layout, Edge(10, 10, 0), PackedRowPtr::Null());
  auto pb = child_b.AppendRow(layout, Edge(20, 20, 0), PackedRowPtr::Null());
  ASSERT_TRUE(pa.ok());
  ASSERT_TRUE(pb.ok());

  EXPECT_EQ(layout.GetInt64(child_a.RowAt(*pa), 0), 10);
  EXPECT_EQ(layout.GetInt64(child_b.RowAt(*pb), 0), 20);
  // Both children still read the shared base row.
  EXPECT_EQ(layout.GetInt64(child_a.RowAt(*base), 0), 0);
  EXPECT_EQ(layout.GetInt64(child_b.RowAt(*base), 0), 0);
  EXPECT_EQ(parent.num_rows(), 1u);
  EXPECT_EQ(child_a.num_rows(), 2u);
  EXPECT_EQ(child_b.num_rows(), 2u);
}

TEST(PartitionStoreTest, CowPreservesParentTailContents) {
  RowLayout layout(EdgeSchema());
  PartitionStore parent(4096);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        parent.AppendRow(layout, Edge(i, i, 0), PackedRowPtr::Null()).ok());
  }
  PartitionStore child = parent.Snapshot();
  // Child appends trigger a COW of the shared tail.
  auto pc = child.AppendRow(layout, Edge(99, 99, 0), PackedRowPtr::Null());
  ASSERT_TRUE(pc.ok());
  // Parent appends likewise COW its own tail.
  auto pp = parent.AppendRow(layout, Edge(77, 77, 0), PackedRowPtr::Null());
  ASSERT_TRUE(pp.ok());

  EXPECT_EQ(layout.GetInt64(child.RowAt(*pc), 0), 99);
  EXPECT_EQ(layout.GetInt64(parent.RowAt(*pp), 0), 77);
  // The divergent rows landed at the same packed location in different
  // physical batches — exactly the COW-at-batch-granularity design.
  EXPECT_EQ(pc->bits(), pp->bits());
}

TEST(PartitionStoreTest, AppendEncodedRewritesBackPtr) {
  RowLayout layout(EdgeSchema());
  PartitionStore src(4096);
  auto p1 = src.AppendRow(layout, Edge(5, 6, 0), PackedRowPtr::Null());
  ASSERT_TRUE(p1.ok());
  const uint8_t* encoded = src.RowAt(*p1);
  const uint32_t len = RowLayout::RowSize(encoded);

  PartitionStore dst(4096);
  auto d0 = dst.AppendRow(layout, Edge(5, 1, 0), PackedRowPtr::Null());
  ASSERT_TRUE(d0.ok());
  auto d1 = dst.AppendEncoded(encoded, len, *d0);
  ASSERT_TRUE(d1.ok());
  const uint8_t* moved = dst.RowAt(*d1);
  EXPECT_EQ(layout.GetInt64(moved, 0), 5);
  EXPECT_EQ(layout.GetInt64(moved, 1), 6);
  EXPECT_EQ(RowLayout::BackPtr(moved), *d0);
}

TEST(PartitionStoreTest, DataBytesAccounting) {
  RowLayout layout(EdgeSchema());
  PartitionStore store(4096);
  uint64_t expected = 0;
  for (int i = 0; i < 50; ++i) {
    RowVec row = Edge(i, i, 1.0);
    expected += *layout.ComputeRowSize(row);
    ASSERT_TRUE(store.AppendRow(layout, row, PackedRowPtr::Null()).ok());
  }
  EXPECT_EQ(store.data_bytes(), expected);
  EXPECT_EQ(store.allocated_bytes(),
            static_cast<uint64_t>(store.num_batches()) * 4096);
}

TEST(PartitionStoreTest, HintedInsertSizesEachBatchToTheBytesStillToCome) {
  // A grouped insert hints all of its bytes, then appends row by row. Rows
  // of mixed length leave each full batch a tail too short for the next
  // row; the next batch must be sized to every byte still to come, those
  // stranded ones included, so the insert ends in one right-sized tail and
  // never opens a default batch for its last few rows.
  auto schema = std::make_shared<Schema>(Schema({
      {"key", TypeId::kInt64, false},
      {"name", TypeId::kString, false},
  }));
  RowLayout layout(schema);
  Rng rng(29);
  std::vector<RowVec> rows;
  uint64_t hinted = 0;
  uint32_t max_row = 0;
  for (int64_t i = 0; i < 400; ++i) {
    RowVec row{Value::Int64(i),
               Value::String(std::string(rng.Below(61), 'x'))};
    const uint32_t len = *layout.ComputeRowSize(row);
    hinted += len;
    max_row = std::max(max_row, len);
    rows.push_back(std::move(row));
  }
  constexpr uint32_t kCapacity = 4096;
  PartitionStore store(kCapacity);
  store.ReserveHint(hinted);
  for (const RowVec& row : rows) {
    ASSERT_TRUE(store.AppendRow(layout, row, PackedRowPtr::Null()).ok());
  }
  const uint32_t batches = store.num_batches();
  ASSERT_GE(batches, 3u);
  EXPECT_EQ(store.data_bytes(), hinted);
  EXPECT_LT(store.allocated_bytes(),
            store.data_bytes() + uint64_t{batches} * max_row);
  for (uint32_t i = 0; i + 1 < batches; ++i) {
    EXPECT_EQ(store.batch(i)->capacity(), kCapacity) << "batch " << i;
    EXPECT_LT(store.batch(i)->remaining(), max_row) << "batch " << i;
  }
  EXPECT_EQ(store.batch(batches - 1)->remaining(), 0u);
}

TEST(PartitionStoreTest, SealTailClearsAResidualHint) {
  // An insert that hinted more than it appended (it failed part way) must
  // not size the batches of whatever is appended after its seal.
  RowLayout layout(EdgeSchema());
  constexpr uint32_t kCapacity = 4096;
  PartitionStore store(kCapacity);
  store.ReserveHint(kCapacity + 1000);
  ASSERT_TRUE(store.AppendRow(layout, Edge(1, 1, 1.0), PackedRowPtr::Null())
                  .ok());
  EXPECT_EQ(store.batch(0)->capacity(), kCapacity);
  store.SealTail();
  ASSERT_TRUE(store.AppendRow(layout, Edge(2, 2, 1.0), PackedRowPtr::Null())
                  .ok());
  ASSERT_EQ(store.num_batches(), 2u);
  EXPECT_EQ(store.batch(1)->capacity(), kCapacity);
}

TEST(PartitionStoreTest, StringsSurviveShuffleCopy) {
  auto schema = std::make_shared<Schema>(Schema({
      {"tailnum", TypeId::kString, false},
      {"delay", TypeId::kInt32, true},
  }));
  RowLayout layout(schema);
  PartitionStore a(4096), b(4096);
  auto p = a.AppendRow(layout, {Value::String("N12345"), Value::Int32(12)},
                       PackedRowPtr::Null());
  ASSERT_TRUE(p.ok());
  const uint8_t* row = a.RowAt(*p);
  auto q = b.AppendEncoded(row, RowLayout::RowSize(row), PackedRowPtr::Null());
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(layout.GetString(b.RowAt(*q), 0), "N12345");
  EXPECT_EQ(layout.GetInt32(b.RowAt(*q), 1), 12);
}

// Batch-size sweep: the store must behave identically across Fig. 5's range.
class PartitionStoreBatchSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(PartitionStoreBatchSweep, RoundTripAtBatchSize) {
  RowLayout layout(EdgeSchema());
  PartitionStore store(GetParam());
  std::vector<PackedRowPtr> ptrs;
  for (int i = 0; i < 500; ++i) {
    auto p = store.AppendRow(layout, Edge(i, -i, i * 0.5),
                             PackedRowPtr::Null());
    ASSERT_TRUE(p.ok());
    ptrs.push_back(*p);
  }
  for (int i = 0; i < 500; ++i) {
    const uint8_t* r = store.RowAt(ptrs[i]);
    EXPECT_EQ(layout.GetInt64(r, 0), i);
    EXPECT_EQ(layout.GetInt64(r, 1), -i);
    EXPECT_DOUBLE_EQ(layout.GetFloat64(r, 2), i * 0.5);
  }
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, PartitionStoreBatchSweep,
                         ::testing::Values(4096, 16384, 65536, 1u << 20,
                                           4u << 20));

}  // namespace
}  // namespace idf
