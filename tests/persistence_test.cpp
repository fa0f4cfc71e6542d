// Tests for out-of-core persistence: partition round-trips (chains, nulls,
// strings), corruption detection, full IndexedDataFrame save/load, appends
// on loaded indexes, and disk-backed lineage recovery.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/persistence.h"
#include "mem/governor.h"
#include "obs/metrics_registry.h"
#include "workload/snb.h"

namespace idf {
namespace {

SessionOptions SmallOptions() {
  SessionOptions opts;
  opts.cluster.num_workers = 2;
  opts.cluster.executors_per_worker = 2;
  opts.cluster.cores_per_executor = 2;
  opts.default_partitions = 4;
  return opts;
}

SchemaPtr MixedSchema() {
  return std::make_shared<Schema>(Schema({
      {"id", TypeId::kInt64, false},
      {"name", TypeId::kString, true},
      {"score", TypeId::kFloat64, true},
  }));
}

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("idf_persist_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string Path(const std::string& file) const {
    return (dir_ / file).string();
  }

  std::filesystem::path dir_;
};

TEST_F(PersistenceTest, PartitionRoundTrip) {
  IndexedPartition part(MixedSchema(), 0);
  for (int64_t i = 0; i < 1000; ++i) {
    IDF_CHECK_OK(part.InsertRow({Value::Int64(i % 100),
                                 Value::String("n" + std::to_string(i)),
                                 Value::Float64(i * 0.5)}));
  }
  IDF_CHECK_OK(SavePartition(part, Path("p.bin")));

  auto loaded = LoadPartition(Path("p.bin"));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ((*loaded)->num_rows(), 1000u);
  EXPECT_EQ((*loaded)->key_column(), 0u);
  EXPECT_EQ((*loaded)->schema(), part.schema());

  // Chains reproduce: every key has 10 rows, newest first.
  for (int64_t k = 0; k < 100; k += 13) {
    auto original = part.LookupRows(Value::Int64(k));
    auto restored = (*loaded)->LookupRows(Value::Int64(k));
    ASSERT_EQ(restored.size(), original.size()) << k;
    for (size_t i = 0; i < original.size(); ++i) {
      EXPECT_EQ(restored[i][1], original[i][1]);
    }
  }
}

TEST_F(PersistenceTest, RoundTripKeepsBatchBytes) {
  // Built the way a reduce task builds a partition (one size hint, one
  // grouped insert), spanning two default-size batches. A saved partition
  // is in grouped order already, so loading it lays out the same bytes,
  // back pointers included.
  IndexedPartition part(MixedSchema(), 0);
  std::vector<uint8_t> encoded;
  std::vector<size_t> offsets;
  for (int64_t i = 0; i < 90000; ++i) {
    const RowVec row = {Value::Int64(i % 1000),
                        Value::String("n" + std::to_string(i)),
                        i % 9 == 0 ? Value::Null(TypeId::kFloat64)
                                   : Value::Float64(i * 0.5)};
    offsets.push_back(encoded.size());
    encoded.resize(encoded.size() + *part.layout().ComputeRowSize(row));
    part.layout().EncodeRow(row, encoded.data() + offsets.back(),
                            PackedRowPtr::Null());
  }
  std::vector<const uint8_t*> rows;
  for (size_t offset : offsets) rows.push_back(encoded.data() + offset);
  part.ReserveHint(encoded.size());
  IDF_CHECK_OK(part.InsertEncodedRows(rows));
  ASSERT_GE(part.num_batches(), 2u);
  IDF_CHECK_OK(SavePartition(part, Path("p.bin")));

  auto loaded = LoadPartition(Path("p.bin"));
  ASSERT_TRUE(loaded.ok());
  auto batch_bytes = [](const IndexedPartition& p) {
    std::vector<std::vector<uint8_t>> batches;
    p.ForEachBatch([&](const uint8_t* data, uint32_t used) {
      batches.emplace_back(data, data + used);
    });
    return batches;
  };
  EXPECT_EQ(batch_bytes(**loaded), batch_bytes(part));
}

TEST_F(PersistenceTest, NullsAndEmptyStringsSurvive) {
  IndexedPartition part(MixedSchema(), 0);
  IDF_CHECK_OK(part.InsertRow(
      {Value::Int64(1), Value::Null(TypeId::kString), Value::Float64(0)}));
  IDF_CHECK_OK(part.InsertRow(
      {Value::Int64(2), Value::String(""), Value::Null(TypeId::kFloat64)}));
  IDF_CHECK_OK(SavePartition(part, Path("p.bin")));
  auto loaded = LoadPartition(Path("p.bin"));
  ASSERT_TRUE(loaded.ok());
  auto r1 = (*loaded)->LookupRows(Value::Int64(1));
  ASSERT_EQ(r1.size(), 1u);
  EXPECT_TRUE(r1[0][1].is_null());
  auto r2 = (*loaded)->LookupRows(Value::Int64(2));
  ASSERT_EQ(r2.size(), 1u);
  EXPECT_EQ(r2[0][1], Value::String(""));
  EXPECT_TRUE(r2[0][2].is_null());
}

TEST_F(PersistenceTest, StringKeyedPartitionRoundTrip) {
  IndexedPartition part(MixedSchema(), 1);
  for (int64_t i = 0; i < 200; ++i) {
    IDF_CHECK_OK(part.InsertRow({Value::Int64(i),
                                 Value::String("key" + std::to_string(i % 20)),
                                 Value::Float64(0)}));
  }
  IDF_CHECK_OK(SavePartition(part, Path("p.bin")));
  auto loaded = LoadPartition(Path("p.bin"));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ((*loaded)->LookupRows(Value::String("key7")).size(), 10u);
}

TEST_F(PersistenceTest, MissingFileIsNotFound) {
  EXPECT_EQ(LoadPartition(Path("nope.bin")).status().code(),
            StatusCode::kNotFound);
}

TEST_F(PersistenceTest, CorruptMagicRejected) {
  std::ofstream out(Path("bad.bin"), std::ios::binary);
  out << "NOTAPART-and-some-garbage-bytes";
  out.close();
  EXPECT_EQ(LoadPartition(Path("bad.bin")).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(PersistenceTest, TruncatedFileRejected) {
  IndexedPartition part(MixedSchema(), 0);
  for (int64_t i = 0; i < 100; ++i) {
    IDF_CHECK_OK(part.InsertRow(
        {Value::Int64(i), Value::String("x"), Value::Float64(0)}));
  }
  IDF_CHECK_OK(SavePartition(part, Path("p.bin")));
  // Truncate the tail.
  const auto full = std::filesystem::file_size(Path("p.bin"));
  std::filesystem::resize_file(Path("p.bin"), full - 64);
  EXPECT_FALSE(LoadPartition(Path("p.bin")).ok());
}

TEST_F(PersistenceTest, IndexedDataFrameSaveLoadRoundTrip) {
  Session session(SmallOptions());
  SnbConfig snb;
  snb.num_vertices = 200;
  snb.num_edges = 5000;
  snb.partitions = 4;
  SnbGenerator generator(snb);
  auto edges = generator.Edges(session).value();
  auto original = IndexedDataFrame::Create(edges, "edge_source").value();
  IDF_CHECK_OK(SaveIndexedDataFrame(original, dir_.string()));

  // Load into a brand-new session (nothing shared).
  Session fresh(SmallOptions());
  auto loaded = LoadIndexedDataFrame(fresh, dir_.string());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_rows(), 5000u);
  EXPECT_EQ(loaded->indexed_column_name(), "edge_source");
  EXPECT_EQ(loaded->num_partitions(), original.num_partitions());

  for (int64_t key : {0L, 7L, 150L}) {
    EXPECT_EQ(loaded->GetRows(Value::Int64(key))->rows.size(),
              original.GetRows(Value::Int64(key))->rows.size())
        << key;
  }
}

TEST_F(PersistenceTest, LoadedIndexSupportsAppendsAndJoins) {
  Session session(SmallOptions());
  SnbConfig snb;
  snb.num_vertices = 100;
  snb.num_edges = 2000;
  snb.partitions = 4;
  SnbGenerator generator(snb);
  auto edges = generator.Edges(session).value();
  auto original = IndexedDataFrame::Create(edges, "edge_source").value();
  IDF_CHECK_OK(SaveIndexedDataFrame(original, dir_.string()));

  Session fresh(SmallOptions());
  auto loaded = *LoadIndexedDataFrame(fresh, dir_.string());

  // Append on the loaded index: new version, MVCC intact.
  auto extra = fresh
                   .CreateTable("extra", SnbGenerator::EdgeSchema(),
                                {{Value::Int64(5), Value::Int64(9999),
                                  Value::Int64(1), Value::Float64(1)}})
                   .value();
  auto v1 = loaded.AppendRows(extra).value();
  EXPECT_EQ(v1.GetRows(Value::Int64(5))->rows.size(),
            loaded.GetRows(Value::Int64(5))->rows.size() + 1);

  // Indexed join on the loaded index matches a vanilla join.
  auto probe = generator.EdgeSample(fresh, 50, 3).value();
  auto via_index = loaded.Join(probe, "edge_source").Collect();
  ASSERT_TRUE(via_index.ok());
  auto vanilla_base = loaded.AsDataFrame();  // fallback scan of same data
  EXPECT_GT(via_index->rows.size(), 0u);
}

TEST_F(PersistenceTest, DiskBackedLineageRecovery) {
  Session session(SmallOptions());
  SnbConfig snb;
  snb.num_vertices = 100;
  snb.num_edges = 2000;
  snb.partitions = 4;
  SnbGenerator generator(snb);
  auto edges = generator.Edges(session).value();
  auto original = IndexedDataFrame::Create(edges, "edge_source").value();
  IDF_CHECK_OK(SaveIndexedDataFrame(original, dir_.string()));

  Session fresh(SmallOptions());
  auto loaded = *LoadIndexedDataFrame(fresh, dir_.string());
  const size_t expected = loaded.GetRows(Value::Int64(3))->rows.size();

  // Kill executors: lost partitions must be re-read from disk.
  fresh.cluster().KillExecutor(1);
  fresh.cluster().KillExecutor(2);
  auto after = loaded.GetRows(Value::Int64(3));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->rows.size(), expected);
}

TEST_F(PersistenceTest, LoadFromDirectoryWithoutManifestFails) {
  Session session(SmallOptions());
  EXPECT_EQ(LoadIndexedDataFrame(session, Path("empty")).status().code(),
            StatusCode::kNotFound);
}

// ---- eviction interplay (src/mem/governor.h) -------------------------------

TEST_F(PersistenceTest, SaveLoadRoundTripsWhileBatchesEvicted) {
  IndexedPartition part(MixedSchema(), 0, 16 << 10);
  for (int64_t i = 0; i < 2000; ++i) {
    IDF_CHECK_OK(part.InsertRow({Value::Int64(i % 100),
                                 Value::String("n" + std::to_string(i)),
                                 Value::Float64(i * 0.5)}));
  }
  part.Snapshot();  // seal the tail so every batch is evictable

  // Save under a 1-byte budget: SavePartition's scan faults each spilled
  // batch back in, so the file must be identical to an unbounded save.
  mem::ScopedBudget tight(1);
  EXPECT_GT(obs::Registry::Global().GetCounter("mem.evictions").value(), 0u);
  IDF_CHECK_OK(SavePartition(part, Path("p.bin")));

  auto loaded = LoadPartition(Path("p.bin"));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ((*loaded)->num_rows(), 2000u);
  for (int64_t k = 0; k < 100; k += 7) {
    auto original = part.LookupRows(Value::Int64(k));
    auto restored = (*loaded)->LookupRows(Value::Int64(k));
    ASSERT_EQ(restored.size(), original.size()) << k;
    for (size_t i = 0; i < original.size(); ++i) {
      EXPECT_EQ(restored[i], original[i]);
    }
  }
}

TEST_F(PersistenceTest, AppendsAfterEvictionMatchUnboundedRun) {
  // Two identical partitions; one lives under a tight budget with appends
  // landing after its earlier batches were spilled. Results must match the
  // unbounded twin exactly.
  auto build = [](IndexedPartition& part, int64_t from, int64_t to) {
    for (int64_t i = from; i < to; ++i) {
      IDF_CHECK_OK(part.InsertRow({Value::Int64(i % 50),
                                   Value::String("v" + std::to_string(i)),
                                   Value::Float64(i)}));
    }
  };
  IndexedPartition unbounded(MixedSchema(), 0, 16 << 10);
  build(unbounded, 0, 1500);
  build(unbounded, 1500, 2000);

  IndexedPartition budgeted(MixedSchema(), 0, 16 << 10);
  build(budgeted, 0, 1500);
  budgeted.Snapshot();  // seal, making the first 1500 rows evictable
  {
    mem::ScopedBudget tight(1);
    // Appends chase back-pointers into evicted batches: each insert must
    // transparently fault the chain head's batch back in.
    build(budgeted, 1500, 2000);
    for (int64_t k = 0; k < 50; ++k) {
      auto expected = unbounded.LookupRows(Value::Int64(k));
      auto actual = budgeted.LookupRows(Value::Int64(k));
      ASSERT_EQ(actual.size(), expected.size()) << k;
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(actual[i], expected[i]);
      }
    }
  }
}

}  // namespace
}  // namespace idf
