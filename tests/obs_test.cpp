// Tests for the observability layer: metrics registry (concurrent updates,
// JSON export), logging, the new TaskMetrics fields, and EXPLAIN ANALYZE —
// including the acceptance check that an indexed equi-join's reported
// per-operator rows, probe/hit counts, and COW/snapshot work match a
// known-cardinality input.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "core/indexed_dataframe.h"
#include "core/indexed_partition.h"
#include "json_checker.h"
#include "obs/metrics_registry.h"

namespace idf {
namespace {

/// Runs fn(t) for t in [0, n) on n threads at once and joins them.
void RunConcurrently(size_t n, const std::function<void(size_t)>& fn) {
  std::vector<std::thread> threads;
  for (size_t t = 0; t < n; ++t) threads.emplace_back(fn, t);
  for (std::thread& thread : threads) thread.join();
}

TEST(JsonCheckerTest, SanityOnItself) {
  EXPECT_TRUE(JsonChecker::Valid("{\"a\": [1, 2.5, -3e4, \"x\\\"y\"], "
                                 "\"b\": {\"c\": true, \"d\": null}}"));
  EXPECT_FALSE(JsonChecker::Valid("{\"a\": }"));
  EXPECT_FALSE(JsonChecker::Valid("{\"a\": 1,}"));
  EXPECT_FALSE(JsonChecker::Valid("[1, 2"));
  EXPECT_FALSE(JsonChecker::Valid("{} trailing"));
}

// ---- metrics registry -----------------------------------------------------

TEST(MetricsRegistryTest, ConcurrentCounterUpdatesLandExactlyOnce) {
  obs::Registry registry;
  obs::Counter& counter = registry.GetCounter("test.counter");
  constexpr size_t kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  RunConcurrently(kThreads, [&](size_t) {
    for (uint64_t i = 0; i < kPerThread; ++i) counter.Increment();
  });
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(MetricsRegistryTest, ConcurrentHistogramObservationsLandExactlyOnce) {
  obs::Registry registry;
  obs::Histogram& hist = registry.GetHistogram("test.hist");
  constexpr size_t kThreads = 8;
  constexpr uint64_t kPerThread = 5000;
  RunConcurrently(kThreads, [&](size_t t) {
    for (uint64_t i = 0; i < kPerThread; ++i) {
      hist.Observe(static_cast<double>(t + 1));
    }
  });
  EXPECT_EQ(hist.count(), kThreads * kPerThread);
  // Sum of t+1 for t in [0,8) is 36, times kPerThread observations each.
  EXPECT_DOUBLE_EQ(hist.sum(), 36.0 * kPerThread);
  EXPECT_DOUBLE_EQ(hist.min(), 1.0);
  EXPECT_DOUBLE_EQ(hist.max(), 8.0);
}

TEST(MetricsRegistryTest, ConcurrentGaugeAddIsLossless) {
  obs::Registry registry;
  obs::Gauge& gauge = registry.GetGauge("test.gauge");
  constexpr size_t kThreads = 4;
  RunConcurrently(kThreads, [&](size_t) {
    for (int i = 0; i < 10000; ++i) gauge.Add(1.0);
  });
  EXPECT_DOUBLE_EQ(gauge.value(), 40000.0);
}

TEST(MetricsRegistryTest, GetOrCreateReturnsStableReferences) {
  obs::Registry registry;
  obs::Counter& a = registry.GetCounter("same.name");
  obs::Counter& b = registry.GetCounter("same.name");
  EXPECT_EQ(&a, &b);
  a.Add(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(MetricsRegistryTest, HistogramQuantilesAtBucketResolution) {
  obs::Registry registry;
  obs::Histogram& hist = registry.GetHistogram("test.quantiles");
  for (int v = 1; v <= 100; ++v) hist.Observe(v);
  EXPECT_DOUBLE_EQ(hist.min(), 1.0);
  EXPECT_DOUBLE_EQ(hist.max(), 100.0);
  EXPECT_DOUBLE_EQ(hist.mean(), 50.5);
  // Exponential buckets: estimates are upper bucket bounds, so p50 lands in
  // [median, 2*median) and p99 is clamped by the exact max.
  EXPECT_GE(hist.Quantile(0.5), 50.0);
  EXPECT_LE(hist.Quantile(0.5), 100.0);
  EXPECT_LE(hist.Quantile(0.99), 100.0);
  EXPECT_LE(hist.Quantile(0.5), hist.Quantile(0.99));
}

TEST(MetricsRegistryTest, EmptyHistogramReportsZeros) {
  obs::Registry registry;
  obs::Histogram& hist = registry.GetHistogram("test.empty");
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_DOUBLE_EQ(hist.min(), 0.0);
  EXPECT_DOUBLE_EQ(hist.max(), 0.0);
  EXPECT_DOUBLE_EQ(hist.Quantile(0.5), 0.0);
}

TEST(MetricsRegistryTest, TaggedNameSortsTags) {
  EXPECT_EQ(obs::TaggedName("m", {}), "m");
  EXPECT_EQ(obs::TaggedName("m", {{"stage", "join"}}), "m{stage=join}");
  EXPECT_EQ(obs::TaggedName("m", {{"stage", "join"}, {"executor", "3"}}),
            "m{executor=3,stage=join}");
}

TEST(MetricsRegistryTest, ToJsonIsWellFormedAndCompleteish) {
  obs::Registry registry;
  registry.GetCounter("c.one").Add(7);
  registry.GetGauge("g.two").Set(1.5);
  registry.GetHistogram("h.three").Observe(0.25);
  registry.GetCounter("weird\"name\\with\nescapes").Increment();
  const std::string json = registry.ToJson();
  EXPECT_TRUE(JsonChecker::Valid(json)) << json;
  EXPECT_NE(json.find("\"c.one\":7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"h.three\""), std::string::npos);
}

TEST(MetricsRegistryTest, SnapshotSortedByName) {
  obs::Registry registry;
  registry.GetCounter("zz");
  registry.GetCounter("aa");
  const auto snap = registry.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].name, "aa");
  EXPECT_EQ(snap[1].name, "zz");
}

// ---- logging ----------------------------------------------------------------

class LoggingTest : public ::testing::Test {
 protected:
  void SetUp() override { previous_level_ = GetLogLevel(); }
  void TearDown() override { SetLogLevel(previous_level_); }
  LogLevel previous_level_;
};

TEST_F(LoggingTest, MessagesBelowTheThresholdAreDropped) {
  SetLogLevel(LogLevel::kInfo);
  ::testing::internal::CaptureStderr();
  IDF_LOG_INFO("hello %s %d", "world", 7);
  IDF_LOG_DEBUG("dropped: below threshold");
  SetLogLevel(LogLevel::kOff);
  IDF_LOG_ERROR("dropped: logging is off");
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "[idf INFO] hello world 7\n");
}

TEST_F(LoggingTest, EachMessageIsOneLineWithItsLevelPrefix) {
  SetLogLevel(LogLevel::kWarn);
  const std::string long_message(2000, 'x');  // past the stack buffer
  ::testing::internal::CaptureStderr();
  IDF_LOG_WARN("watch \"out\": %s", "tab\there");
  IDF_LOG_ERROR("%s", long_message.c_str());
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "[idf WARN] watch \"out\": tab\there\n[idf ERROR] " +
                long_message + "\n");
}

// ---- TaskMetrics ----------------------------------------------------------

TEST(TaskMetricsTest, MergeFromCoversNewFields) {
  TaskMetrics a, b;
  a.index_probes = 10;
  a.index_hits = 4;
  a.batch_copies = 2;
  a.ctrie_snapshots = 1;
  b.index_probes = 5;
  b.index_hits = 5;
  b.batch_copies = 3;
  b.ctrie_snapshots = 2;
  a.MergeFrom(b);
  EXPECT_EQ(a.index_probes, 15u);
  EXPECT_EQ(a.index_hits, 9u);
  EXPECT_EQ(a.batch_copies, 5u);
  EXPECT_EQ(a.ctrie_snapshots, 3u);
}

TEST(TaskMetricsTest, DeltaSinceSubtractsFieldwise) {
  TaskMetrics base;
  base.rows_read = 100;
  base.index_probes = 7;
  TaskMetrics now = base;
  now.rows_read = 150;
  now.index_probes = 10;
  now.index_hits = 2;
  const TaskMetrics d = now.DeltaSince(base);
  EXPECT_EQ(d.rows_read, 50u);
  EXPECT_EQ(d.index_probes, 3u);
  EXPECT_EQ(d.index_hits, 2u);
  EXPECT_EQ(d.rows_written, 0u);
}

// ---- EXPLAIN ANALYZE ------------------------------------------------------

SchemaPtr EdgeSchema() {
  return std::make_shared<Schema>(Schema({
      {"src", TypeId::kInt64, false},
      {"dst", TypeId::kInt64, false},
  }));
}

SchemaPtr ProbeSchema() {
  return std::make_shared<Schema>(Schema({
      {"pk", TypeId::kInt64, false},
      {"tag", TypeId::kInt64, false},
  }));
}

SessionOptions SmallOptions() {
  SessionOptions opts;
  opts.cluster.num_workers = 2;
  opts.cluster.executors_per_worker = 2;
  opts.cluster.cores_per_executor = 2;
  opts.default_partitions = 4;
  return opts;
}

/// 10 indexed keys (0..9) with 3 rows each; probes hit keys 0..4 and miss
/// 100..104 — known cardinalities: 10 probes, 5 hits, 15 join rows.
struct JoinFixture {
  Session session{SmallOptions()};
  IndexedDataFrame indexed;
  DataFrame probe;

  JoinFixture() {
    std::vector<RowVec> edges;
    for (int64_t k = 0; k < 10; ++k) {
      for (int64_t d = 0; d < 3; ++d) {
        edges.push_back({Value::Int64(k), Value::Int64(k * 10 + d)});
      }
    }
    auto df = *session.CreateTable("edges", EdgeSchema(), edges);
    indexed = *IndexedDataFrame::Create(df, "src");

    std::vector<RowVec> probes;
    for (int64_t k = 0; k < 5; ++k) {
      probes.push_back({Value::Int64(k), Value::Int64(k)});
    }
    for (int64_t k = 100; k < 105; ++k) {
      probes.push_back({Value::Int64(k), Value::Int64(k)});
    }
    probe = *session.CreateTable("probe", ProbeSchema(), probes);
  }
};

TEST(ExplainAnalyzeTest, IndexedJoinReportsKnownCardinalities) {
  JoinFixture fx;
  DataFrame joined = fx.indexed.Join(fx.probe, "pk");

  QueryMetrics qm;
  auto text = joined.ExplainAnalyze(&qm);
  ASSERT_TRUE(text.ok()) << text.status().message();

  // The analyzed row count must match what an independent execution collects.
  auto collected = joined.Collect();
  ASSERT_TRUE(collected.ok());
  EXPECT_EQ(collected->rows.size(), 15u);

  ASSERT_NE(qm.op_profile, nullptr);
  const OpProfile* join_prof = nullptr;
  for (const auto& [node, prof] : *qm.op_profile) {
    if (prof.label.find("IndexedJoinExec") != std::string::npos) {
      join_prof = &prof;
    }
  }
  ASSERT_NE(join_prof, nullptr) << joined.ExplainPhysical().value_or("?");
  EXPECT_EQ(join_prof->executions, 1u);
  EXPECT_EQ(join_prof->rows_out, 15u);
  EXPECT_GT(join_prof->bytes_out, 0u);
  EXPECT_EQ(join_prof->inclusive.index_probes, 10u);
  EXPECT_EQ(join_prof->inclusive.index_hits, 5u);

  // Rendered text carries the same numbers on the join operator's line.
  EXPECT_NE(text->find("IndexedJoinExec"), std::string::npos) << *text;
  EXPECT_NE(text->find("rows=15"), std::string::npos) << *text;
  EXPECT_NE(text->find("probes=10 hits=5"), std::string::npos) << *text;
  EXPECT_NE(text->find("-- "), std::string::npos) << *text;
}

TEST(ExplainAnalyzeTest, AppendRowsChargesSnapshotMetrics) {
  JoinFixture fx;
  // Append one row per existing key: every partition snapshots its parent
  // before inserting the routed rows.
  std::vector<RowVec> extra;
  for (int64_t k = 0; k < 10; ++k) {
    extra.push_back({Value::Int64(k), Value::Int64(900 + k)});
  }
  auto extra_df = *fx.session.CreateTable("extra", EdgeSchema(), extra);
  QueryMetrics qm;
  auto v1 = fx.indexed.AppendRows(extra_df, &qm);
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(v1->num_rows(), 40u);

  // One O(1) snapshot per partition (4 partitions).
  EXPECT_EQ(qm.totals.ctrie_snapshots, 4u);
  // Bulk appends size each fresh batch to the routed bytes (ReserveHint),
  // so the parent's tail was exactly full when it was sealed — opening the
  // next batch is a capacity rollover, not a COW divergence. The counter
  // distinguishes the two; see the CowBatchOpens test for the divergence
  // case.
  EXPECT_EQ(qm.totals.batch_copies, 0u);
}

TEST(ExplainAnalyzeTest, SnapshotWithRoomyTailCountsCowBatchOpens) {
  // Known-cardinality COW accounting at the partition level: a 64 KB batch
  // holds all 8 rows with room to spare, so sealing it via Snapshot() and
  // then writing on either side is a genuine copy-on-write divergence.
  IndexedPartition parent(EdgeSchema(), 0, 64 << 10);
  for (int64_t k = 0; k < 8; ++k) {
    IDF_CHECK_OK(parent.InsertRow({Value::Int64(k), Value::Int64(k)}));
  }
  EXPECT_EQ(parent.cow_batch_opens(), 0u);

  std::shared_ptr<IndexedPartition> child = parent.Snapshot();
  EXPECT_EQ(child->cow_batch_opens(), 0u);

  // First divergent write on the child opens a fresh batch (1 COW open);
  // subsequent writes reuse it.
  IDF_CHECK_OK(child->InsertRow({Value::Int64(100), Value::Int64(1)}));
  IDF_CHECK_OK(child->InsertRow({Value::Int64(101), Value::Int64(1)}));
  EXPECT_EQ(child->cow_batch_opens(), 1u);

  // The parent's tail was sealed by the same snapshot: its next write
  // diverges too, independently.
  IDF_CHECK_OK(parent.InsertRow({Value::Int64(200), Value::Int64(2)}));
  EXPECT_EQ(parent.cow_batch_opens(), 1u);

  // MVCC isolation: neither side sees the other's divergent rows.
  EXPECT_EQ(child->num_rows(), 10u);
  EXPECT_EQ(parent.num_rows(), 9u);
  EXPECT_TRUE(child->LookupRows(Value::Int64(200)).empty());
  EXPECT_TRUE(parent.LookupRows(Value::Int64(100)).empty());
}

TEST(ExplainAnalyzeTest, GetRowsCountsProbeAndHit) {
  JoinFixture fx;
  QueryMetrics hit_metrics;
  auto rows = fx.indexed.GetRows(Value::Int64(3), &hit_metrics);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 3u);
  EXPECT_EQ(hit_metrics.totals.index_probes, 1u);
  EXPECT_EQ(hit_metrics.totals.index_hits, 1u);

  QueryMetrics miss_metrics;
  auto missing = fx.indexed.GetRows(Value::Int64(777), &miss_metrics);
  ASSERT_TRUE(missing.ok());
  EXPECT_TRUE(missing->rows.empty());
  EXPECT_EQ(miss_metrics.totals.index_probes, 1u);
  EXPECT_EQ(miss_metrics.totals.index_hits, 0u);
}

TEST(ExplainAnalyzeTest, SqlExplainReturnsPlanRows) {
  JoinFixture fx;
  auto df = fx.session.Sql("EXPLAIN SELECT * FROM probe");
  ASSERT_TRUE(df.ok()) << df.status().message();
  auto collected = df->Collect();
  ASSERT_TRUE(collected.ok());
  ASSERT_EQ(collected->schema->num_fields(), 1u);
  EXPECT_EQ(collected->schema->field(0).name, "plan");
  ASSERT_FALSE(collected->rows.empty());
  bool saw_scan = false;
  for (const RowVec& row : collected->rows) {
    if (row[0].ToString().find("ScanExec") != std::string::npos) {
      saw_scan = true;
    }
  }
  EXPECT_TRUE(saw_scan);
  // The EXPLAIN result must not leak into the catalog.
  EXPECT_FALSE(fx.session.LookupTable("explain result").ok());
}

TEST(ExplainAnalyzeTest, SqlExplainAnalyzeAnnotatesOperators) {
  JoinFixture fx;
  auto df = fx.session.Sql(
      "EXPLAIN ANALYZE SELECT * FROM probe WHERE tag >= 100");
  ASSERT_TRUE(df.ok()) << df.status().message();
  auto collected = df->Collect();
  ASSERT_TRUE(collected.ok());
  bool saw_annotated_filter = false;
  bool saw_summary = false;
  for (const RowVec& row : collected->rows) {
    const std::string line = row[0].ToString();
    if (line.find("FilterExec") != std::string::npos &&
        line.find("rows=5") != std::string::npos) {
      saw_annotated_filter = true;
    }
    if (line.find("-- ") != std::string::npos &&
        line.find("stages") != std::string::npos) {
      saw_summary = true;
    }
  }
  EXPECT_TRUE(saw_annotated_filter);
  EXPECT_TRUE(saw_summary);

  // Fused operators run inside their producer's tasks and still report the
  // rows they push on.
  auto annotated = [&](const std::string& sql, const std::string& op,
                       const std::string& rows) {
    auto explained = fx.session.Sql(sql);
    EXPECT_TRUE(explained.ok()) << explained.status().message();
    if (!explained.ok()) return false;
    auto lines = explained->Collect();
    EXPECT_TRUE(lines.ok());
    if (!lines.ok()) return false;
    for (const RowVec& row : lines->rows) {
      const std::string line = row[0].ToString();
      if (line.find(op) != std::string::npos &&
          line.find(rows) != std::string::npos) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(annotated("EXPLAIN ANALYZE SELECT pk FROM probe WHERE tag >= 100",
                        "ProjectExec", "rows=5 "));
  EXPECT_TRUE(annotated(
      "EXPLAIN ANALYZE SELECT COUNT(*) FROM probe WHERE tag >= 100",
      "HashAggExec", "rows=1 "));
  EXPECT_TRUE(annotated(
      "EXPLAIN ANALYZE SELECT COUNT(*) FROM probe WHERE tag >= 100",
      "FilterExec", "rows=5 "));
}

TEST(ExplainAnalyzeTest, ExplainWithoutQueryIsAnError) {
  Session session(SmallOptions());
  EXPECT_FALSE(session.Sql("EXPLAIN").ok());
  EXPECT_FALSE(session.Sql("EXPLAIN ANALYZE").ok());
}

}  // namespace
}  // namespace idf
