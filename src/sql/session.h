// Session + DataFrame: the user-facing API of the engine.
//
// A Session owns the (simulated) cluster, the planner, and the table
// catalog. DataFrame mirrors the Spark Dataframe API surface the paper's
// Listing 1 builds on: filter / select / join / aggregate / collect. The
// Indexed DataFrame extensions (createIndex / getRows / appendRows) live in
// src/core and compose with everything here.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/cluster.h"
#include "sql/columnar.h"
#include "sql/plan.h"
#include "sql/planner.h"
#include "sql/table.h"

namespace idf {

struct SessionOptions {
  ClusterConfig cluster;
  /// Partition count for tables created without an explicit one. The paper's
  /// rule of thumb is 1-4 partitions per core (§III-C).
  uint32_t default_partitions = 8;
  /// Build sides smaller than this are broadcast (the paper cites Spark's
  /// "less than 10 MB" broadcast behaviour, §IV-C).
  uint64_t broadcast_threshold_bytes = 10ull << 20;
  JoinExec::Mode join_mode = JoinExec::Mode::kAuto;
};

/// Driver-side materialized result.
struct CollectedTable {
  SchemaPtr schema;
  std::vector<RowVec> rows;

  /// Rows as sorted strings — order-insensitive comparison for tests.
  std::vector<std::string> SortedRowStrings() const;
};

class DataFrame;

class Session {
 public:
  explicit Session(SessionOptions options = {});

  Cluster& cluster() { return *cluster_; }
  Planner& planner() { return planner_; }
  const SessionOptions& options() const { return options_; }

  /// Per-partition deterministic row generator; re-invoked by lineage
  /// recomputation after failures (the "replayable source" of §III-D).
  using PartitionGenerator =
      std::function<std::vector<RowVec>(uint32_t partition)>;

  /// Creates a cached (columnar) table from driver-side rows, hash-assigned
  /// to `partitions` round-robin.
  Result<DataFrame> CreateTable(const std::string& name, SchemaPtr schema,
                                const std::vector<RowVec>& rows,
                                uint32_t partitions = 0);

  /// Creates a cached table whose partitions come from a generator —
  /// the standard path for the workload datasets.
  Result<DataFrame> CreateTableFromGenerator(const std::string& name,
                                             SchemaPtr schema,
                                             uint32_t partitions,
                                             PartitionGenerator generator);

  /// Wraps an arbitrary dataset (e.g. an Indexed DataFrame) in a DataFrame.
  DataFrame Read(DatasetPtr dataset);

  // ---- table catalog & SQL ----------------------------------------------

  /// Registers (or replaces) a named table in the catalog. Tables created
  /// via CreateTable/CreateTableFromGenerator register automatically;
  /// indexed dataframes can be registered to make their index visible to
  /// SQL queries (Fig. 2's entry path).
  void RegisterTable(const std::string& name, DatasetPtr dataset);

  /// Case-insensitive catalog lookup.
  Result<DatasetPtr> LookupTable(const std::string& name) const;

  /// Parses and binds a SQL query ("SELECT ... FROM ... JOIN ... WHERE ...
  /// GROUP BY ... LIMIT ...") against the catalog. Execution goes through
  /// the same planner as the DataFrame API — indexed strategies included.
  ///
  /// An "EXPLAIN <query>" prefix returns a one-column ("plan") dataframe
  /// holding the physical plan, one row per line; "EXPLAIN ANALYZE <query>"
  /// additionally *executes* the query and annotates each operator with
  /// rows/bytes produced, wall time, index probe/hit counts, and COW /
  /// snapshot work (see DataFrame::ExplainAnalyze).
  Result<DataFrame> Sql(const std::string& query);

  /// Gathers every block of a table to the driver.
  Result<CollectedTable> Collect(const TableHandle& handle);

  /// Extension registry: lets add-on libraries (e.g. the Indexed DataFrame
  /// rules) install themselves into this session exactly once. Atomic
  /// check-and-mark: true exactly once per name per session — two threads
  /// racing to install the same extension must not both PrependStrategy.
  bool TryMarkExtension(const std::string& name) {
    std::lock_guard<std::mutex> lock(catalog_mutex_);
    return extensions_.insert(name).second;
  }

 private:
  /// Shared materialization path; EXPLAIN results skip the catalog so they
  /// cannot shadow user tables.
  Result<DataFrame> CreateTableImpl(const std::string& name, SchemaPtr schema,
                                    uint32_t partitions,
                                    PartitionGenerator generator,
                                    bool register_in_catalog);

  SessionOptions options_;
  std::unique_ptr<Cluster> cluster_;
  Planner planner_;
  // Guards the catalog and extension registry: concurrent queries served
  // through the query service register/look up tables on one Session.
  mutable std::mutex catalog_mutex_;
  std::set<std::string> extensions_;
  std::map<std::string, DatasetPtr> catalog_;  // keys uppercased
};

class DataFrame {
 public:
  DataFrame() = default;
  DataFrame(Session* session, PlanPtr plan)
      : session_(session), plan_(std::move(plan)) {}

  bool valid() const { return session_ != nullptr && plan_ != nullptr; }
  const PlanPtr& plan() const { return plan_; }
  Session* session() const { return session_; }

  Result<Schema> schema() const { return plan_->OutputSchema(); }

  DataFrame Filter(ExprPtr predicate) const {
    return DataFrame(session_,
                     std::make_shared<FilterNode>(plan_, std::move(predicate)));
  }
  DataFrame Select(std::vector<std::string> columns) const {
    return DataFrame(
        session_, std::make_shared<ProjectNode>(plan_, std::move(columns)));
  }
  DataFrame Join(const DataFrame& right, std::string left_key,
                 std::string right_key,
                 JoinType join_type = JoinType::kInner) const {
    return DataFrame(session_, std::make_shared<JoinNode>(
                                   plan_, right.plan_, std::move(left_key),
                                   std::move(right_key), join_type));
  }
  DataFrame LeftJoin(const DataFrame& right, std::string left_key,
                     std::string right_key) const {
    return Join(right, std::move(left_key), std::move(right_key),
                JoinType::kLeftOuter);
  }
  DataFrame OrderBy(std::vector<SortKey> keys) const {
    return DataFrame(session_,
                     std::make_shared<SortNode>(plan_, std::move(keys)));
  }
  /// UNION ALL: concatenation, duplicates kept (zero-copy execution).
  DataFrame UnionAll(const DataFrame& other) const {
    return DataFrame(session_,
                     std::make_shared<UnionNode>(plan_, other.plan_));
  }
  /// Distinct rows — implemented as a group-by over every column.
  Result<DataFrame> Distinct() const;
  DataFrame Agg(std::vector<std::string> group_by,
                std::vector<AggSpec> aggs) const {
    return DataFrame(session_,
                     std::make_shared<AggregateNode>(plan_, std::move(group_by),
                                                     std::move(aggs)));
  }
  DataFrame Limit(uint64_t n) const {
    return DataFrame(session_, std::make_shared<LimitNode>(plan_, n));
  }

  /// Optimizes, plans, and executes; returns the materialized table.
  Result<TableHandle> Execute(QueryMetrics* metrics = nullptr) const;

  Result<CollectedTable> Collect(QueryMetrics* metrics = nullptr) const;

  /// Row count of the query, as COUNT(*) over it: nothing above the
  /// aggregate materializes, and its input decodes no column it does not
  /// read.
  Result<uint64_t> Count(QueryMetrics* metrics = nullptr) const;

  /// Rendered optimized logical plan (for tests asserting rule behaviour).
  Result<std::string> ExplainOptimized() const;
  /// Rendered physical plan (for tests asserting strategy selection —
  /// e.g. that a join against an indexed dataframe uses IndexedJoinExec).
  Result<std::string> ExplainPhysical() const;
  /// Executes the query with per-operator instrumentation and renders the
  /// physical plan annotated with what each operator actually did: rows and
  /// bytes produced, wall/self time, index probes vs hits, COW batch copies,
  /// cTrie snapshots, shuffle volume. A trailing summary line reports query
  /// totals (stages, real/simulated seconds). When `metrics` is given the
  /// executed QueryMetrics (op_profile included) are stored there.
  Result<std::string> ExplainAnalyze(QueryMetrics* metrics = nullptr) const;

 private:
  Session* session_ = nullptr;
  PlanPtr plan_;
};

}  // namespace idf
