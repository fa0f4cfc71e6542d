// IndexedDataFrame — the library's public API, mirroring the paper's
// Listing 1:
//
//   df.createIndex(colNo).cache()   -> IndexedDataFrame::Create(df, "col")
//   df.getRows(key)                 -> idf.GetRows(key)
//   df.appendRows(otherDF)          -> idf.AppendRows(other)
//   df.join(right, "left == right") -> idf.AsDataFrame().Join(right, ...)
//
// An IndexedDataFrame is an immutable handle onto one *version* of an
// Indexed Batch RDD. AppendRows returns a new handle (new version) and
// leaves this one valid — divergent appends from one parent coexist
// (§III-E, Listing 2).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/indexed_rdd.h"
#include "core/indexed_rules.h"
#include "sql/session.h"

namespace idf {

/// Per-partition index-vs-data footprint, for the Fig. 11 experiment.
/// `allocated_bytes - data_bytes` is the batches' unused tail capacity.
struct PartitionMemory {
  uint32_t partition = 0;
  uint64_t data_bytes = 0;
  uint64_t allocated_bytes = 0;
  uint32_t num_batches = 0;
  uint64_t index_bytes = 0;
  uint64_t num_rows = 0;

  double overhead_fraction() const {
    return data_bytes == 0
               ? 0.0
               : static_cast<double>(index_bytes) /
                     static_cast<double>(data_bytes);
  }
};

class IndexedDataFrame {
 public:
  IndexedDataFrame() = default;

  /// `createIndex`: executes `df`, hash-shuffles its rows on `column`, and
  /// builds the per-partition cTrie indexes. Also installs the index-aware
  /// planner strategies into the session (the "attach the library" step).
  /// The result is cached in cluster memory — `Cache()` exists for Listing-1
  /// API parity and is a no-op.
  static Result<IndexedDataFrame> Create(const DataFrame& df,
                                         const std::string& column,
                                         const IndexOptions& options = {},
                                         QueryMetrics* metrics = nullptr);

  bool valid() const { return rdd_ != nullptr; }

  /// No-op (the index is materialized in executor memory at creation);
  /// returns *this so `Create(...)->Cache()` reads like the paper's API.
  IndexedDataFrame& Cache() { return *this; }

  /// `getRows`: point lookup. Returns all rows whose indexed column equals
  /// `key`, as a driver-side table (the paper returns a small DataFrame).
  Result<CollectedTable> GetRows(const Value& key,
                                 QueryMetrics* metrics = nullptr) const;

  /// `appendRows`: appends the rows of `rows` (same schema), returning a new
  /// IndexedDataFrame version. This handle stays valid and unchanged.
  Result<IndexedDataFrame> AppendRows(const DataFrame& rows,
                                      QueryMetrics* metrics = nullptr) const;

  /// The DataFrame view of this version. Joins/filters on it flow through
  /// the planner, where the indexed strategies kick in; other operators use
  /// the row-RDD fallback scan.
  DataFrame AsDataFrame() const;

  /// Convenience indexed equi-join: this (indexed, build side) with `probe`.
  DataFrame Join(const DataFrame& probe, const std::string& probe_key) const;

  /// Registers this version in the session catalog so SQL queries against
  /// `name` see the index (`SELECT ... FROM name WHERE key = ...` plans an
  /// IndexLookupExec, joins on the key plan an IndexedJoinExec).
  void RegisterAs(const std::string& name) const;

  uint64_t version() const { return version_; }
  uint32_t num_partitions() const { return rdd_->num_partitions(); }
  uint64_t num_rows() const { return rdd_->RowsAtVersion(version_); }
  const std::string& indexed_column_name() const { return column_name_; }
  const std::shared_ptr<IndexedRdd>& rdd() const { return rdd_; }

  /// Fig. 11: per-partition memory overhead of the index.
  Result<std::vector<PartitionMemory>> MemoryReport() const;

 private:
  IndexedDataFrame(std::shared_ptr<IndexedRdd> rdd, uint64_t version,
                   std::string column_name)
      : rdd_(std::move(rdd)),
        version_(version),
        column_name_(std::move(column_name)) {}

  std::shared_ptr<IndexedRdd> rdd_;
  uint64_t version_ = 0;
  std::string column_name_;
};

}  // namespace idf
