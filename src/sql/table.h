// Distributed table handles and scannable datasets.
//
// A TableHandle names a materialized distributed table: `num_partitions`
// ColumnarChunk blocks registered in the cluster's BlockManager under
// (rdd_id, partition, version). Copies of a handle share a lease on those
// blocks: when the last copy goes, the blocks, their spill files and the
// RDD's lineage go with it (docs/MEMORY.md, "Block lifetime").
//
// A Dataset is anything a Scan node can read — a cached vanilla table, or
// (from src/core) an Indexed Batch RDD, which index-aware strategies
// recognize and everything else reads through the row-to-columnar fallback
// scan (§III-B: "An Indexed Batch RDD can always fall back to a regular
// Spark Row RDD"). Either way the scan is the source of a pipeline
// (sql/physical.h).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/metrics.h"
#include "types/schema.h"

namespace idf {

class RddLease;
class Session;
struct Pipeline;  // sql/physical.h

/// The output columns a pipeline reads, by name; nullopt reads them all. A
/// producer may leave the others out of its blocks (and its schema).
using ColumnReads = std::optional<std::vector<std::string>>;

struct TableHandle {
  SchemaPtr schema;
  uint64_t rdd_id = 0;
  /// Keeps rdd_id's blocks alive while any copy of this handle exists. Null
  /// only for handles that own no blocks (schema-only placeholders).
  std::shared_ptr<const RddLease> lease;
  uint32_t num_partitions = 0;
  uint64_t version = 0;
  uint64_t num_rows = 0;     // filled at materialization
  uint64_t total_bytes = 0;  // sum of block byte sizes

  bool valid() const { return schema != nullptr && num_partitions > 0; }
};

class Dataset {
 public:
  virtual ~Dataset() = default;

  virtual const SchemaPtr& schema() const = 0;
  virtual uint32_t num_partitions() const = 0;

  /// Opens this dataset as the source of a pipeline that reads `reads` of
  /// its columns. A cached table's pipeline pushes its blocks (and is
  /// materialized already); an indexed dataset's pushes its row batches as
  /// row blocks naming only the columns read, which the first consumer
  /// needing columns decodes — the row-to-columnar conversion whose cost is
  /// part of the query (this is what slows projections on indexed data,
  /// Fig. 8).
  virtual Result<Pipeline> Scan(Session& session, QueryMetrics& metrics,
                                const ColumnReads& reads) const = 0;

  /// Index-aware strategies ask: which column is indexed? -1 for none.
  virtual int indexed_column() const { return -1; }

  /// Display name for plan explanations.
  virtual std::string name() const { return "dataset"; }
};

using DatasetPtr = std::shared_ptr<const Dataset>;

/// A vanilla cached table: blocks are already columnar in the block manager.
class CachedTable final : public Dataset {
 public:
  CachedTable(TableHandle handle, std::string name)
      : handle_(std::move(handle)), name_(std::move(name)) {
    IDF_CHECK(handle_.valid());
  }

  const SchemaPtr& schema() const override { return handle_.schema; }
  uint32_t num_partitions() const override { return handle_.num_partitions; }
  /// Defined in sql/physical.cpp.
  Result<Pipeline> Scan(Session& session, QueryMetrics& metrics,
                        const ColumnReads& reads) const override;
  std::string name() const override { return name_; }

  const TableHandle& handle() const { return handle_; }

 private:
  TableHandle handle_;
  std::string name_;
};

}  // namespace idf
