// Indexed physical operators (§III-B/C).
//
// IndexedJoinExec: "the indexed relation is always the build side (as it is
// actually pre-built due to the index), while the probe side is the
// non-indexed relation." Probe rows are shuffled (or broadcast, when small)
// to the indexed partitions and probed against the local cTrie — no hash
// table is built at query time. Matched rows decode a block at a time, only
// the columns the consumer reads (NarrowJoinColumns), and push on through the
// pipeline (sql/physical.h).
//
// IndexLookupExec: an equality filter on the indexed column becomes a point
// lookup on the single partition owning the key: a probe batch of one through
// the join's kernel (IndexedPartition::ForEachMatch). The matches go on as
// one row block; any remaining conjuncts are a FilterExec above it.
#pragma once

#include <memory>

#include "core/indexed_rdd.h"
#include "sql/physical.h"

namespace idf {

class IndexedJoinExec final : public PhysicalOp {
 public:
  /// `indexed_is_left`: whether the indexed relation is the left side of the
  /// logical join (controls output column order).
  IndexedJoinExec(std::shared_ptr<const IndexedDataset> indexed,
                  PhysOpPtr probe, std::string probe_key, bool indexed_is_left)
      : indexed_(std::move(indexed)),
        children_{std::move(probe)},
        probe_key_(std::move(probe_key)),
        indexed_is_left_(indexed_is_left) {}

  Result<Pipeline> OpenImpl(Session& session, QueryMetrics& metrics,
                            const ColumnReads& reads) const override;
  std::string Describe() const override {
    return "IndexedJoinExec probe_key=" + probe_key_ + " on " +
           indexed_->name();
  }
  const std::vector<PhysOpPtr>& children() const override { return children_; }

 private:
  /// Probes the materialized `probe` table and pushes the matches.
  Status Run(Session& session, const TableHandle& probe, size_t probe_key,
             const JoinColumns& out, const Pipe& down,
             QueryMetrics& metrics) const;

  std::shared_ptr<const IndexedDataset> indexed_;
  std::vector<PhysOpPtr> children_;
  std::string probe_key_;
  bool indexed_is_left_;
};

class IndexLookupExec final : public PhysicalOp {
 public:
  IndexLookupExec(std::shared_ptr<const IndexedDataset> indexed, Value key)
      : indexed_(std::move(indexed)), key_(std::move(key)) {}

  Result<Pipeline> OpenImpl(Session& session, QueryMetrics& metrics,
                            const ColumnReads& reads) const override;
  std::string Describe() const override {
    return "IndexLookupExec key=" + key_.ToString() + " on " +
           indexed_->name();
  }

 private:
  std::shared_ptr<const IndexedDataset> indexed_;
  Value key_;
};

}  // namespace idf
