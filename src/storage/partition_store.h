// PartitionStore: the row-batch collection of one Indexed Batch RDD partition,
// with snapshot-based multi-versioning (§III-C, §III-E).
//
// The batch *directory* maps batch index -> RowBatch pointer. The paper
// keeps it in a "secondary cTrie that stores pointers to the row batches";
// here it is a plain pointer vector that a version snapshot copies. Batch
// indexes are dense and only ever appended, so the vector is the whole
// directory, and a snapshot costs O(#batches) pointer copies (no row data):
// sealed batches are shared by pointer, and the tail batch is sealed so
// each divergent version's next append opens a batch of its own (COW at
// 4 MB granularity, not full-data copies).
//
// Threading model, as in the paper: one writer per partition ("transformations
// within a partition are sequentially executed on a single core", §III-C);
// any number of concurrent readers against snapshots.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "storage/packed_ptr.h"
#include "storage/row_batch.h"
#include "storage/row_layout.h"
#include "types/schema.h"

namespace idf {

class PartitionStore {
 public:
  explicit PartitionStore(uint32_t batch_capacity = RowBatch::kDefaultCapacity);

  PartitionStore(const PartitionStore&) = delete;
  PartitionStore& operator=(const PartitionStore&) = delete;
  PartitionStore(PartitionStore&&) = default;
  PartitionStore& operator=(PartitionStore&&) = default;

  /// Version snapshot: shares all batches (O(#batches) pointer copies, no
  /// row data). The open tail batch is
  /// *sealed* by the snapshot — each version's next append opens a fresh
  /// batch of its own, so no data is ever copied (§III-E: divergent versions
  /// "share the parent data and only store the deltas").
  PartitionStore Snapshot();

  /// Hints that `bytes` more of row data are about to be appended. The hint
  /// counts bytes still to come: each append takes its row's length off it,
  /// and a freshly opened batch is sized to what is left (at least the row,
  /// at most batch_capacity). So small appends after a snapshot do not
  /// allocate a whole 4 MB batch for a handful of rows, and a hinted insert
  /// spanning several batches ends in one right-sized tail.
  void ReserveHint(uint64_t bytes) { pending_bytes_ += bytes; }

  /// Encodes and appends a row. `back_ptr` points at the previous row with
  /// the same key (null for first occurrence); its size is folded into the
  /// new row's PackedRowPtr per the paper's pointer layout.
  Result<PackedRowPtr> AppendRow(const RowLayout& layout, const RowVec& row,
                                 PackedRowPtr back_ptr);

  /// Appends an already-encoded row (shuffle-received bytes), rewriting its
  /// back-pointer header to `back_ptr`.
  Result<PackedRowPtr> AppendEncoded(const uint8_t* bytes, uint32_t len,
                                     PackedRowPtr back_ptr);

  /// Start of the encoded row this pointer addresses. The returned pointer
  /// stays valid as long as this PartitionStore (or any snapshot sharing the
  /// batch) is alive.
  const uint8_t* RowAt(PackedRowPtr ptr) const;

  /// Size in bytes of the row a pointer addresses.
  uint32_t RowSizeAt(PackedRowPtr ptr) const {
    return RowLayout::RowSize(RowAt(ptr));
  }

  uint32_t num_batches() const { return num_batches_; }
  std::shared_ptr<RowBatch> batch(uint32_t index) const;

  uint64_t num_rows() const { return num_rows_; }
  uint32_t batch_capacity() const { return batch_capacity_; }

  /// Bytes of row data written (excludes unused batch tails).
  uint64_t data_bytes() const { return data_bytes_; }
  /// Bytes of buffer capacity allocated across all batches (variable-size:
  /// hinted appends open right-sized batches).
  uint64_t allocated_bytes() const { return allocated_bytes_; }

  /// COW events on this store: fresh batches opened because the previous
  /// tail was sealed by a snapshot (the paper's batch-granular copy-on-write,
  /// Fig. 9). Full-batch opens and first-ever batches are not counted.
  uint64_t cow_batch_opens() const { return cow_batch_opens_; }

  /// Seals the open tail batch, making it immutable and therefore evictable
  /// by the memory governor. Called when a version finishes building (base
  /// shuffle, append, recompute, load): the finished version is never
  /// written again — every subsequent write snapshots first — so without
  /// this a freshly built partition would hold one unsealed (unevictable)
  /// tail per partition forever. Idempotent; the next append to *this*
  /// store (which never happens in practice) would open a fresh batch.
  /// Clears any residual hint, so a failed insert cannot size the batches
  /// of a later one.
  void SealTail() {
    if (tail_ != nullptr) tail_->Seal();
    tail_exclusive_ = false;
    pending_bytes_ = 0;
  }

  /// Tags this store's batches for the memory governor: batch i is tagged
  /// SpillIdentity{owner, shard, i}, the key of the residency map, reload
  /// events and the chaos reload site. Applied retroactively to
  /// existing batches and to every batch opened later. Snapshots do NOT
  /// inherit the tag: divergent versions of one partition would number
  /// their own batches alike, so the tag stays on the batches they share.
  void SetSpillTag(uint64_t owner, uint32_t shard);

 private:
  /// Ensures the tail batch is exclusively owned and has room for `len`
  /// bytes; allocates/COWs as needed. Returns the writable tail.
  Result<std::shared_ptr<RowBatch>> WritableTail(uint32_t len);

  Result<PackedRowPtr> FinishAppend(uint32_t offset, PackedRowPtr back_ptr,
                                    uint32_t len);

  // The batch directory: batch i is flat_[i]. Copied by Snapshot().
  std::vector<std::shared_ptr<RowBatch>> flat_;
  uint32_t batch_capacity_;
  uint32_t num_batches_ = 0;
  uint64_t num_rows_ = 0;
  uint64_t data_bytes_ = 0;
  uint64_t allocated_bytes_ = 0;
  uint64_t pending_bytes_ = 0;  // hinted bytes still to be appended
  uint64_t cow_batch_opens_ = 0;
  uint64_t spill_owner_ = 0;  // 0 = batches are not tagged
  uint32_t spill_shard_ = 0;
  std::shared_ptr<RowBatch> tail_;  // == flat_[num_batches_-1]
  bool tail_exclusive_ = false;     // false after a snapshot (tail sealed)
};

}  // namespace idf
