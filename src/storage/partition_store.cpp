#include "storage/partition_store.h"

#include <algorithm>

#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"

namespace idf {

namespace {

/// Process-wide storage counters, resolved once. Updates are one relaxed
/// atomic add each, cheap enough for the append path.
struct StorageMetrics {
  obs::Counter& snapshots =
      obs::Registry::Global().GetCounter("storage.partition.snapshots");
  obs::Counter& batches_opened =
      obs::Registry::Global().GetCounter("storage.batches.opened");
  obs::Counter& cow_batch_opens =
      obs::Registry::Global().GetCounter("storage.batches.cow_opens");
  obs::Counter& batch_bytes =
      obs::Registry::Global().GetCounter("storage.batches.allocated_bytes");

  static StorageMetrics& Get() {
    static StorageMetrics* metrics = new StorageMetrics();
    return *metrics;
  }
};

}  // namespace

PartitionStore::PartitionStore(uint32_t batch_capacity)
    : batch_capacity_(batch_capacity) {
  IDF_CHECK_MSG(batch_capacity_ > PackedRowPtr::kMaxRowSize,
                "batch capacity must exceed the maximum row size");
  IDF_CHECK_MSG(batch_capacity_ - 1 <= PackedRowPtr::kMaxOffset,
                "batch capacity not addressable by packed pointers");
}

PartitionStore PartitionStore::Snapshot() {
  PartitionStore snap(batch_capacity_);
  snap.flat_ = flat_;
  snap.num_batches_ = num_batches_;
  snap.num_rows_ = num_rows_;
  snap.data_bytes_ = data_bytes_;
  snap.allocated_bytes_ = allocated_bytes_;
  snap.tail_ = tail_;
  // The tail is now shared and therefore sealed for both versions: each
  // side's next append opens a fresh (hint-sized) batch of its own. Sealing
  // also hands the batch to the memory governor — from here on it may be
  // spilled under memory pressure (it is shared, so it spills once).
  if (tail_ != nullptr) {
    if (tail_exclusive_) {
      obs::FlightRecorder::Global().Record(obs::EventType::kBatchSeal, 0,
                                           tail_->used(), spill_owner_,
                                           spill_shard_);
    }
    tail_->Seal();
  }
  snap.tail_exclusive_ = false;
  tail_exclusive_ = false;
  StorageMetrics::Get().snapshots.Increment();
  return snap;
}

Result<std::shared_ptr<RowBatch>> PartitionStore::WritableTail(uint32_t len) {
  IDF_CHECK_MSG(len <= PackedRowPtr::kMaxRowSize, "row exceeds 1 KB bound");
  if (tail_ != nullptr && tail_exclusive_ && tail_->remaining() >= len) {
    return tail_;
  }
  // Tail missing, sealed by a snapshot, or full: open a fresh batch, sized
  // to the hinted bytes still to come when a hint is set (min len, max the
  // default).
  if (num_batches_ >= PackedRowPtr::kMaxBatch) {
    return Status::ResourceExhausted("partition reached max batch count");
  }
  StorageMetrics& sm = StorageMetrics::Get();
  if (tail_ != nullptr && !tail_exclusive_ && tail_->remaining() >= len) {
    // The tail was sealed by a snapshot while it still had room: this open
    // is the COW divergence event of §III-E, not a capacity rollover.
    ++cow_batch_opens_;
    sm.cow_batch_opens.Increment();
  }
  const uint32_t capacity =
      pending_bytes_ > 0 ? static_cast<uint32_t>(std::clamp<uint64_t>(
                               pending_bytes_, len, batch_capacity_))
                         : batch_capacity_;
  // The outgoing tail will never be written again — it becomes immutable
  // here, which is exactly when the governor may start evicting it.
  if (tail_ != nullptr && tail_exclusive_) {
    obs::FlightRecorder::Global().Record(obs::EventType::kBatchSeal, 0,
                                         tail_->used(), spill_owner_,
                                         spill_shard_);
    tail_->Seal();
  }
  tail_ = RowBatch::Create(capacity);
  if (spill_owner_ != 0) {
    tail_->SetSpillIdentity({spill_owner_, spill_shard_, num_batches_});
  }
  allocated_bytes_ += capacity;
  sm.batches_opened.Increment();
  sm.batch_bytes.Add(capacity);
  tail_exclusive_ = true;
  flat_.push_back(tail_);
  ++num_batches_;
  return tail_;
}

Result<PackedRowPtr> PartitionStore::FinishAppend(uint32_t offset,
                                                  PackedRowPtr back_ptr,
                                                  uint32_t len) {
  const uint32_t prev_size =
      back_ptr.is_null() ? 0 : RowSizeAt(back_ptr);
  ++num_rows_;
  data_bytes_ += len;
  pending_bytes_ -= std::min<uint64_t>(pending_bytes_, len);
  return PackedRowPtr::Make(num_batches_ - 1, offset, prev_size);
}

Result<PackedRowPtr> PartitionStore::AppendRow(const RowLayout& layout,
                                               const RowVec& row,
                                               PackedRowPtr back_ptr) {
  uint32_t len;
  {
    Result<uint32_t> size = layout.ComputeRowSize(row);
    IDF_RETURN_IF_ERROR(size.status());
    len = *size;
  }
  IDF_ASSIGN_OR_RETURN(std::shared_ptr<RowBatch> tail, WritableTail(len));
  IDF_ASSIGN_OR_RETURN(uint32_t offset, tail->Allocate(len));
  layout.EncodeRow(row, tail->MutableData() + offset, back_ptr);
  return FinishAppend(offset, back_ptr, len);
}

Result<PackedRowPtr> PartitionStore::AppendEncoded(const uint8_t* bytes,
                                                   uint32_t len,
                                                   PackedRowPtr back_ptr) {
  IDF_CHECK(RowLayout::RowSize(bytes) == len);
  IDF_ASSIGN_OR_RETURN(std::shared_ptr<RowBatch> tail, WritableTail(len));
  IDF_ASSIGN_OR_RETURN(uint32_t offset, tail->Allocate(len));
  uint8_t* dst = tail->MutableData() + offset;
  std::memcpy(dst, bytes, len);
  RowLayout::SetBackPtr(dst, back_ptr);
  return FinishAppend(offset, back_ptr, len);
}

const uint8_t* PartitionStore::RowAt(PackedRowPtr ptr) const {
  IDF_CHECK_MSG(!ptr.is_null(), "RowAt(null)");
  IDF_CHECK_MSG(ptr.batch() < flat_.size(),
                "dangling batch index in packed pointer");
  const RowBatch& batch = *flat_[ptr.batch()];
  // Pin + fault-in if the batch was spilled; a single predicted branch when
  // no memory budget has ever been engaged.
  batch.EnsureReadable();
  IDF_CHECK(batch.used() > ptr.offset());
  return batch.data() + ptr.offset();
}

std::shared_ptr<RowBatch> PartitionStore::batch(uint32_t index) const {
  IDF_CHECK_MSG(index < flat_.size(), "batch index out of range");
  flat_[index]->EnsureReadable();
  return flat_[index];
}

void PartitionStore::SetSpillTag(uint64_t owner, uint32_t shard) {
  spill_owner_ = owner;
  spill_shard_ = shard;
  for (uint32_t i = 0; i < num_batches_; ++i) {
    flat_[i]->SetSpillIdentity({spill_owner_, spill_shard_, i});
  }
}

}  // namespace idf
