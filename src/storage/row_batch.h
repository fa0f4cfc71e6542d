// RowBatch: one fixed-capacity raw buffer of row-wise binary data.
//
// "The row batches are collections of binary, unsafe arrays (e.g., of 4 MB in
// size), each storing a number of rows determined by the row and batch sizes"
// (§III-C). The buffer is allocated outside any GC'd heap by construction
// (std::aligned_alloc) and is append-only: rows are bump-allocated and never
// moved, so PackedRowPtr offsets stay valid for the batch's lifetime.
//
// Memory governance (src/mem/governor.h): a batch is an Evictable payload.
// While open (the writable tail of a partition store) it is never evicted;
// Seal() — called when the store rolls to a new tail or takes a snapshot —
// makes it immutable and hands it to the MemoryGovernor, which may spill the
// buffer to disk under memory pressure. Readers call EnsureReadable() before
// touching data(): it pins the batch into the thread's mem::AccessScope and
// transparently faults a spilled buffer back in. Metadata (capacity, used,
// num_rows) always stays in memory — an evicted batch is a disk-backed stub.
#pragma once

#include <cstdint>
#include <memory>

#include "common/status.h"
#include "mem/governor.h"

namespace idf {

class RowBatch final : public mem::Evictable {
 public:
  /// Default batch size — the paper's measured sweet spot (Fig. 5).
  static constexpr uint32_t kDefaultCapacity = 4u << 20;  // 4 MB

  static std::shared_ptr<RowBatch> Create(uint32_t capacity = kDefaultCapacity);

  ~RowBatch() override;
  RowBatch(const RowBatch&) = delete;
  RowBatch& operator=(const RowBatch&) = delete;

  /// Bump-allocates `len` bytes; returns the offset of the allocation, or
  /// ResourceExhausted when the batch is full. The caller writes the row
  /// into MutableData() + offset. Only valid while the batch is unsealed.
  Result<uint32_t> Allocate(uint32_t len);

  /// Copy-on-write clone: a new batch with the same capacity whose used
  /// prefix is copied. Used when a divergent version appends into a tail
  /// batch that a snapshot still shares (§III-E).
  std::shared_ptr<RowBatch> Clone() const;

  /// Seals the batch: no further writes, eligible for eviction. Idempotent.
  /// Partition stores call this when a snapshot shares the tail or when a
  /// fresh tail replaces it.
  void Seal();
  bool sealed() const { return sealed_for_governor(); }

  /// Pins this batch into the thread's mem::AccessScope (reloading the
  /// buffer from spill if it was evicted) so data() stays valid for the
  /// scope's lifetime. Near-free until a memory budget is first engaged.
  void EnsureReadable() const { mem::AccessScope::Pin(const_cast<RowBatch*>(this)); }

  /// Tags this batch as batch `index` of (owner, shard) for the governor's
  /// residency map and reload events.
  void SetSpillIdentity(const mem::SpillIdentity& id) {
    mem::Evictable::SetSpillIdentity(id);
  }

  const uint8_t* data() const { return data_; }
  uint8_t* MutableData() { return data_; }

  uint32_t capacity() const { return capacity_; }
  uint32_t used() const { return used_; }
  uint32_t remaining() const { return capacity_ - used_; }
  uint32_t num_rows() const { return num_rows_; }

  /// Buffer bytes actually allocated (capacity padded to the alignment).
  uint64_t padded_bytes() const { return PaddedBytes(capacity_); }

 private:
  RowBatch(uint8_t* data, uint32_t capacity)
      : data_(data), capacity_(capacity) {}

  static uint64_t PaddedBytes(uint32_t capacity);

  // mem::Evictable payload hooks (governor lock held, no pins).
  Result<uint64_t> SpillPayload(const std::string& path) override;
  void ReleasePayload() override;
  Status ReloadPayload(const std::string& path) override;
  uint64_t PayloadBytes() const override { return padded_bytes(); }

  uint8_t* data_;
  uint32_t capacity_;
  uint32_t used_ = 0;
  uint32_t num_rows_ = 0;
};

}  // namespace idf
