// IndexedPartition: one partition of the Indexed Batch RDD (§III-C, Fig. 3).
//
// Three cooperating structures:
//  (1) a cTrie mapping 64-bit key codes to the packed pointer of the *latest*
//      row with that key,
//  (2) row batches (PartitionStore) holding the binary rows,
//  (3) backward pointers: each row's header points at the previous row with
//      the same key, forming one linked list per unique key.
//
// Key codes: integer columns use their numeric value (injective); strings and
// doubles hash into the code and lookups verify the stored column against the
// probe key (§IV-E: "Strings need to be hashed into a number which is then
// used as a key in the cTrie").
//
// Threading: single writer per partition (the engine schedules at most one
// append task per partition), any number of readers against snapshots —
// exactly the cTrie's contract.
#pragma once

#include <functional>
#include <memory>
#include <span>

#include "ctrie/ctrie.h"
#include "engine/block.h"
#include "mem/governor.h"
#include "storage/partition_store.h"
#include "storage/row_layout.h"
#include "types/schema.h"

namespace idf {

/// A point-lookup key encoded as a one-field row, so a lookup probes
/// ForEachMatch exactly as one probe row of an indexed join does.
class LookupKey {
 public:
  /// The encoded key, or nullopt when no stored row can equal it: a NULL
  /// key, or one past the row bound.
  static std::optional<LookupKey> Encode(const Value& key);

  const RowLayout& layout() const { return layout_; }
  const uint8_t* row() const { return row_.data(); }

 private:
  explicit LookupKey(SchemaPtr schema) : layout_(std::move(schema)) {}

  RowLayout layout_;
  std::vector<uint8_t> row_;
};

class IndexedPartition final : public Block {
 public:
  IndexedPartition(SchemaPtr schema, size_t key_column,
                   uint32_t batch_capacity = RowBatch::kDefaultCapacity);

  const Schema& schema() const { return layout_.schema(); }
  const RowLayout& layout() const { return layout_; }
  size_t key_column() const { return key_column_; }

  // ---- writes (single writer) -------------------------------------------

  /// Indexes and stores one row. Rows with a NULL key are stored but not
  /// indexed (they are unreachable via lookups, like Spark's null join keys).
  Status InsertRow(const RowVec& row);

  /// Indexes and stores already-encoded rows (one reduce input, a loaded
  /// file), clustered by key: NULL-key rows first, stored but not indexed;
  /// then one contiguous run per key code, keys in order of first appearance
  /// and each key's rows in input order, every row's back pointer addressing
  /// the row before it. Each key costs one trie Lookup (for the current
  /// head) and one Put, not one of each per row. Chains read the same as
  /// inserting the rows one at a time: newest first. Input that is already
  /// grouped keeps its order, so replaying a partition's stored rows
  /// reproduces its layout. `rows` doubles as scratch: the call permutes it
  /// into grouped order, so grouping costs 4 bytes per row beyond the
  /// pointers.
  Status InsertEncodedRows(std::span<const uint8_t*> rows);

  /// Hints how many bytes of rows are about to be inserted, so freshly
  /// opened row batches are right-sized (important after snapshots, whose
  /// sealing would otherwise force a full-size batch per tiny append).
  void ReserveHint(uint64_t bytes) { store_.ReserveHint(bytes); }

  /// Tags this partition's row batches as (owner, shard) for the memory
  /// governor (see PartitionStore::SetSpillTag).
  void SetSpillTag(uint64_t owner, uint32_t shard) {
    store_.SetSpillTag(owner, shard);
  }

  /// Declares this version fully built: seals the open tail batch so the
  /// whole partition is evictable under memory pressure. Every later write
  /// goes through Snapshot() (which would seal the tail anyway), so sealing
  /// here costs nothing and lets the governor spill freshly built bases.
  void SealStorage() { store_.SealTail(); }

  // ---- reads ------------------------------------------------------------

  /// Walks the backward chain of `key_code`, newest to oldest, invoking `fn`
  /// for each stored row. Returns the number of rows visited. The raw walk:
  /// rows of a key that hashes (strings/doubles) may carry another key, so
  /// engine probes go through ForEachMatch instead.
  template <typename Fn>
  size_t ForEachRowOfKey(uint64_t key_code, Fn&& fn) const {
    const std::optional<uint64_t> head = index_.Lookup(key_code);
    if (!head.has_value()) return 0;
    // The chain can cross many batches; pin each one until the walk is done.
    mem::AccessScope scope;
    size_t visited = 0;
    PackedRowPtr ptr = PackedRowPtr::FromBits(*head);
    while (!ptr.is_null()) {
      const uint8_t* row = store_.RowAt(ptr);
      fn(row);
      ++visited;
      ptr = RowLayout::BackPtr(row);
    }
    return visited;
  }

  /// The probe (§III-C): walks the chain of the key in column `probe_col`
  /// of `probe_row` (not null), invoking `fn` for each stored row whose key
  /// equals it, newest first. When either side's key code hashes, a row
  /// matches only if KeysEqual says so (§IV-E). Returns the matches.
  template <typename Fn>
  size_t ForEachMatch(const RowLayout& probe_layout, const uint8_t* probe_row,
                      size_t probe_col, Fn&& fn) const {
    const bool verify =
        KeyCodeNeedsVerify(layout_.schema().field(key_column_).type) ||
        KeyCodeNeedsVerify(probe_layout.schema().field(probe_col).type);
    size_t matched = 0;
    ForEachRowOfKey(
        probe_layout.KeyCode(probe_row, probe_col), [&](const uint8_t* row) {
          if (verify && !KeysEqual(layout_, row, key_column_, probe_layout,
                                   probe_row, probe_col)) {
            return;
          }
          ++matched;
          fn(row);
        });
    return matched;
  }

  /// Convenience: all rows whose key column equals `key`, decoded — a probe
  /// batch of one through ForEachMatch.
  std::vector<RowVec> LookupRows(const Value& key) const;

  /// Visits each row batch in order as (data, used bytes): the batch's rows
  /// back to back. Each batch stays pinned for the duration of its call.
  void ForEachBatch(
      const std::function<void(const uint8_t*, uint32_t)>& fn) const;

  // ---- versioning ---------------------------------------------------------

  /// O(1) snapshot for multi-version appends (§III-E): the new partition
  /// shares the cTrie (generation snapshot) and all sealed row batches; the
  /// open tail batch is copied lazily on the next divergent write.
  ///
  /// Logically const: readers of *this* are unaffected; the cTrie root
  /// renewal it performs is the algorithm's standard, thread-safe mechanism.
  std::shared_ptr<IndexedPartition> Snapshot() const;

  // ---- statistics -----------------------------------------------------------

  uint64_t num_rows() const { return store_.num_rows(); }
  uint64_t data_bytes() const { return store_.data_bytes(); }
  uint32_t num_batches() const { return store_.num_batches(); }

  /// Total batch capacity granted so far (PartitionStore::allocated_bytes).
  uint64_t allocated_bytes() const { return store_.allocated_bytes(); }

  /// COW batch opens charged to this partition (see
  /// PartitionStore::cow_batch_opens). A freshly snapshotted partition
  /// starts at zero, so the value attributes copies to the divergent writer.
  uint64_t cow_batch_opens() const { return store_.cow_batch_opens(); }

  /// Approximate bytes held by the cTrie index (Fig. 11's overhead metric).
  uint64_t IndexBytes() const;

  /// Data + index footprint; drives simulated transfer costs.
  uint64_t ByteSize() const override { return data_bytes() + IndexBytes(); }

 private:
  IndexedPartition(SchemaPtr schema, size_t key_column,
                   CTrie<uint64_t, uint64_t> index, PartitionStore store);

  RowLayout layout_;
  size_t key_column_;
  CTrie<uint64_t, uint64_t> index_;  // key code -> PackedRowPtr bits
  PartitionStore store_;
};

}  // namespace idf
