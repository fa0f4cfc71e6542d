#include "core/indexed_partition.h"

#include <algorithm>

#include "common/hash.h"

namespace idf {

namespace {

/// Groups rows by key code for InsertEncodedRows: an open-addressing table
/// from code to a dense group id, plus each group's code and row count.
/// Group 0 is the NULL-key group; key groups are numbered from 1 in order
/// of first appearance. Slots hold only the id (0 = empty), so the table
/// costs 4 bytes per slot at a load factor of at most one half.
class KeyGroups {
 public:
  static constexpr uint32_t kNullGroup = 0;

  KeyGroups() : slots_(kMinSlots, 0), codes_{0}, counts_{0} {}

  /// Counts one NULL-key row.
  uint32_t AddNull() {
    ++counts_[kNullGroup];
    return kNullGroup;
  }

  /// Counts one row with key `code`; returns its group id.
  uint32_t Add(uint64_t code) {
    size_t i = SlotOf(code);
    while (slots_[i] != 0) {
      const uint32_t g = slots_[i];
      if (codes_[g] == code) {
        ++counts_[g];
        return g;
      }
      i = (i + 1) & (slots_.size() - 1);
    }
    const uint32_t g = static_cast<uint32_t>(codes_.size());
    slots_[i] = g;
    codes_.push_back(code);
    counts_.push_back(1);
    if (2 * codes_.size() > slots_.size()) Grow();
    return g;
  }

  uint64_t code(uint32_t group) const { return codes_[group]; }

  /// Each group's first position in grouped order (NULL group first).
  std::vector<uint32_t> ExclusiveStarts() const {
    std::vector<uint32_t> starts(counts_.size());
    uint32_t next = 0;
    for (size_t g = 0; g < counts_.size(); ++g) {
      starts[g] = next;
      next += counts_[g];
    }
    return starts;
  }

 private:
  static constexpr size_t kMinSlots = 64;

  size_t SlotOf(uint64_t code) const { return Mix64(code) & (slots_.size() - 1); }

  void Grow() {
    slots_.assign(2 * slots_.size(), 0);
    for (uint32_t g = 1; g < codes_.size(); ++g) {
      size_t i = SlotOf(codes_[g]);
      while (slots_[i] != 0) i = (i + 1) & (slots_.size() - 1);
      slots_[i] = g;
    }
  }

  std::vector<uint32_t> slots_;
  std::vector<uint64_t> codes_;
  std::vector<uint32_t> counts_;
};

}  // namespace

std::optional<LookupKey> LookupKey::Encode(const Value& key) {
  if (key.is_null()) return std::nullopt;
  LookupKey out(std::make_shared<Schema>(
      Schema({{"key", key.type(), /*nullable=*/false}})));
  const RowVec row{key};
  Result<uint32_t> size = out.layout_.ComputeRowSize(row);
  if (!size.ok()) return std::nullopt;
  out.row_.resize(*size);
  out.layout_.EncodeRow(row, out.row_.data(), PackedRowPtr::Null());
  return out;
}

IndexedPartition::IndexedPartition(SchemaPtr schema, size_t key_column,
                                   uint32_t batch_capacity)
    : layout_(std::move(schema)),
      key_column_(key_column),
      store_(batch_capacity) {
  IDF_CHECK(key_column_ < layout_.schema().num_fields());
}

IndexedPartition::IndexedPartition(SchemaPtr schema, size_t key_column,
                                   CTrie<uint64_t, uint64_t> index,
                                   PartitionStore store)
    : layout_(std::move(schema)),
      key_column_(key_column),
      index_(std::move(index)),
      store_(std::move(store)) {}

Status IndexedPartition::InsertRow(const RowVec& row) {
  IDF_RETURN_IF_ERROR(ValidateRow(layout_.schema(), row));
  // The append may chase a back-pointer into an older (possibly spilled)
  // batch; keep everything it touches pinned for the duration.
  mem::AccessScope scope;
  if (row[key_column_].is_null()) {
    // Unindexed storage: reachable by scans, invisible to lookups.
    IDF_RETURN_IF_ERROR(
        store_.AppendRow(layout_, row, PackedRowPtr::Null()).status());
    return Status::OK();
  }
  const uint64_t code = IndexKeyCode(row[key_column_]);
  // Backward chain: the new row points at the current head for this key.
  const std::optional<uint64_t> prev = index_.Lookup(code);
  const PackedRowPtr back_ptr =
      prev.has_value() ? PackedRowPtr::FromBits(*prev) : PackedRowPtr::Null();
  IDF_ASSIGN_OR_RETURN(PackedRowPtr ptr,
                       store_.AppendRow(layout_, row, back_ptr));
  index_.Put(code, ptr.bits());
  return Status::OK();
}

Status IndexedPartition::InsertEncodedRows(std::span<const uint8_t*> rows) {
  IDF_CHECK_MSG(rows.size() < UINT32_MAX, "too many rows in one insert");
  const uint32_t n = static_cast<uint32_t>(rows.size());
  if (n == 0) return Status::OK();

  // Count pass: the key group of every row, in order of first appearance.
  KeyGroups groups;
  std::vector<uint32_t> dest(n);
  for (uint32_t i = 0; i < n; ++i) {
    dest[i] = layout_.IsNull(rows[i], key_column_)
                  ? groups.AddNull()
                  : groups.Add(layout_.KeyCode(rows[i], key_column_));
  }
  // dest[i] becomes row i's position in grouped order, and ends[g] one
  // past group g's last position. Then permute rows into grouped order in
  // place, one cycle at a time: each swap puts one row where it belongs.
  std::vector<uint32_t> ends = groups.ExclusiveStarts();
  for (uint32_t i = 0; i < n; ++i) dest[i] = ends[dest[i]]++;
  for (uint32_t i = 0; i < n; ++i) {
    while (dest[i] != i) {
      const uint32_t j = dest[i];
      std::swap(rows[i], rows[j]);
      std::swap(dest[i], dest[j]);
    }
  }
  std::vector<uint32_t>().swap(dest);

  for (uint32_t g = 0, first = 0; g < ends.size(); first = ends[g++]) {
    const uint32_t end = ends[g];
    if (first == end) continue;
    // The run's head may sit in an older, possibly spilled batch; keep what
    // it touches pinned until the run is written.
    mem::AccessScope scope;
    if (g == KeyGroups::kNullGroup) {
      // Unindexed storage: reachable by scans, invisible to lookups.
      for (uint32_t p = first; p < end; ++p) {
        const uint8_t* row = rows[p];
        IDF_RETURN_IF_ERROR(
            store_.AppendEncoded(row, RowLayout::RowSize(row),
                                 PackedRowPtr::Null())
                .status());
      }
      continue;
    }
    const uint64_t code = groups.code(g);
    const std::optional<uint64_t> head = index_.Lookup(code);
    PackedRowPtr back =
        head.has_value() ? PackedRowPtr::FromBits(*head) : PackedRowPtr::Null();
    for (uint32_t p = first; p < end; ++p) {
      const uint8_t* row = rows[p];
      IDF_ASSIGN_OR_RETURN(
          back, store_.AppendEncoded(row, RowLayout::RowSize(row), back));
    }
    index_.Put(code, back.bits());
  }
  return Status::OK();
}

std::vector<RowVec> IndexedPartition::LookupRows(const Value& key) const {
  std::vector<RowVec> rows;
  const std::optional<LookupKey> probe = LookupKey::Encode(key);
  if (!probe.has_value()) return rows;
  ForEachMatch(probe->layout(), probe->row(), 0, [&](const uint8_t* row) {
    rows.push_back(layout_.DecodeRow(row));
  });
  return rows;
}

void IndexedPartition::ForEachBatch(
    const std::function<void(const uint8_t*, uint32_t)>& fn) const {
  for (uint32_t b = 0; b < store_.num_batches(); ++b) {
    // One scope per batch: a full scan's working set is the current batch,
    // not the whole partition — earlier batches may be evicted behind us.
    mem::AccessScope scope;
    const std::shared_ptr<RowBatch> batch = store_.batch(b);
    fn(batch->data(), batch->used());
  }
}

std::shared_ptr<IndexedPartition> IndexedPartition::Snapshot() const {
  // Logically const; see header. The single-writer discipline makes the
  // PartitionStore snapshot safe, and cTrie snapshots are lock-free.
  auto* self = const_cast<IndexedPartition*>(this);
  return std::shared_ptr<IndexedPartition>(new IndexedPartition(
      layout_.schema_ptr(), key_column_, self->index_.Snapshot(),
      self->store_.Snapshot()));
}

uint64_t IndexedPartition::IndexBytes() const {
  return index_.ComputeMemoryStats().approx_bytes;
}

}  // namespace idf
