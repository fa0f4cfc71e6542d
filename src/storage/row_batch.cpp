#include "storage/row_batch.h"

#include <cstdlib>
#include <cstring>
#include <fstream>

#include "obs/metrics_registry.h"

namespace idf {
namespace {
constexpr size_t kAlignment = 64;  // cache-line aligned buffers

/// Live-batch gauges (the counters PartitionStore kept privately before the
/// memory governor made residency a first-class, process-wide quantity).
struct BatchGauges {
  obs::Gauge& resident_bytes =
      obs::Registry::Global().GetGauge("storage.resident_bytes");
  obs::Gauge& num_batches =
      obs::Registry::Global().GetGauge("storage.num_batches");

  static BatchGauges& Get() {
    static BatchGauges* gauges = new BatchGauges();
    return *gauges;
  }
};

}  // namespace

uint64_t RowBatch::PaddedBytes(uint32_t capacity) {
  return (static_cast<uint64_t>(capacity) + kAlignment - 1) / kAlignment *
         kAlignment;
}

std::shared_ptr<RowBatch> RowBatch::Create(uint32_t capacity) {
  IDF_CHECK_MSG(capacity > 0, "zero-capacity row batch");
  const size_t padded = PaddedBytes(capacity);
  auto* buf = static_cast<uint8_t*>(std::aligned_alloc(kAlignment, padded));
  IDF_CHECK_MSG(buf != nullptr, "row batch allocation failed");
  // First-touch the whole buffer now. This keeps page faults out of the
  // append path and charges the allocation cost where it belongs — it is
  // also why very large batches hurt *write* performance when appends are
  // small (the Fig. 5 sweep's right-hand side).
  std::memset(buf, 0, padded);
  static obs::Counter& allocations =
      obs::Registry::Global().GetCounter("storage.row_batch.allocations");
  allocations.Increment();
  BatchGauges& gauges = BatchGauges::Get();
  gauges.num_batches.Add(1);
  gauges.resident_bytes.Add(static_cast<double>(padded));
  auto batch = std::shared_ptr<RowBatch>(new RowBatch(buf, capacity));
  // Registers the allocation with the memory governor; may evict sealed
  // batches elsewhere to make room.
  batch->AccountAllocated(padded);
  return batch;
}

RowBatch::~RowBatch() {
  // Must run before any member is torn down: blocks until an in-flight
  // eviction of this batch finishes, then deregisters it.
  RetireFromGovernor();
  BatchGauges& gauges = BatchGauges::Get();
  gauges.num_batches.Add(-1);
  if (data_ != nullptr) {
    gauges.resident_bytes.Add(-static_cast<double>(padded_bytes()));
    std::free(data_);
  }
}

Result<uint32_t> RowBatch::Allocate(uint32_t len) {
  IDF_CHECK(len > 0);
  IDF_CHECK_MSG(!sealed(), "append into a sealed row batch");
  if (len > remaining()) {
    return Status::ResourceExhausted("row batch full: need " +
                                     std::to_string(len) + " bytes, have " +
                                     std::to_string(remaining()));
  }
  const uint32_t offset = used_;
  used_ += len;
  ++num_rows_;
  return offset;
}

std::shared_ptr<RowBatch> RowBatch::Clone() const {
  static obs::Counter& clones =
      obs::Registry::Global().GetCounter("storage.row_batch.clones");
  clones.Increment();
  mem::AccessScope scope;
  EnsureReadable();
  std::shared_ptr<RowBatch> copy = Create(capacity_);
  std::memcpy(copy->data_, data_, used_);
  copy->used_ = used_;
  copy->num_rows_ = num_rows_;
  return copy;
}

void RowBatch::Seal() { SealForGovernor(); }

Result<uint64_t> RowBatch::SpillPayload(const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::Unavailable("cannot open spill file '" + path + "'");
  }
  // Rows are self-delimiting encoded bytes, written verbatim: a reload is
  // one read straight back into the buffer.
  out.write(reinterpret_cast<const char*>(data_), used_);
  out.flush();
  if (!out) return Status::Unavailable("short write to '" + path + "'");
  return static_cast<uint64_t>(used_);
}

void RowBatch::ReleasePayload() {
  BatchGauges::Get().resident_bytes.Add(-static_cast<double>(padded_bytes()));
  std::free(data_);
  data_ = nullptr;
}

Status RowBatch::ReloadPayload(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::Unavailable("cannot open spill file '" + path + "'");
  const size_t padded = PaddedBytes(capacity_);
  auto* buf = static_cast<uint8_t*>(std::aligned_alloc(kAlignment, padded));
  IDF_CHECK_MSG(buf != nullptr, "row batch reload allocation failed");
  std::memset(buf + used_, 0, padded - used_);
  in.read(reinterpret_cast<char*>(buf), used_);
  if (!in || in.gcount() != static_cast<std::streamsize>(used_)) {
    std::free(buf);
    return Status::Unavailable("short read from spill file '" + path + "'");
  }
  data_ = buf;
  BatchGauges::Get().resident_bytes.Add(static_cast<double>(padded_bytes()));
  return Status::OK();
}

}  // namespace idf
