// Hash-partitioned shuffle — the data-movement primitive behind index
// creation, appends, and indexed joins (§III-C "Scheduling Physical
// Operators": rows are hash-partitioned on the indexed key and shuffled to
// their indexed partitions), as well as the vanilla shuffled-hash join and
// two-phase aggregation.
//
// Every exchange runs through Cluster::RunExchange (engine/cluster.h): it
// allocates the shuffles, hands each map task a ShuffleWriter, whose
// Finish() publishes the task's per-reducer buffers with PutMapOutput, and
// after the map stages' barrier gives each reduce task everything routed to
// its partition (FetchReduceInputs); it releases the shuffles on every path
// (docs/SHUFFLE.md). Byte counts and source executors feed the network model.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "engine/topology.h"
#include "storage/row_layout.h"

namespace idf {

/// Deterministic hash partitioner (§III-C: "hash partitioning ensures better
/// load balancing when the key ranges are not known a-priori"). Partitioning
/// must be stable across runs: it is part of the lineage.
inline uint32_t HashPartition(uint64_t key_code, uint32_t num_partitions) {
  IDF_CHECK(num_partitions > 0);
  return static_cast<uint32_t>(Mix64(key_code) % num_partitions);
}

/// One map task's output for one reduce partition: concatenated encoded rows.
struct ShuffleBuffer {
  std::vector<uint8_t> bytes;
  uint32_t num_rows = 0;
  ExecutorId source = kAnyExecutor;

  void AppendRow(const uint8_t* row, uint32_t len) {
    bytes.insert(bytes.end(), row, row + len);
    ++num_rows;
  }

  /// Calls fn(row) for each of the buffer's rows, in order. Rows are
  /// self-delimiting: their first 4 bytes hold the row size.
  template <typename Fn>
  void ForEachRow(Fn&& fn) const {
    IDF_CHECK_MSG(RowLayout::ForEachRow(bytes.data(), bytes.size(), fn),
                  "corrupt shuffle buffer");
  }
  /// Appends a pointer to each of the buffer's rows to `rows`.
  void SplitRows(std::vector<const uint8_t*>& rows) const {
    ForEachRow([&rows](const uint8_t* row) { rows.push_back(row); });
  }
};

/// Everything routed to one reduce partition, in map-task order.
using ShuffleInputs = std::vector<std::shared_ptr<const ShuffleBuffer>>;

class ShuffleService;

/// Map-side routed-row writer. Rows append into per-target buffers whose
/// backing vectors are pre-reserved from a routed-rows hint (ExpectRows; the
/// first encoded row sizes the estimate), so the buffers stop reallocating
/// one row at a time. Finish() publishes every non-empty buffer via
/// PutMapOutput.
class ShuffleWriter {
 public:
  /// Caps the up-front reservation per target: an over-estimate (skewed
  /// keys, a wide first row) wastes at most this much per buffer.
  static constexpr size_t kMaxReserveBytes = 256 * 1024;

  ShuffleWriter(ShuffleService& service, uint64_t shuffle, uint32_t map_task,
                uint32_t num_targets, ExecutorId source)
      : service_(&service),
        shuffle_(shuffle),
        map_task_(map_task),
        source_(source),
        buffers_(num_targets) {}

  /// Hints how many rows this task will route, spread evenly over the
  /// targets; sizes the reservations made from the first Append on.
  void ExpectRows(uint64_t rows) { hint_rows_ = rows; }

  /// Routes one encoded row to `target`.
  void Append(uint32_t target, const uint8_t* row, uint32_t len);

  /// Publishes the non-empty buffers.
  void Finish();

  /// Total routed bytes (metrics: shuffle_bytes_written). Identical to the
  /// sum of all published buffer sizes.
  uint64_t bytes_written() const { return bytes_written_; }

 private:
  ShuffleService* service_;
  uint64_t shuffle_;
  uint32_t map_task_;
  ExecutorId source_;
  uint64_t hint_rows_ = 0;
  uint64_t bytes_written_ = 0;
  size_t reserve_per_target_ = 0;  // sized off the first routed row
  bool finished_ = false;
  std::vector<ShuffleBuffer> buffers_;
};

/// Cluster-wide shuffle block store. Thread-safe.
class ShuffleService {
 public:
  /// Registers a new shuffle; returns its id.
  uint64_t NewShuffle(uint32_t num_map_tasks, uint32_t num_reduce_tasks) {
    std::lock_guard<std::mutex> lock(mutex_);
    const uint64_t id = next_id_++;
    auto& s = shuffles_[id];
    s.num_map = num_map_tasks;
    s.num_reduce = num_reduce_tasks;
    s.outputs.resize(static_cast<size_t>(num_map_tasks) * num_reduce_tasks);
    return id;
  }

  /// Publishes one map task's buffer for `reduce_part`. A non-empty buffer
  /// counts towards engine.shuffle.pushed_bytes and records a shuffle_push
  /// event.
  void PutMapOutput(uint64_t shuffle, uint32_t map_task, uint32_t reduce_part,
                    ShuffleBuffer buffer);

  /// All map outputs destined for one reduce partition (missing/empty map
  /// outputs are skipped).
  ShuffleInputs FetchReduceInputs(uint64_t shuffle,
                                  uint32_t reduce_part) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const State& s = GetState(shuffle);
    IDF_CHECK(reduce_part < s.num_reduce);
    ShuffleInputs inputs;
    for (uint32_t m = 0; m < s.num_map; ++m) {
      const auto& buf =
          s.outputs[static_cast<size_t>(m) * s.num_reduce + reduce_part];
      if (buf != nullptr && buf->num_rows > 0) inputs.push_back(buf);
    }
    return inputs;
  }

  /// Frees a completed shuffle's buffers.
  void Release(uint64_t shuffle) {
    std::lock_guard<std::mutex> lock(mutex_);
    shuffles_.erase(shuffle);
  }

  /// Shuffles registered and not yet released.
  size_t num_shuffles() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return shuffles_.size();
  }

 private:
  struct State {
    uint32_t num_map = 0;
    uint32_t num_reduce = 0;
    // [map * num_reduce + reduce]
    std::vector<std::shared_ptr<ShuffleBuffer>> outputs;
  };

  const State& GetState(uint64_t id) const {
    auto it = shuffles_.find(id);
    IDF_CHECK_MSG(it != shuffles_.end(), "unknown shuffle id");
    return it->second;
  }
  State& GetState(uint64_t id) {
    auto it = shuffles_.find(id);
    IDF_CHECK_MSG(it != shuffles_.end(), "unknown shuffle id");
    return it->second;
  }

  mutable std::mutex mutex_;
  std::map<uint64_t, State> shuffles_;
  uint64_t next_id_ = 1;
};

}  // namespace idf
