// Hash-partitioned shuffle — the data-movement primitive behind index
// creation, appends, and indexed joins (§III-C "Scheduling Physical
// Operators": rows are hash-partitioned on the indexed key and shuffled to
// their indexed partitions), as well as the vanilla shuffled-hash and
// sort-merge joins.
//
// Two transports share one block store (docs/SHUFFLE.md):
//  - barrier: map tasks publish their complete per-reducer buffers with
//    PutMapOutput; reduce tasks fetch everything at once with
//    FetchReduceInputs after the map stage's barrier.
//  - streaming: map tasks push buffers as they seal (PushMapOutput) into
//    per-reduce-partition channels; reduce tasks pull them concurrently, in
//    (map task id, seal sequence) order, through a ReduceInputStream. A
//    byte-bounded backpressure window keeps routed-but-unconsumed bytes from
//    blowing the memory governor's budget, with one carve-out — the smallest
//    unfinished map task is always admitted — that makes the window
//    deadlock-free (the map every consumer could be waiting on can never
//    block on the window itself).
//
// Byte counts and source executors feed the network model either way.
#pragma once

#include <cstdint>
#include <cstring>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "engine/topology.h"

namespace idf {

/// Deterministic hash partitioner (§III-C: "hash partitioning ensures better
/// load balancing when the key ranges are not known a-priori"). Partitioning
/// must be stable across runs: it is part of the lineage.
inline uint32_t HashPartition(uint64_t key_code, uint32_t num_partitions) {
  IDF_CHECK(num_partitions > 0);
  return static_cast<uint32_t>(Mix64(key_code) % num_partitions);
}

/// True when the streaming shuffle pipeline is enabled (IDF_SHUFFLE_PIPELINE;
/// default on, "0" selects the classic two-stage barrier path). Re-read on
/// every shuffle so tests and benches can A/B without a new process.
bool ShufflePipelineEnabled();

/// Backpressure window for streaming shuffles: a quarter of the memory
/// governor's budget capped at 64 MB, else 64 MB.
uint64_t ShuffleWindowBytes();

/// The Status a streaming producer/consumer unblocks with when the shuffle
/// was aborted (a peer task failed and the stage is being cancelled). Merge
/// logic prefers the root-cause failure over these secondary statuses.
inline Status ShuffleAbortedStatus() {
  return Status::Unavailable("shuffle aborted");
}
inline bool IsShuffleAborted(const Status& status) {
  return !status.ok() && status.message() == "shuffle aborted";
}

/// One map task's output for one reduce partition: concatenated encoded rows.
struct ShuffleBuffer {
  std::vector<uint8_t> bytes;
  uint32_t num_rows = 0;
  ExecutorId source = kAnyExecutor;

  void Reserve(size_t capacity) { bytes.reserve(capacity); }

  void AppendRow(const uint8_t* row, uint32_t len) {
    bytes.insert(bytes.end(), row, row + len);
    ++num_rows;
  }
};

/// Iterates the encoded rows in a shuffle buffer. Rows are self-delimiting
/// (their first 4 bytes hold the row size).
class ShuffleBufferReader {
 public:
  explicit ShuffleBufferReader(const ShuffleBuffer& buffer)
      : buffer_(buffer) {}

  bool HasNext() const { return cursor_ < buffer_.bytes.size(); }

  /// Returns a pointer to the next encoded row and advances.
  const uint8_t* Next() {
    IDF_CHECK(HasNext());
    const uint8_t* row = buffer_.bytes.data() + cursor_;
    uint32_t size;
    std::memcpy(&size, row, sizeof(size));
    IDF_CHECK_MSG(size >= 16 && cursor_ + size <= buffer_.bytes.size(),
                  "corrupt shuffle buffer");
    cursor_ += size;
    return row;
  }

 private:
  const ShuffleBuffer& buffer_;
  size_t cursor_ = 0;
};

class ShuffleService;

/// Ordered stream of routed buffers a reduce-side consumer drains — the
/// transport-agnostic face of both shuffle modes. Buffers arrive in
/// (map task id, seal sequence) order, so the concatenated byte stream a
/// consumer sees is identical to the barrier path's FetchReduceInputs
/// concatenation: insert order, cTrie state, and COW batch counts stay
/// byte-identical across modes.
class RoutedBufferStream {
 public:
  virtual ~RoutedBufferStream() = default;

  /// Next routed buffer; nullptr at end of stream. Streaming implementations
  /// block until a buffer arrives (or the shuffle aborts).
  virtual Result<std::shared_ptr<const ShuffleBuffer>> Next() = 0;
};

/// Barrier-mode stream: a fetched input vector, replayed in order.
class BarrierReduceInput final : public RoutedBufferStream {
 public:
  explicit BarrierReduceInput(
      std::vector<std::shared_ptr<const ShuffleBuffer>> buffers)
      : buffers_(std::move(buffers)) {}

  Result<std::shared_ptr<const ShuffleBuffer>> Next() override {
    if (index_ >= buffers_.size()) {
      return std::shared_ptr<const ShuffleBuffer>();
    }
    return buffers_[index_++];
  }

 private:
  std::vector<std::shared_ptr<const ShuffleBuffer>> buffers_;
  size_t index_ = 0;
};

/// Streaming-mode stream: the pull side of one reduce partition's channel.
/// `idle` runs whenever the channel is momentarily dry — the work-stealing
/// hook (Cluster::TryHelpPipelinedMapTask) that lets a starved consumer lane
/// execute a backlogged map peer's pending FetchChunk/encode work instead of
/// sleeping; return true after doing work, false to block on the channel.
/// `on_map_read` fires once per map task whose contribution to this
/// partition completed with > 0 bytes — aggregated exactly like the barrier
/// path's one AddRead per non-empty (map, reduce) buffer, so the DES read
/// list is identical.
class ReduceInputStream final : public RoutedBufferStream {
 public:
  ReduceInputStream(ShuffleService& service, uint64_t shuffle,
                    uint32_t reduce_part, std::function<bool()> idle,
                    std::function<void(ExecutorId, uint64_t)> on_map_read)
      : service_(&service),
        shuffle_(shuffle),
        reduce_part_(reduce_part),
        idle_(std::move(idle)),
        on_map_read_(std::move(on_map_read)) {}

  Result<std::shared_ptr<const ShuffleBuffer>> Next() override;

 private:
  ShuffleService* service_;
  uint64_t shuffle_;
  uint32_t reduce_part_;
  std::function<bool()> idle_;
  std::function<void(ExecutorId, uint64_t)> on_map_read_;
  uint32_t map_cursor_ = 0;       // map id currently being drained
  uint64_t map_bytes_ = 0;        // bytes delivered from map_cursor_ so far
  ExecutorId map_source_ = kAnyExecutor;
};

/// Map-side routed-row writer shared by both transports. Rows append into
/// per-target buffers whose backing vectors are pre-reserved from a
/// routed-rows hint (first encoded row sizes the estimate), so the buffers
/// stop reallocating one row at a time. In streaming mode a buffer is pushed
/// into its channel the moment it reaches the seal threshold — that is what
/// overlaps encode with transfer and insert — and Finish() pushes the
/// remainders and declares the map task done. In barrier mode everything is
/// published at Finish() via PutMapOutput, exactly like the classic path.
class ShuffleWriter {
 public:
  /// Buffers seal (and stream) at this size; small enough that a map task's
  /// first sealed buffer reaches its consumer early, large enough that
  /// channel overhead is noise.
  static constexpr size_t kSealThresholdBytes = 256 * 1024;

  ShuffleWriter(ShuffleService& service, uint64_t shuffle, uint32_t map_task,
                uint32_t num_targets, ExecutorId source, bool streaming,
                uint64_t hint_rows)
      : service_(&service),
        shuffle_(shuffle),
        map_task_(map_task),
        source_(source),
        streaming_(streaming),
        hint_rows_(hint_rows),
        buffers_(num_targets) {}

  /// Routes one encoded row to `target`. Returns ShuffleAbortedStatus() when
  /// a streaming push found the shuffle cancelled.
  Status Append(uint32_t target, const uint8_t* row, uint32_t len);

  /// Publishes the remaining buffers; streaming mode then marks this map
  /// task finished so consumers can advance past it.
  Status Finish();

  /// Total routed bytes (metrics: shuffle_bytes_written). Identical to the
  /// sum of all published buffer sizes.
  uint64_t bytes_written() const { return bytes_written_; }

 private:
  ShuffleService* service_;
  uint64_t shuffle_;
  uint32_t map_task_;
  ExecutorId source_;
  bool streaming_;
  uint64_t hint_rows_;
  uint64_t bytes_written_ = 0;
  size_t reserve_per_target_ = 0;  // sized off the first routed row
  bool finished_ = false;
  std::vector<ShuffleBuffer> buffers_;
};

/// Cluster-wide shuffle block store plus streaming channels. Thread-safe.
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

  void PutMapOutput(uint64_t shuffle, uint32_t map_task, uint32_t reduce_part,
                    ShuffleBuffer buffer) {
    std::lock_guard<std::mutex> lock(mutex_);
    State& s = GetState(shuffle);
    IDF_CHECK(map_task < s.num_map && reduce_part < s.num_reduce);
    s.outputs[static_cast<size_t>(map_task) * s.num_reduce + reduce_part] =
        std::make_shared<ShuffleBuffer>(std::move(buffer));
  }

  /// All map outputs destined for one reduce partition (missing/empty map
  /// outputs are skipped).
  std::vector<std::shared_ptr<const ShuffleBuffer>> FetchReduceInputs(
      uint64_t shuffle, uint32_t reduce_part) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const State& s = GetState(shuffle);
    IDF_CHECK(reduce_part < s.num_reduce);
    std::vector<std::shared_ptr<const ShuffleBuffer>> inputs;
    for (uint32_t m = 0; m < s.num_map; ++m) {
      const auto& buf =
          s.outputs[static_cast<size_t>(m) * s.num_reduce + reduce_part];
      if (buf != nullptr && buf->num_rows > 0) inputs.push_back(buf);
    }
    return inputs;
  }

  uint64_t BytesForReduce(uint64_t shuffle, uint32_t reduce_part) const {
    uint64_t total = 0;
    for (const auto& buf : FetchReduceInputs(shuffle, reduce_part)) {
      total += buf->bytes.size();
    }
    return total;
  }

  uint64_t TotalBytes(uint64_t shuffle) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const State& s = GetState(shuffle);
    uint64_t total = 0;
    for (const auto& buf : s.outputs) {
      if (buf != nullptr) total += buf->bytes.size();
    }
    return total;
  }

  /// Frees a completed shuffle's buffers.
  void Release(uint64_t shuffle) {
    std::lock_guard<std::mutex> lock(mutex_);
    shuffles_.erase(shuffle);
  }

  // ---- streaming channels (docs/SHUFFLE.md) -----------------------------

  /// Arms the streaming transport for `shuffle`: one ordered channel per
  /// reduce partition. `window_bytes` bounds pushed-but-undelivered bytes;
  /// enforcement only engages when `enforce_window` (the fused parallel
  /// path — a single-threaded run would deadlock against itself) and the
  /// window is non-zero.
  void StartStreaming(uint64_t shuffle, uint64_t window_bytes,
                      bool enforce_window);

  /// Streaming push of one sealed buffer. Blocks while the window is full,
  /// except for the smallest unfinished map task (always admitted — the
  /// liveness carve-out). Returns false when the shuffle was aborted; the
  /// buffer is then dropped and the caller should unwind with
  /// ShuffleAbortedStatus().
  bool PushMapOutput(uint64_t shuffle, uint32_t map_task, uint32_t reduce_part,
                     ShuffleBuffer buffer);

  /// Marks a map task complete: consumers may advance past it, and the
  /// window's always-admit carve-out moves to the next unfinished map.
  void MapTaskFinished(uint64_t shuffle, uint32_t map_task);

  /// Cancels a streaming shuffle: every blocked producer and consumer wakes
  /// and unwinds with ShuffleAbortedStatus(). Idempotent.
  void AbortStreaming(uint64_t shuffle);

  /// Peak pushed-but-undelivered bytes observed on a streaming shuffle.
  uint64_t InflightPeakBytes(uint64_t shuffle) const;

 private:
  friend class ReduceInputStream;

  /// One reduce partition's ordered channel.
  struct Channel {
    std::condition_variable cv;
    // per_map[m]: buffers pushed by map task m, in seal-sequence order.
    std::vector<std::deque<std::shared_ptr<ShuffleBuffer>>> per_map;
  };

  struct State {
    uint32_t num_map = 0;
    uint32_t num_reduce = 0;
    // [map * num_reduce + reduce] — barrier transport.
    std::vector<std::shared_ptr<ShuffleBuffer>> outputs;
    // Streaming transport.
    bool streaming = false;
    bool enforce = false;
    bool aborted = false;
    uint64_t window = 0;
    uint64_t inflight = 0;       // pushed - delivered bytes
    uint64_t inflight_peak = 0;
    uint32_t min_unfinished = 0; // smallest map id not yet finished
    std::vector<char> map_finished;
    std::condition_variable push_cv;  // producers blocked on the window
    std::vector<std::unique_ptr<Channel>> channels;
  };

  /// Delivers the next buffer for `reduce_part` in (map, seq) order; the
  /// cursor state lives in the caller's ReduceInputStream. nullptr at end.
  Result<std::shared_ptr<const ShuffleBuffer>> PullNext(
      uint64_t shuffle, uint32_t reduce_part, uint32_t* map_cursor,
      uint64_t* map_bytes, ExecutorId* map_source,
      const std::function<bool()>& idle,
      const std::function<void(ExecutorId, uint64_t)>& on_map_read);

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
