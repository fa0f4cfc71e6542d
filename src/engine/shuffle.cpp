#include "engine/shuffle.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "mem/governor.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "testing/chaos.h"

namespace idf {
namespace {

/// Cached registry handles — registry lookups take a mutex; pushes happen
/// per sealed buffer on the map hot path.
struct ShuffleMetrics {
  obs::Counter& pushed_bytes;
  obs::Histogram& stall_seconds;
  obs::Gauge& inflight_peak_bytes;

  static ShuffleMetrics& Get() {
    static ShuffleMetrics m{
        obs::Registry::Global().GetCounter("engine.shuffle.pushed_bytes"),
        obs::Registry::Global().GetHistogram("engine.shuffle.stall_seconds"),
        obs::Registry::Global().GetGauge("engine.shuffle.inflight_peak_bytes")};
    return m;
  }
};

uint64_t ElapsedMicros(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

void RecordStall(uint64_t micros, uint64_t task, bool drain_side) {
  ShuffleMetrics::Get().stall_seconds.Observe(
      static_cast<double>(micros) / 1e6);
  obs::FlightRecorder::Global().Record(obs::EventType::kShuffleStall,
                                       /*name_id=*/0, micros, task,
                                       drain_side ? 1 : 0);
}

}  // namespace

bool ShufflePipelineEnabled() {
  // Re-read each call: fig benches and the identity tests flip this between
  // runs inside one process.
  if (const char* env = std::getenv("IDF_SHUFFLE_PIPELINE")) {
    return !(env[0] == '0' && env[1] == '\0');
  }
  return true;
}

uint64_t ShuffleWindowBytes() {
  constexpr uint64_t kDefaultWindow = 64ull << 20;
  if (mem::MemoryGovernor::Engaged()) {
    const uint64_t budget = mem::MemoryGovernor::Global().budget_bytes();
    if (budget > 0) return std::min(kDefaultWindow, budget / 4);
  }
  return kDefaultWindow;
}

// ---- ShuffleWriter --------------------------------------------------------

Status ShuffleWriter::Append(uint32_t target, const uint8_t* row,
                             uint32_t len) {
  IDF_CHECK(!finished_ && target < buffers_.size());
  if (reserve_per_target_ == 0) {
    // First routed row sizes the estimate: hint_rows spread evenly over the
    // targets, at this row's width, capped at the seal threshold (streaming
    // buffers never grow past it anyway).
    const uint64_t per_target_rows = std::max<uint64_t>(
        1, (hint_rows_ + buffers_.size() - 1) / buffers_.size());
    reserve_per_target_ = static_cast<size_t>(
        std::min<uint64_t>(kSealThresholdBytes, per_target_rows * len));
  }
  ShuffleBuffer& buf = buffers_[target];
  if (buf.bytes.capacity() == 0) buf.Reserve(reserve_per_target_);
  buf.AppendRow(row, len);
  bytes_written_ += len;
  if (streaming_ && buf.bytes.size() >= kSealThresholdBytes) {
    ShuffleBuffer sealed = std::move(buf);
    sealed.source = source_;
    buf = ShuffleBuffer{};
    buf.Reserve(reserve_per_target_);
    if (!service_->PushMapOutput(shuffle_, map_task_, target,
                                 std::move(sealed))) {
      return ShuffleAbortedStatus();
    }
  }
  return Status::OK();
}

Status ShuffleWriter::Finish() {
  if (finished_) return Status::OK();
  finished_ = true;
  Status result = Status::OK();
  for (uint32_t t = 0; t < buffers_.size(); ++t) {
    ShuffleBuffer& buf = buffers_[t];
    if (buf.num_rows == 0) continue;
    buf.source = source_;
    if (streaming_) {
      if (result.ok() &&
          !service_->PushMapOutput(shuffle_, map_task_, t, std::move(buf))) {
        result = ShuffleAbortedStatus();
      }
    } else {
      service_->PutMapOutput(shuffle_, map_task_, t, std::move(buf));
    }
  }
  // Declare completion even when aborting: consumers blocked on this map's
  // channel must be able to advance (abort wakes them too — belt and
  // braces for the window's min-unfinished carve-out).
  if (streaming_) service_->MapTaskFinished(shuffle_, map_task_);
  return result;
}

// ---- streaming channels ---------------------------------------------------

void ShuffleService::StartStreaming(uint64_t shuffle, uint64_t window_bytes,
                                    bool enforce_window) {
  std::lock_guard<std::mutex> lock(mutex_);
  State& s = GetState(shuffle);
  s.streaming = true;
  s.enforce = enforce_window && window_bytes > 0;
  s.aborted = false;
  s.window = window_bytes;
  s.inflight = 0;
  s.inflight_peak = 0;
  s.min_unfinished = 0;
  s.map_finished.assign(s.num_map, 0);
  s.channels.clear();
  s.channels.reserve(s.num_reduce);
  for (uint32_t r = 0; r < s.num_reduce; ++r) {
    auto channel = std::make_unique<Channel>();
    channel->per_map.resize(s.num_map);
    s.channels.push_back(std::move(channel));
  }
}

bool ShuffleService::PushMapOutput(uint64_t shuffle, uint32_t map_task,
                                   uint32_t reduce_part,
                                   ShuffleBuffer buffer) {
  // Chaos push site: delay the seal-push before taking the service lock
  // (the consumer side observes a late contribution, not a held lock), or
  // abort the whole stream mid-flight — every producer and consumer then
  // unwinds with ShuffleAbortedStatus, the retryable path the differential
  // gate accepts.
  if (chaos::ChaosEngine::Active()) {
    const chaos::ShuffleAction action =
        chaos::ChaosEngine::Global().OnShufflePush(shuffle, map_task,
                                                   reduce_part);
    if (action.delay_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(action.delay_us));
    }
    if (action.abort) AbortStreaming(shuffle);
  }
  const uint64_t size = buffer.bytes.size();
  auto buf = std::make_shared<ShuffleBuffer>(std::move(buffer));
  uint64_t stall_us = 0;
  uint64_t peak = 0;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    State& s = GetState(shuffle);
    IDF_CHECK_MSG(s.streaming, "streaming push on a barrier shuffle");
    IDF_CHECK(map_task < s.num_map && reduce_part < s.num_reduce);
    // Window admission. The smallest unfinished map task is always admitted:
    // it is the map every ordered consumer may be blocked on, so stalling it
    // against a full window could deadlock; admitting it bounds peak
    // inflight at window + one map task's output.
    const auto admitted = [&] {
      return s.aborted || !s.enforce || map_task == s.min_unfinished ||
             s.inflight + size <= s.window;
    };
    if (!admitted()) {
      const auto start = std::chrono::steady_clock::now();
      s.push_cv.wait(lock, admitted);
      stall_us = ElapsedMicros(start);
    }
    if (s.aborted) {
      lock.unlock();
      if (stall_us > 0) RecordStall(stall_us, map_task, /*drain_side=*/false);
      return false;
    }
    s.inflight += size;
    s.inflight_peak = std::max(s.inflight_peak, s.inflight);
    peak = s.inflight_peak;
    s.channels[reduce_part]->per_map[map_task].push_back(std::move(buf));
    s.channels[reduce_part]->cv.notify_all();
  }
  if (stall_us > 0) RecordStall(stall_us, map_task, /*drain_side=*/false);
  auto& metrics = ShuffleMetrics::Get();
  metrics.pushed_bytes.Add(size);
  if (static_cast<double>(peak) > metrics.inflight_peak_bytes.value()) {
    metrics.inflight_peak_bytes.Set(static_cast<double>(peak));
  }
  obs::FlightRecorder::Global().Record(obs::EventType::kShufflePush,
                                       /*name_id=*/0, size, map_task,
                                       reduce_part);
  return true;
}

void ShuffleService::MapTaskFinished(uint64_t shuffle, uint32_t map_task) {
  std::lock_guard<std::mutex> lock(mutex_);
  State& s = GetState(shuffle);
  if (!s.streaming) return;
  IDF_CHECK(map_task < s.num_map);
  s.map_finished[map_task] = 1;
  while (s.min_unfinished < s.num_map && s.map_finished[s.min_unfinished]) {
    ++s.min_unfinished;
  }
  // The always-admit carve-out moved: blocked producers re-evaluate, and
  // consumers waiting on this map's channel can now advance past it.
  s.push_cv.notify_all();
  for (auto& channel : s.channels) channel->cv.notify_all();
}

void ShuffleService::AbortStreaming(uint64_t shuffle) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = shuffles_.find(shuffle);
  if (it == shuffles_.end()) return;  // already released
  State& s = it->second;
  if (!s.streaming || s.aborted) return;
  s.aborted = true;
  s.push_cv.notify_all();
  for (auto& channel : s.channels) channel->cv.notify_all();
}

uint64_t ShuffleService::InflightPeakBytes(uint64_t shuffle) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return GetState(shuffle).inflight_peak;
}

Result<std::shared_ptr<const ShuffleBuffer>> ShuffleService::PullNext(
    uint64_t shuffle, uint32_t reduce_part, uint32_t* map_cursor,
    uint64_t* map_bytes, ExecutorId* map_source,
    const std::function<bool()>& idle,
    const std::function<void(ExecutorId, uint64_t)>& on_map_read) {
  // Chaos pull site: stall this consumer's channel before it takes the
  // lock, shearing the drain order against the producers.
  if (chaos::ChaosEngine::Active()) {
    const uint32_t delay_us =
        chaos::ChaosEngine::Global().OnShufflePullDelayUs(shuffle,
                                                          reduce_part);
    if (delay_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
    }
  }
  for (;;) {
    std::shared_ptr<ShuffleBuffer> delivered;
    ExecutorId read_source = kAnyExecutor;
    uint64_t read_bytes = 0;
    bool fire_read = false;
    bool at_end = false;
    bool must_wait = false;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      State& s = GetState(shuffle);
      IDF_CHECK_MSG(s.streaming, "streaming pull on a barrier shuffle");
      IDF_CHECK(reduce_part < s.num_reduce);
      Channel& channel = *s.channels[reduce_part];
      for (;;) {
        if (s.aborted) return ShuffleAbortedStatus();
        if (*map_cursor >= s.num_map) {
          at_end = true;
          break;
        }
        auto& queue = channel.per_map[*map_cursor];
        if (!queue.empty()) {
          delivered = std::move(queue.front());
          queue.pop_front();
          *map_bytes += delivered->bytes.size();
          *map_source = delivered->source;
          s.inflight -= delivered->bytes.size();
          s.push_cv.notify_all();
          break;
        }
        if (s.map_finished[*map_cursor]) {
          // Map drained: emit its aggregated network read (matching the
          // barrier path's one AddRead per non-empty map output), then
          // advance. Fired outside the lock.
          if (*map_bytes > 0) {
            fire_read = true;
            read_source = *map_source;
            read_bytes = *map_bytes;
          }
          *map_bytes = 0;
          ++*map_cursor;
          if (fire_read) break;
          continue;
        }
        must_wait = true;
        break;
      }
    }
    if (fire_read) {
      if (on_map_read) on_map_read(read_source, read_bytes);
      continue;
    }
    if (at_end) return std::shared_ptr<const ShuffleBuffer>();
    if (delivered != nullptr) {
      obs::FlightRecorder::Global().Record(obs::EventType::kShuffleDrain,
                                           /*name_id=*/0,
                                           delivered->bytes.size(),
                                           *map_cursor, reduce_part);
      return std::shared_ptr<const ShuffleBuffer>(std::move(delivered));
    }
    IDF_CHECK(must_wait);
    // Channel momentarily dry: steal pending map work instead of sleeping
    // when the hook has any, else block until this map pushes or finishes.
    if (idle && idle()) continue;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      State& s = GetState(shuffle);
      Channel& channel = *s.channels[reduce_part];
      const uint32_t m = *map_cursor;
      if (!s.aborted && m < s.num_map && channel.per_map[m].empty() &&
          !s.map_finished[m]) {
        const auto start = std::chrono::steady_clock::now();
        channel.cv.wait(lock, [&] {
          return s.aborted || !channel.per_map[m].empty() ||
                 s.map_finished[m];
        });
        const uint64_t stall_us = ElapsedMicros(start);
        lock.unlock();
        if (stall_us > 0) RecordStall(stall_us, reduce_part, /*drain_side=*/true);
      }
    }
  }
}

Result<std::shared_ptr<const ShuffleBuffer>> ReduceInputStream::Next() {
  return service_->PullNext(shuffle_, reduce_part_, &map_cursor_, &map_bytes_,
                            &map_source_, idle_, on_map_read_);
}

}  // namespace idf
