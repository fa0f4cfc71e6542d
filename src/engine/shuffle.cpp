#include "engine/shuffle.h"

#include <algorithm>

#include "obs/flight_recorder.h"

namespace idf {

// ---- ShuffleWriter --------------------------------------------------------

void ShuffleWriter::Append(uint32_t target, const uint8_t* row, uint32_t len) {
  IDF_CHECK(!finished_ && target < buffers_.size());
  if (reserve_per_target_ == 0) {
    // First routed row sizes the estimate: hint_rows spread evenly over the
    // targets, at this row's width, capped at kMaxReserveBytes.
    const uint64_t per_target_rows = std::max<uint64_t>(
        1, (hint_rows_ + buffers_.size() - 1) / buffers_.size());
    reserve_per_target_ = static_cast<size_t>(
        std::min<uint64_t>(kMaxReserveBytes, per_target_rows * len));
  }
  ShuffleBuffer& buf = buffers_[target];
  if (buf.bytes.capacity() == 0) buf.bytes.reserve(reserve_per_target_);
  buf.AppendRow(row, len);
  bytes_written_ += len;
}

void ShuffleWriter::Finish() {
  if (finished_) return;
  finished_ = true;
  for (uint32_t t = 0; t < buffers_.size(); ++t) {
    ShuffleBuffer& buf = buffers_[t];
    if (buf.num_rows == 0) continue;
    buf.source = source_;
    service_->PutMapOutput(shuffle_, map_task_, t, std::move(buf));
  }
}

// ---- ShuffleService -------------------------------------------------------

void ShuffleService::PutMapOutput(uint64_t shuffle, uint32_t map_task,
                                  uint32_t reduce_part, ShuffleBuffer buffer) {
  const uint64_t size = buffer.bytes.size();
  const bool non_empty = buffer.num_rows > 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    State& s = GetState(shuffle);
    IDF_CHECK(map_task < s.num_map && reduce_part < s.num_reduce);
    s.outputs[static_cast<size_t>(map_task) * s.num_reduce + reduce_part] =
        std::make_shared<ShuffleBuffer>(std::move(buffer));
  }
  if (!non_empty) return;
  obs::FlightRecorder::Global().Record(obs::EventType::kShufflePush,
                                       /*name_id=*/0, size, map_task,
                                       reduce_part);
}

}  // namespace idf
