#include "engine/scheduler.h"

#include <algorithm>
#include <cstdlib>
#include <thread>

namespace idf {

uint32_t ResolveSchedulerThreads(const ClusterConfig& config) {
  if (const char* env = std::getenv("IDF_PARALLEL");
      env != nullptr && env[0] != '\0') {
    const long v = std::strtol(env, nullptr, 10);
    return v <= 1 ? 1u : static_cast<uint32_t>(v);
  }
  if (config.scheduler_threads > 0) return config.scheduler_threads;
  const uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::max(1u, std::min(config.total_executors(), hw));
}

TaskLanes::TaskLanes(const std::vector<uint32_t>& lane_of, size_t num_lanes,
                     const std::vector<uint32_t>& dispatch_order)
    : lanes_(num_lanes) {
  if (dispatch_order.empty()) {
    for (uint32_t i = 0; i < lane_of.size(); ++i) {
      lanes_[lane_of[i]].push_back(i);
    }
    return;
  }
  for (uint32_t i : dispatch_order) {
    lanes_[lane_of[i]].push_back(i);
  }
}

bool TaskLanes::Pop(size_t home, uint32_t* task_index, bool* stolen) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (home < lanes_.size() && !lanes_[home].empty()) {
    *task_index = lanes_[home].front();
    lanes_[home].pop_front();
    *stolen = false;
    return true;
  }
  // Steal from the most backlogged lane — evens out skew and keeps the
  // victim's remaining tasks local to its own worker.
  size_t victim = lanes_.size();
  for (size_t l = 0; l < lanes_.size(); ++l) {
    if (lanes_[l].empty()) continue;
    if (victim == lanes_.size() || lanes_[l].size() > lanes_[victim].size()) {
      victim = l;
    }
  }
  if (victim == lanes_.size()) return false;
  *task_index = lanes_[victim].front();
  lanes_[victim].pop_front();
  *stolen = true;
  return true;
}

}  // namespace idf
