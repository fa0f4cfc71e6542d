// Fixed-size worker pool used by the engine's executors.
//
// On this reproduction's single-core host the pool still provides the
// concurrency *semantics* the Indexed DataFrame needs (concurrent readers
// against cTrie snapshots, one writer per partition) even though parallel
// speedup is modeled by the discrete-event scheduler (see engine/cluster.h).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace idf {

class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; returns a future for its completion.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      IDF_CHECK_POOL_OPEN();
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  size_t num_threads() const { return workers_.size(); }

 private:
  void IDF_CHECK_POOL_OPEN() const;  // asserts not shut down (mutex held)
  void WorkerLoop();

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool shutdown_ = false;
};

}  // namespace idf
