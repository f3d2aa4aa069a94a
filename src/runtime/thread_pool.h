#ifndef TIOGA2_RUNTIME_THREAD_POOL_H_
#define TIOGA2_RUNTIME_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tioga2::runtime {

/// A fixed-size worker pool with a FIFO task queue; the SessionServer runs
/// each request on one worker. Tasks may submit further tasks. Destruction
/// drains the queue: every task submitted before the destructor runs is
/// executed before the workers join, so callers never lose queued work.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least one).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Thread-safe; never blocks on queue capacity (admission
  /// control is the SessionServer's job, not the pool's).
  void Submit(std::function<void()> task);

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace tioga2::runtime

#endif  // TIOGA2_RUNTIME_THREAD_POOL_H_
