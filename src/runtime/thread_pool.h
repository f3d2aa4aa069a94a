#ifndef TIOGA2_RUNTIME_THREAD_POOL_H_
#define TIOGA2_RUNTIME_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "db/morsel.h"

namespace tioga2::runtime {

/// A fixed-size worker pool with a FIFO task queue. Tasks may submit further
/// tasks (a morsel group started on a worker queues its help tickets on the
/// same pool). Destruction drains the queue: every task submitted before the
/// destructor runs is executed before the workers join, so callers never
/// lose queued work.
///
/// Implements db::MorselRunner, so a pool can serve intra-operator morsel
/// fan-out (ExecPolicy::runner). Morsel help tickets are ordinary Submit()
/// tasks; db::ForEachMorsel never blocks a worker on queue capacity, which
/// is what keeps nested use (a task running ON the pool lending morsels TO
/// the pool) deadlock-free.
class ThreadPool : public db::MorselRunner {
 public:
  /// Spawns `num_threads` workers (at least one).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool() override;

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Thread-safe; never blocks on queue capacity (admission
  /// control is the SessionServer's job, not the pool's).
  void Submit(std::function<void()> task) override;

  size_t num_threads() const override { return workers_.size(); }

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
