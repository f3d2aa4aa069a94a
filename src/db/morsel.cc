#include "db/morsel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "expr/batch.h"

namespace tioga2::db {

size_t MorselRows(const ExecPolicy& policy) {
  return policy.morsel_rows == 0 ? 1 : policy.morsel_rows;
}

size_t NumMorsels(const ExecPolicy& policy, size_t num_rows) {
  if (num_rows == 0) return 0;
  const size_t rows = MorselRows(policy);
  return (num_rows + rows - 1) / rows;
}

namespace {

/// Shared state of one fan-out. Held by shared_ptr so help tickets that the
/// runner executes *after* the group completed (they were queued behind
/// other work) find live state, claim nothing, and return.
struct MorselGroup {
  size_t num_morsels = 0;
  size_t morsel_rows = 0;
  size_t num_rows = 0;
  /// Valid until every morsel is claimed; tickets only dereference it after
  /// a successful claim, and completion implies all morsels were claimed,
  /// so a stale ticket can never reach a dead callable.
  const MorselBody* body = nullptr;

  std::atomic<size_t> next{0};          // claim cursor
  std::atomic<uint64_t> stolen{0};      // morsels run by help tickets
  std::mutex mu;
  std::condition_variable cv;
  size_t completed = 0;                 // guarded by mu
  std::vector<Status> statuses;         // slot per morsel, guarded by mu

  /// Claims and runs morsels until the cursor is exhausted. The mutex
  /// hand-off on completion is what publishes each morsel's writes (into
  /// its caller-owned result slot) to the thread that merges them.
  void Drain(bool is_ticket) {
    for (;;) {
      const size_t m = next.fetch_add(1, std::memory_order_relaxed);
      if (m >= num_morsels) return;
      const size_t begin = m * morsel_rows;
      const size_t end = std::min(begin + morsel_rows, num_rows);
      Status status = (*body)(m, begin, end);
      if (is_ticket) stolen.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(mu);
      if (!status.ok()) statuses[m] = std::move(status);
      if (++completed == num_morsels) cv.notify_all();
    }
  }
};

}  // namespace

Status ForEachMorsel(const ExecPolicy& policy, size_t num_rows,
                     const MorselBody& body) {
  const size_t num_morsels = NumMorsels(policy, num_rows);
  if (num_morsels == 0) return Status::OK();
  const size_t morsel_rows = MorselRows(policy);
  expr::BatchMetrics& metrics = expr::BatchMetrics::Global();

  // The scalar oracle (vectorized == false) never fans out, and a group a
  // single worker or a single morsel could not speed up stays serial too.
  MorselRunner* runner = policy.runner;
  if (!policy.vectorized || runner == nullptr || runner->num_threads() < 2 ||
      num_morsels < 2) {
    ++metrics.morsel_groups;
    metrics.morsels_executed += num_morsels;
    for (size_t m = 0; m < num_morsels; ++m) {
      const size_t begin = m * morsel_rows;
      const size_t end = std::min(begin + morsel_rows, num_rows);
      TIOGA2_RETURN_IF_ERROR(body(m, begin, end));
    }
    return Status::OK();
  }

  auto group = std::make_shared<MorselGroup>();
  group->num_morsels = num_morsels;
  group->morsel_rows = morsel_rows;
  group->num_rows = num_rows;
  group->body = &body;
  group->statuses.resize(num_morsels);
  // The caller drains too, so at most num_morsels - 1 tickets can ever find
  // work; capping at the worker count keeps the queue short.
  const size_t tickets = std::min(runner->num_threads(), num_morsels - 1);
  for (size_t t = 0; t < tickets; ++t) {
    runner->Submit([group] { group->Drain(/*is_ticket=*/true); });
  }
  group->Drain(/*is_ticket=*/false);
  {
    std::unique_lock<std::mutex> lock(group->mu);
    group->cv.wait(lock,
                   [&group] { return group->completed == group->num_morsels; });
  }

  ++metrics.morsel_groups;
  ++metrics.morsel_groups_parallel;
  metrics.morsels_executed += num_morsels;
  metrics.morsels_stolen += group->stolen.load(std::memory_order_relaxed);
  metrics.morsel_parallel_rows += num_rows;

  // Report the lowest-indexed failure so the error a caller sees does not
  // depend on thread interleaving.
  for (size_t m = 0; m < num_morsels; ++m) {
    if (!group->statuses[m].ok()) return std::move(group->statuses[m]);
  }
  return Status::OK();
}

}  // namespace tioga2::db
