#ifndef TIOGA2_DATAFLOW_SHARED_MEMO_CACHE_H_
#define TIOGA2_DATAFLOW_SHARED_MEMO_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>

#include "dataflow/memo_cache.h"

namespace tioga2::dataflow {

/// A cross-evaluator memo tier keyed by stamp alone — the "M viewers of one
/// dashboard cost ~1× the evaluation work" cache of the paper's multi-user
/// picture (§7). Where a MemoCache holds at most one entry per *box id* of
/// one program, this tier holds entries for whole *subcomputations*: two
/// sessions whose programs contain the same box subgraph over the same
/// catalog state compute the same stamp (stamps hash box type, parameters,
/// catalog salt, and input stamps — never box ids, see dataflow/stamp.h), so
/// the second session finds the first session's result here and skips the
/// entire subtree evaluation.
///
/// Safety rests on the stamp contract: a stamp is a pure function of the
/// program + catalog state, and box firing is a deterministic function of the
/// stamped inputs, independent of execution policy. Two evaluators producing
/// the same stamp therefore produce byte-identical outputs, which makes
/// handing one's entry to the other invisible to every downstream consumer —
/// stamps, fingerprints, and rendered pixels are unchanged (asserted by
/// runtime_determinism_test and session_server_test).
///
/// Concurrency: one mutex guards everything. A served interaction makes
/// about 1.5 lookups here, a few thousand a second in all, far below what a
/// contended mutex sustains, so the tier is not lock-free (DESIGN.md §13).
///
/// Eviction: an exact LRU bounded to `capacity` entries (0 counts as 1).
/// Entries whose stamps have gone stale (a table-version bump changes every
/// downstream stamp) are never looked up again and simply age out; there is
/// no explicit invalidation, because a stale stamp can never be recomputed
/// by a correct evaluator. Lookup chain position: engines consult their
/// per-session MemoCache first (id-keyed, cheapest), then this tier, then
/// fire; fired entries are published to both.
class SharedMemoCache {
 public:
  /// Counter snapshot (also surfaced through runtime::Metrics JSON).
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
    uint64_t evictions = 0;
    size_t entries = 0;
  };

  explicit SharedMemoCache(size_t capacity);
  SharedMemoCache(const SharedMemoCache&) = delete;
  SharedMemoCache& operator=(const SharedMemoCache&) = delete;

  /// The entry published under `stamp`, or null. A hit becomes the most
  /// recently used entry.
  MemoCache::EntryPtr Lookup(uint64_t stamp);

  /// Publishes `entry` under its own stamp. If the stamp is already present
  /// the existing entry is kept (both are byte-identical by the stamp
  /// contract) and refreshed; otherwise the entry is inserted, evicting the
  /// least recently used entry when the cache is over capacity.
  void Insert(const MemoCache::EntryPtr& entry);

  Stats stats() const;
  size_t capacity() const { return capacity_; }

 private:
  using Recency = std::list<MemoCache::EntryPtr>;  // front = most recent

  const size_t capacity_;
  mutable std::mutex mu_;  // guards everything below
  Recency lru_;
  std::unordered_map<uint64_t, Recency::iterator> index_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t inserts_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace tioga2::dataflow

#endif  // TIOGA2_DATAFLOW_SHARED_MEMO_CACHE_H_
