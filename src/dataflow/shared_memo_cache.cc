#include "dataflow/shared_memo_cache.h"

#include <iterator>

namespace tioga2::dataflow {

SharedMemoCache::SharedMemoCache(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

MemoCache::EntryPtr SharedMemoCache::Lookup(uint64_t stamp) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(stamp);
  if (it == index_.end()) {
    ++misses_;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++hits_;
  return *it->second;
}

void SharedMemoCache::Insert(const MemoCache::EntryPtr& entry) {
  if (entry == nullptr) return;
  // Released after unlocking, so a large relation's destructor never runs
  // under the lock.
  Recency evicted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = index_.try_emplace(entry->stamp);
    if (!inserted) {
      // Same stamp ⇒ byte-identical outputs: keep the first publication.
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    lru_.push_front(entry);
    it->second = lru_.begin();
    ++inserts_;
    while (lru_.size() > capacity_) {
      index_.erase(lru_.back()->stamp);
      evicted.splice(evicted.end(), lru_, std::prev(lru_.end()));
      ++evictions_;
    }
  }
}

SharedMemoCache::Stats SharedMemoCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.inserts = inserts_;
  stats.evictions = evictions_;
  stats.entries = lru_.size();
  return stats;
}

}  // namespace tioga2::dataflow
