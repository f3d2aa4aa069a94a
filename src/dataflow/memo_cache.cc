#include "dataflow/memo_cache.h"

namespace tioga2::dataflow {

MemoCache::EntryPtr MemoCache::Lookup(const std::string& box_id,
                                      uint64_t stamp) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(box_id);
  if (it == entries_.end() || it->second->stamp != stamp) return nullptr;
  return it->second;
}

MemoCache::EntryPtr MemoCache::Insert(const std::string& box_id, uint64_t stamp,
                                      std::vector<BoxValue> outputs) {
  auto entry = std::make_shared<Entry>();
  entry->stamp = stamp;
  entry->outputs = std::move(outputs);
  std::lock_guard<std::mutex> lock(mu_);
  EntryPtr& slot = entries_[box_id];
  if (slot != nullptr && slot->stamp == stamp) return slot;  // lost the race
  slot = std::move(entry);
  return slot;
}

MemoCache::EntryPtr MemoCache::InsertEntry(const std::string& box_id,
                                           EntryPtr entry) {
  std::lock_guard<std::mutex> lock(mu_);
  EntryPtr& slot = entries_[box_id];
  if (slot != nullptr && slot->stamp == entry->stamp) return slot;
  slot = std::move(entry);
  return slot;
}

std::optional<uint64_t> MemoCache::StampOf(const std::string& box_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(box_id);
  if (it == entries_.end()) return std::nullopt;
  return it->second->stamp;
}

MemoCache::EntryPtr MemoCache::Get(const std::string& box_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(box_id);
  return it == entries_.end() ? nullptr : it->second;
}

bool MemoCache::Erase(const std::string& box_id) {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.erase(box_id) > 0;
}

void MemoCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

size_t MemoCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace tioga2::dataflow
