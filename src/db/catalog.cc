#include "db/catalog.h"

#include <algorithm>

namespace tioga2::db {

namespace {
/// Innermost live ReadPin on this thread (across all catalogs; each frame
/// records which catalog it pins, so nested pins of different catalogs
/// coexist).
thread_local Catalog::ReadPin* tl_top_pin = nullptr;
}  // namespace

Catalog::Catalog() : snapshot_(std::make_shared<const Snapshot>()) {}

Catalog::~Catalog() = default;

Catalog::ReadPin::ReadPin(const Catalog& catalog)
    : catalog_(&catalog), snapshot_(catalog.Current()), prev_(tl_top_pin) {
  tl_top_pin = this;
}

Catalog::ReadPin::~ReadPin() { tl_top_pin = prev_; }

std::shared_ptr<const Catalog::Snapshot> Catalog::Current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_;
}

std::shared_ptr<const Catalog::Snapshot> Catalog::ReadSnapshot() const {
  for (const ReadPin* pin = tl_top_pin; pin != nullptr; pin = pin->prev_) {
    if (pin->catalog_ == this) return pin->snapshot_;
  }
  return Current();
}

void Catalog::Publish(std::shared_ptr<const Snapshot> next) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot_.swap(next);
  }
  // `next` now holds the replaced snapshot: freed here, outside the lock,
  // unless a ReadPin still holds it.
}

Status Catalog::RegisterTable(const std::string& name, RelationPtr relation) {
  if (name.empty()) return Status::InvalidArgument("table name must be non-empty");
  if (relation == nullptr) return Status::InvalidArgument("relation must be non-null");
  auto next = std::make_shared<Snapshot>(*Current());
  // A recreation after a drop continues above the dropped table's final
  // version, so stamps minted against the old incarnation can never match.
  uint64_t version = 1;
  if (auto floor = version_floors_.find(name); floor != version_floors_.end()) {
    version = floor->second + 1;
  }
  auto [it, inserted] =
      next->tables.emplace(name, TableEntry{std::move(relation), version});
  if (!inserted) return Status::AlreadyExists("table '" + name + "' already exists");
  const TableEntry& entry = it->second;
  Publish(next);
  if (listener_ != nullptr) {
    listener_->OnRegisterTable(name, entry.relation, entry.version);
  }
  return Status::OK();
}

Status Catalog::ReplaceTable(const std::string& name, RelationPtr relation) {
  if (relation == nullptr) return Status::InvalidArgument("relation must be non-null");
  auto next = std::make_shared<Snapshot>(*Current());
  auto it = next->tables.find(name);
  if (it == next->tables.end()) return Status::NotFound("no table named '" + name + "'");
  TableEntry& entry = it->second;
  if (!(*entry.relation->schema() == *relation->schema())) {
    return Status::TypeError("ReplaceTable may not change the schema of '" + name +
                             "': have " + entry.relation->schema()->ToString() +
                             ", got " + relation->schema()->ToString());
  }
  entry.relation = std::move(relation);
  ++entry.version;
  Publish(next);
  if (listener_ != nullptr) {
    listener_->OnReplaceTable(name, entry.relation, entry.version);
  }
  return Status::OK();
}

Result<TableDelta> Catalog::UpdateRow(const std::string& name, size_t row,
                                      Tuple tuple) {
  auto next = std::make_shared<Snapshot>(*Current());
  auto it = next->tables.find(name);
  if (it == next->tables.end()) return Status::NotFound("no table named '" + name + "'");
  TableEntry& entry = it->second;
  const RelationPtr current = entry.relation;
  if (row >= current->num_rows()) {
    return Status::OutOfRange("row " + std::to_string(row) + " out of range in '" +
                              name + "'");
  }
  TableDelta delta;
  delta.table = name;
  delta.row = row;
  delta.old_tuple = current->row(row);
  delta.new_tuple = tuple;
  delta.old_version = entry.version;
  RelationBuilder builder(current->schema());
  builder.Reserve(current->num_rows());
  for (size_t r = 0; r < current->num_rows(); ++r) {
    if (r == row) {
      // The checked path validates the new tuple's arity and types.
      TIOGA2_RETURN_IF_ERROR(builder.AddRow(tuple));
    } else {
      builder.AddRowUnchecked(current->row(r));
    }
  }
  entry.relation = builder.Build();
  ++entry.version;
  delta.new_version = entry.version;
  Publish(next);
  if (listener_ != nullptr) {
    listener_->OnUpdateRow(delta, entry.relation);
  }
  return delta;
}

Status Catalog::DropTable(const std::string& name) {
  auto next = std::make_shared<Snapshot>(*Current());
  auto it = next->tables.find(name);
  if (it == next->tables.end()) return Status::NotFound("no table named '" + name + "'");
  const uint64_t version_at_drop = it->second.version;
  // Remember the final version so a same-named recreation stays monotonic.
  uint64_t& floor = version_floors_[name];
  floor = std::max(floor, version_at_drop);
  next->tables.erase(it);
  Publish(std::move(next));
  if (listener_ != nullptr) listener_->OnDropTable(name, version_at_drop);
  return Status::OK();
}

Result<RelationPtr> Catalog::GetTable(const std::string& name) const {
  const auto snap = ReadSnapshot();
  auto it = snap->tables.find(name);
  if (it == snap->tables.end())
    return Status::NotFound("no table named '" + name + "'");
  return it->second.relation;
}

bool Catalog::HasTable(const std::string& name) const {
  return ReadSnapshot()->tables.count(name) > 0;
}

Result<uint64_t> Catalog::TableVersion(const std::string& name) const {
  const auto snap = ReadSnapshot();
  auto it = snap->tables.find(name);
  if (it == snap->tables.end())
    return Status::NotFound("no table named '" + name + "'");
  return it->second.version;
}

std::vector<std::string> Catalog::ListTables() const {
  const auto snap = ReadSnapshot();
  std::vector<std::string> names;
  names.reserve(snap->tables.size());
  for (const auto& [name, entry] : snap->tables) names.push_back(name);
  return names;
}

void Catalog::SaveProgram(const std::string& name, std::string serialized) {
  auto next = std::make_shared<Snapshot>(*Current());
  const std::string& slot = next->programs[name] = std::move(serialized);
  Publish(next);
  if (listener_ != nullptr) listener_->OnSaveProgram(name, slot);
}

Status Catalog::RestoreTable(const std::string& name, RelationPtr relation,
                             uint64_t version) {
  if (name.empty()) return Status::InvalidArgument("table name must be non-empty");
  if (relation == nullptr) return Status::InvalidArgument("relation must be non-null");
  auto next = std::make_shared<Snapshot>(*Current());
  next->tables[name] = TableEntry{std::move(relation), version};
  Publish(std::move(next));
  return Status::OK();
}

void Catalog::RestoreVersionFloor(const std::string& name, uint64_t version) {
  uint64_t& floor = version_floors_[name];
  floor = std::max(floor, version);
}

Result<std::string> Catalog::GetProgram(const std::string& name) const {
  const auto snap = ReadSnapshot();
  auto it = snap->programs.find(name);
  if (it == snap->programs.end())
    return Status::NotFound("no program named '" + name + "'");
  return it->second;
}

std::vector<std::string> Catalog::ListPrograms() const {
  const auto snap = ReadSnapshot();
  std::vector<std::string> names;
  names.reserve(snap->programs.size());
  for (const auto& [name, program] : snap->programs) names.push_back(name);
  return names;
}

}  // namespace tioga2::db
