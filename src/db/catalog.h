#ifndef TIOGA2_DB_CATALOG_H_
#define TIOGA2_DB_CATALOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "db/relation.h"

namespace tioga2::db {

/// A typed record of one single-tuple §8 update — the unit of incremental
/// invalidation. Emitted by Catalog::UpdateRow and consumed by the dataflow
/// engines' delta-propagation path (dataflow/delta.h): `row` is the position
/// of the edited tuple in the table's row order (updates never reorder), and
/// the version pair lets an engine verify that a memoized entry really
/// corresponds to the pre-update table before maintaining it incrementally.
struct TableDelta {
  std::string table;
  size_t row = 0;
  Tuple old_tuple;
  Tuple new_tuple;
  uint64_t old_version = 0;
  uint64_t new_version = 0;
};

/// Observes catalog mutations. The storage engine (storage/storage_engine.h)
/// implements this to mirror every mutation into its write-ahead log and its
/// snapshot shadow state; the catalog itself stays storage-agnostic.
/// Callbacks fire after the mutation has been applied, on the mutating
/// thread, with the post-mutation state.
class CatalogListener {
 public:
  virtual ~CatalogListener() = default;
  virtual void OnRegisterTable(const std::string& name,
                               const RelationPtr& relation, uint64_t version) = 0;
  virtual void OnReplaceTable(const std::string& name,
                              const RelationPtr& relation, uint64_t version) = 0;
  virtual void OnUpdateRow(const TableDelta& delta,
                           const RelationPtr& relation) = 0;
  /// `version_at_drop` is the dropped table's final version — the floor a
  /// same-named recreation must start above.
  virtual void OnDropTable(const std::string& name, uint64_t version_at_drop) = 0;
  virtual void OnSaveProgram(const std::string& name,
                             const std::string& serialized) = 0;
};

/// The system catalog: named base tables plus saved programs. This plays the
/// role POSTGRES plays for Tioga-2 — "for every relation known to the
/// Tioga-2 system there is a box of the same name" (§4), and "Save Program:
/// save the current program in the database" (Figure 2).
///
/// Each table carries a version counter bumped on every update; the dataflow
/// engine uses it to invalidate memoized box outputs after a §8 update.
/// Versions are monotonic per *name*, not per table object: dropping a table
/// records its final version as a floor, and a same-named recreation starts
/// above it. (Without the floor, a recreated table would restart at version 1
/// and a memo entry stamped against the old table's version 1 would be
/// silently — and wrongly — considered fresh.)
///
/// Concurrency (DESIGN.md §13): the read-visible state is one IMMUTABLE
/// snapshot, published as a shared_ptr under mu_. A mutator copies the
/// current snapshot, edits the copy and publishes it; a replaced snapshot is
/// freed when its last holder drops it. Mutators are NOT synchronized
/// against each other — the caller serializes them (SessionServer holds
/// catalog_mu_) — but a mutator may run concurrently with any number of
/// readers, because readers only ever hold a published snapshot.
///
/// A multi-step read that must see ONE consistent catalog state — e.g. an
/// evaluation that stamps against TableVersion and later fetches GetTable —
/// brackets itself in a ReadPin, which holds the snapshot current at
/// construction for every read on that thread until destruction. Reads
/// outside any ReadPin take the current snapshot per call, which is
/// consistent enough for single-shot queries and gives read-your-writes to
/// mutating threads (the mutation published before returning).
class Catalog {
  struct Snapshot;  // defined in the private section below

 public:
  Catalog();
  ~Catalog();

  // Catalogs are identity objects shared by reference.
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Holds the snapshot current at construction for EVERY read this thread
  /// makes on this catalog until destruction (frames nest; the innermost
  /// pin for a given catalog wins). The SessionServer brackets each
  /// Access::kRead handler in one, so stamping (TableVersion) and fetching
  /// (GetTable) cannot straddle a concurrent writer's publish.
  class ReadPin {
   public:
    explicit ReadPin(const Catalog& catalog);
    ~ReadPin();
    ReadPin(const ReadPin&) = delete;
    ReadPin& operator=(const ReadPin&) = delete;

   private:
    friend class Catalog;
    const Catalog* catalog_;
    std::shared_ptr<const Snapshot> snapshot_;
    ReadPin* prev_;  // enclosing frame (thread-local stack)
  };

  /// Registers a new table; fails if the name is taken.
  Status RegisterTable(const std::string& name, RelationPtr relation);

  /// Replaces the contents of an existing table (schema may not change) and
  /// bumps its version. This is the install step of the §8 update machinery.
  Status ReplaceTable(const std::string& name, RelationPtr relation);

  /// Replaces one row of an existing table with `tuple` (type-checked
  /// against the schema), bumps the version, and returns the TableDelta
  /// describing the edit — the §8 single-tuple install step. Equivalent to
  /// ReplaceTable with a relation differing in one row, but tells the
  /// dataflow layer exactly what changed so it can propagate a delta
  /// instead of recomputing.
  Result<TableDelta> UpdateRow(const std::string& name, size_t row, Tuple tuple);

  /// Removes a table.
  Status DropTable(const std::string& name);

  /// Looks up a table by name.
  Result<RelationPtr> GetTable(const std::string& name) const;

  /// True iff a table named `name` exists.
  bool HasTable(const std::string& name) const;

  /// The version counter of a table (starts at 1; bumped by ReplaceTable).
  Result<uint64_t> TableVersion(const std::string& name) const;

  /// Names of all tables, sorted (the "menu of all tables available", §3).
  std::vector<std::string> ListTables() const;

  /// Stores a serialized program under `name`, overwriting silently (Save
  /// Program, Figure 2).
  void SaveProgram(const std::string& name, std::string serialized);

  /// Fetches a saved program.
  Result<std::string> GetProgram(const std::string& name) const;

  /// Names of all saved programs, sorted.
  std::vector<std::string> ListPrograms() const;

  /// Installs (or clears, with nullptr) the single mutation listener. The
  /// listener must outlive the catalog or be cleared first.
  void SetListener(CatalogListener* listener) { listener_ = listener; }

  /// The per-name version floors recorded by DropTable (see class comment).
  /// Write-side state: call only while holding the writers' lock.
  const std::map<std::string, uint64_t>& version_floors() const {
    return version_floors_;
  }

  // ---- Recovery-only entry points (storage/storage_engine.h) ----
  //
  // These bypass the listener (recovery must not re-log what it replays) and
  // set versions exactly as recorded, because memoization stamps derive from
  // table versions (TableBox::CacheSalt) and the recovery tests assert
  // byte-identical stamps across a restart.

  /// Installs `relation` under `name` at exactly `version`, creating or
  /// overwriting. No listener notification.
  Status RestoreTable(const std::string& name, RelationPtr relation,
                      uint64_t version);

  /// Reinstates a recorded version floor (keeps the higher of the two if one
  /// is already present). No listener notification.
  void RestoreVersionFloor(const std::string& name, uint64_t version);

 private:
  struct TableEntry {
    RelationPtr relation;
    uint64_t version = 1;
  };
  /// The immutable unit of publication and the only copy of tables and
  /// programs. Cheap to copy — relations are shared by pointer, only the
  /// maps are copied — and mutation rates are human-interaction rates.
  struct Snapshot {
    std::map<std::string, TableEntry> tables;
    std::map<std::string, std::string> programs;
  };

  /// The published snapshot, taken under mu_.
  std::shared_ptr<const Snapshot> Current() const;

  /// The snapshot a read on this thread sees: the innermost ReadPin's for
  /// this catalog if one is live, else Current().
  std::shared_ptr<const Snapshot> ReadSnapshot() const;

  /// Replaces the published snapshot. Called at the end of every mutator,
  /// on the mutating thread; the replaced snapshot is freed by its last
  /// holder.
  void Publish(std::shared_ptr<const Snapshot> next);

  mutable std::mutex mu_;  // guards snapshot_
  std::shared_ptr<const Snapshot> snapshot_;  // never null

  /// name -> version the table had when it was last dropped. Write-side.
  std::map<std::string, uint64_t> version_floors_;
  CatalogListener* listener_ = nullptr;
};

}  // namespace tioga2::db

#endif  // TIOGA2_DB_CATALOG_H_
