#ifndef TIOGA2_UI_SESSION_H_
#define TIOGA2_UI_SESSION_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "boxes/box_registry.h"
#include "common/result.h"
#include "dataflow/encapsulate.h"
#include "dataflow/engine.h"
#include "dataflow/graph.h"
#include "db/catalog.h"
#include "update/update.h"
#include "viewer/canvas_registry.h"
#include "viewer/canvas_renderer.h"

namespace tioga2::ui {

/// The headless user-interface model of §3: one program window (the
/// boxes-and-arrows diagram), the menu-bar operations of Figures 2/3/5/6 as
/// methods, the undo button, canvas registration for viewers, and the §8
/// click-to-update path.
///
/// This class is the substitute for the X11 GUI (see DESIGN.md §1): every
/// direct-manipulation gesture the paper describes corresponds to one
/// Session call with the same semantics, which is exactly the layer a real
/// GUI would sit on.
class Session {
 public:
  /// `catalog` must outlive the session.
  explicit Session(db::Catalog* catalog);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // ---- Program window (Figure 2) ----

  /// New Program: erases the program canvas.
  void NewProgram();

  /// Add Program: merges a saved program into the current one. Box ids are
  /// remapped to avoid collisions; returns the id mapping.
  Result<std::map<std::string, std::string>> AddProgram(const std::string& name);

  /// Load Program: New Program followed by Add Program.
  Status LoadProgram(const std::string& name);

  /// Save Program: serializes the current program into the database.
  Status SaveProgram(const std::string& name);

  /// Adds a box by type name and parameters; returns its id.
  Result<std::string> AddBox(const std::string& type_name,
                             const std::map<std::string, std::string>& params);

  /// Add Table (§4.2): shorthand for AddBox("Table", {table}), validated
  /// against the catalog.
  Result<std::string> AddTable(const std::string& table);

  /// Connects an output to an input (type-checked).
  Status Connect(const std::string& from, size_t from_port, const std::string& to,
                 size_t to_port);

  /// Apply Box (§4.1): the box types able to take the selected output edges
  /// as inputs.
  Result<std::vector<std::string>> ApplyBoxCandidates(
      const std::vector<std::pair<std::string, size_t>>& outputs) const;

  /// Apply Box, step two: builds the chosen box and wires the selected
  /// outputs to its inputs in order. When an R -> R box is applied to a
  /// composite or group edge, it is lifted transparently (§2: "the user
  /// need not be aware explicitly of how Restrict is overloaded"): the
  /// system wraps it in a Lift targeting `member` (the relation name within
  /// the composite) and `group_member` (the composite within the group) —
  /// in the GUI these are the point-and-click selections. Returns the new
  /// box id.
  Result<std::string> ApplyBox(const std::string& type_name,
                               const std::map<std::string, std::string>& params,
                               const std::vector<std::pair<std::string, size_t>>& inputs,
                               const std::string& member = "",
                               size_t group_member = 0);

  /// Delete Box with the §4.1 legality rules.
  Status DeleteBox(const std::string& id);

  /// Replace Box by a new box of compatible types.
  Status ReplaceBox(const std::string& id, const std::string& type_name,
                    const std::map<std::string, std::string>& params);

  /// Inserts a T on the edge into `to:to_port`; returns the T's id.
  Result<std::string> InsertT(const std::string& to, size_t to_port);

  /// Encapsulate (§4.1): turns a region of the program into a reusable box
  /// definition stored in the session's box library.
  Status Encapsulate(const std::vector<std::string>& box_ids,
                     const std::vector<std::string>& hole_ids, const std::string& name);

  /// Instantiates an encapsulated definition (filling holes with boxes
  /// built from (type, params) pairs) and adds it to the program.
  Result<std::string> InsertEncapsulated(
      const std::string& name,
      const std::vector<std::pair<std::string, std::map<std::string, std::string>>>&
          hole_fillers);

  /// Names of encapsulated definitions in the library.
  std::vector<std::string> EncapsulatedNames() const;

  /// Undo: restores the program to before the most recent mutating
  /// operation. Fails when there is nothing to undo.
  Status Undo();

  // ---- Viewers and canvases ----

  /// Installs a viewer on `from:from_port` (on any edge, via T insertion the
  /// caller performs, or directly on a free output). Registers canvas
  /// `canvas_name` resolving through the lazy engine. Returns the viewer
  /// box id.
  Result<std::string> AddViewer(const std::string& from, size_t from_port,
                                const std::string& canvas_name);

  /// Removes a viewer box and unregisters its canvas (§7.1: "when a viewer
  /// is deleted, all of its slaving relationships are also deleted" — the
  /// viewer::Viewer objects watching the canvas start failing to Refresh,
  /// which is their cue to drop slaving and close).
  Status RemoveViewer(const std::string& viewer_box_id);

  /// Evaluates the displayable feeding the named canvas (lazy, memoized).
  Result<display::Displayable> EvaluateCanvas(const std::string& canvas_name);

  /// The canvas registry for viewer::Viewer construction.
  const viewer::CanvasRegistry& registry() const { return registry_; }

  // ---- §8 updates ----

  update::UpdateManager& updates() { return updates_; }

  /// The click-to-update path: `hit` (from Viewer::HitTestAt) identifies a
  /// tuple of a derived relation shown on a canvas; `table` names the base
  /// table it came from; `inputs` simulates the §8 dialog. Installs the
  /// update and propagates the resulting TableDelta through the program:
  /// boxes with a delta fast path keep their memoized outputs maintained in
  /// place, the rest are evicted, and unrelated canvases stay memoized.
  Status ClickUpdate(const std::string& canvas_name, const viewer::Hit& hit,
                     const std::string& table,
                     const std::map<std::string, std::string>& inputs);

  /// The outcome of the most recent ClickUpdate's delta propagation
  /// (counts, per-box edit scripts, warnings); empty until a ClickUpdate
  /// succeeds.
  const std::optional<dataflow::InvalidationResult>& LastInvalidation() const {
    return last_invalidation_;
  }

  /// The edit script for the value feeding `canvas_name` from the most
  /// recent ClickUpdate, or nullptr when that value was not delta-maintained
  /// (no update yet, the feeding box fell back to recompute, or the canvas
  /// does not exist). A renderer holding the canvas's previous Displayable
  /// can repaint just the dirty screen regions it implies.
  const dataflow::ValueDelta* LastCanvasDelta(const std::string& canvas_name) const;

  // ---- Introspection / menus (§3) ----

  const dataflow::Graph& graph() const { return graph_; }
  dataflow::Engine& engine() { return engine_; }

  /// Attaches a cross-session shared memo tier to this session's engine
  /// (null detaches) — wired by runtime::SessionServer when its options
  /// enable the shared tier, so canvases common to several sessions are
  /// evaluated once. The pointee must outlive the session.
  void set_shared_cache(dataflow::SharedMemoCache* shared) {
    engine_.set_shared_cache(shared);
  }

  db::Catalog* catalog() { return catalog_; }
  std::vector<std::string> ListTables() const { return catalog_->ListTables(); }
  std::vector<std::string> ListBoxTypes() const { return boxes::AllBoxTypes(); }

  /// Warnings raised by the most recent evaluation (§6.1 overlay warning).
  const std::vector<std::string>& LastWarnings() const { return engine_.warnings(); }

  size_t UndoDepth() const { return undo_stack_.size(); }

 private:
  /// Pushes an undo snapshot; call before every mutating operation.
  void Snapshot();

  db::Catalog* catalog_;
  dataflow::Graph graph_;
  dataflow::Engine engine_;
  viewer::CanvasRegistry registry_;
  update::UpdateManager updates_;
  std::vector<dataflow::Graph> undo_stack_;
  std::map<std::string, std::unique_ptr<dataflow::EncapsulatedBox>> library_;
  std::optional<dataflow::InvalidationResult> last_invalidation_;
};

}  // namespace tioga2::ui

#endif  // TIOGA2_UI_SESSION_H_
