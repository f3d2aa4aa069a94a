#ifndef TIOGA2_VIEWER_VIEWER_H_
#define TIOGA2_VIEWER_VIEWER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "dataflow/delta.h"
#include "display/displayable.h"
#include "render/surface.h"
#include "viewer/camera.h"
#include "viewer/canvas_registry.h"
#include "viewer/canvas_renderer.h"

namespace tioga2::viewer {

/// One bar of the elevation map (§6.1): the visible elevation band and
/// drawing order of a composite member on the current canvas.
struct ElevationBar {
  std::string relation_name;
  double min_elevation;
  double max_elevation;
  size_t drawing_order;  // 0 = drawn first (bottom)
};

/// A magnifying glass (§7.2): a viewer placed inside another viewer. The
/// glass occupies `rect` (device coordinates of the outer viewport) and
/// shows the area under it magnified by `zoom`, optionally through an
/// alternative display attribute (Figure 9's precipitation magnifier).
struct MagnifyingGlass {
  render::DeviceRect rect;
  double zoom = 2.0;
  /// When set, relations that have this display attribute are switched to it
  /// inside the glass.
  std::optional<std::string> display_attribute;
  /// Slaved glasses keep their world focus locked to the outer viewer
  /// (§7.2: "the inner and outer viewers may be slaved so that they move in
  /// unison"); unslaved glasses keep an independent world center.
  bool slaved = true;
  /// World focus for unslaved glasses.
  double center_x = 0;
  double center_y = 0;
};

/// One entry of the travel history behind a rear view mirror (§6.3).
struct TravelRecord {
  std::string canvas_name;
  Camera camera;
};

/// A viewer: a canvas window (§3) showing one displayable with pan, zoom
/// (elevation), sliders, wormhole travel, a rear view mirror, slaving, and
/// magnifying glasses.
///
/// For a group displayable the viewer keeps one camera per member ("the
/// user may independently pan and zoom in each of the grouped
/// visualizations", §2); `active_member` selects which camera the
/// navigation calls address, mirroring the paper's "cycle through all of the
/// elevation maps".
///
/// One thread at a time: even the const RenderTo replaces the set of render
/// images the viewer holds.
class Viewer {
 public:
  /// Creates a viewer named `name` showing canvas `canvas_name`, resolved
  /// through `registry` (which must outlive the viewer).
  Viewer(std::string name, std::string canvas_name, const CanvasRegistry* registry);

  const std::string& name() const { return name_; }
  const std::string& canvas_name() const { return canvas_name_; }

  /// Re-resolves the canvas content through the registry (call after
  /// program edits; the dataflow engine memoizes, so this is cheap when
  /// nothing changed). Cameras are preserved where the member count allows.
  Status Refresh();

  /// Clones this viewer: same canvas, cameras, sliders, magnifying glasses
  /// and travel history, independently navigable afterwards — the "cloning
  /// of viewers" feature the original Tioga specified but never implemented
  /// (§1.1). Slaving relationships are not cloned.
  std::unique_ptr<Viewer> CloneView(const std::string& name) const;

  /// The content currently shown (normalized to a group).
  const display::Group& content() const { return content_; }

  /// Number of group members (= cameras).
  size_t num_members() const { return cameras_.size(); }

  size_t active_member() const { return active_member_; }
  Status SetActiveMember(size_t member);

  /// Camera of the active member.
  const Camera& camera() const { return cameras_[active_member_]; }
  Camera* mutable_camera() { return &cameras_[active_member_]; }
  const Camera& camera_of(size_t member) const { return cameras_[member]; }
  Camera* mutable_camera_of(size_t member) { return &cameras_[member]; }

  // ---- Navigation (propagates to slaved viewers) ----

  /// Pans the active member by a world-space delta.
  void Pan(double dx, double dy);

  /// Zooms the active member by `factor` (> 1 descends toward the canvas).
  void Zoom(double factor);

  /// Sets a slider range on the active member.
  void SetSlider(size_t dim, SliderRange range);

  /// Frames the active member's content.
  Status FitContent(int viewport_w, int viewport_h);

  // ---- Wormholes and the rear view mirror (§6.2, §6.3) ----

  /// If the active camera sits over a wormhole and has descended to (or
  /// below) the pass-through elevation, travels through it: the viewer
  /// switches to the destination canvas and the departed canvas is pushed
  /// onto the travel history. Returns true when travel happened.
  Result<bool> TryPassThrough(double pass_elevation = 1.0);

  /// Travels back through the most recent wormhole ("find his way home").
  Result<bool> TravelBack();

  /// The canvases travelled through, most recent last.
  const std::vector<TravelRecord>& travel_history() const { return travel_history_; }

  /// Renders the rear view mirror: the underside of the canvas most
  /// recently travelled through, horizontally mirrored. Renders nothing
  /// (and reports zero stats) when there is no history.
  Result<RenderStats> RenderRearView(render::Surface* surface) const;

  // ---- Slaving (§7.1) ----

  /// Slaves `other` to this viewer: navigation applied here is replayed on
  /// `other` (with the current offset between them maintained). Both
  /// viewers must show displayables of equal dimension.
  Status SlaveTo(Viewer* other);

  /// Removes a slaving relationship in both directions.
  void Unslave(Viewer* other);

  /// Number of viewers slaved to this one.
  size_t num_slaves() const { return slaves_.size(); }

  // ---- Magnifying glasses (§7.2) ----

  /// Adds a magnifying glass; returns its index.
  size_t AddMagnifyingGlass(MagnifyingGlass glass);
  Status RemoveMagnifyingGlass(size_t index);
  const std::vector<MagnifyingGlass>& magnifying_glasses() const { return glasses_; }

  // ---- Rendering ----

  /// Renders all group members into `surface` (laid out per the group's
  /// layout), then any magnifying glasses on top.
  Result<RenderStats> RenderTo(render::Surface* surface,
                               const RenderOptions& base_options = {}) const;

  /// Incremental repaint after a §8 delta update. `surface` must still hold
  /// the previous full render of this viewer (over `background`), with the
  /// cameras unchanged since then; `delta` is the edit script for this
  /// viewer's canvas (Session::LastCanvasDelta). The viewer re-resolves its
  /// content, derives conservative device-space dirty rectangles from the
  /// old and new versions of each edited tuple, and repaints only those
  /// rectangles under a pixel clip — on a RasterSurface the result is
  /// pixel-identical to a full Clear + RenderTo of the new content.
  ///
  /// Falls back to exactly that full repaint whenever the fast path cannot
  /// bound the damage: a non-update row op (insert/delete), a structure
  /// mismatch between old and new content, magnifying glasses, or underside
  /// rendering.
  Result<RenderStats> RenderDeltaTo(render::Surface* surface,
                                    const dataflow::ValueDelta& delta,
                                    const draw::Color& background = draw::kWhite,
                                    const RenderOptions& base_options = {});

  /// Elevation map of group member `member` (§6.1).
  Result<std::vector<ElevationBar>> ElevationMap(size_t member) const;

  /// Hit-test at device coordinates of the full viewer surface; accounts
  /// for the group layout. Returns the member/relation/row hit, if any.
  Result<std::optional<Hit>> HitTestAt(render::Surface* surface_like_dims, double dx,
                                       double dy) const;

 private:
  /// Returns the layout cell of `member` on a surface of the given size.
  render::DeviceRect CellRect(size_t member, int width, int height) const;

  void PropagatePan(double dx, double dy, int depth);
  void PropagateZoom(double factor, int depth);

  std::string name_;
  std::string canvas_name_;
  const CanvasRegistry* registry_;
  display::Group content_;
  std::vector<Camera> cameras_;
  size_t active_member_ = 0;
  std::vector<TravelRecord> travel_history_;
  std::vector<Viewer*> slaves_;
  std::vector<MagnifyingGlass> glasses_;
  // The render images of the last RenderTo, wormhole destinations included.
  // Holding them keeps each image alive while its value is on screen
  // (a HitTestAt after a frame finds them built); DisplayRelation's slot
  // only points at it weakly.
  mutable ImageSet rendered_images_;
  /// A relation a magnifying glass drew through another display attribute:
  /// `switched` is `source` with `attribute` made its active display.
  struct GlassSwitch {
    display::DisplayRelation source;
    std::string attribute;
    display::DisplayRelation switched;
  };
  // The switches the last RenderTo drew. A glass over an unchanged member
  // reuses them, so the switched values keep their render images.
  mutable std::vector<GlassSwitch> glass_switches_;
};

}  // namespace tioga2::viewer

#endif  // TIOGA2_VIEWER_VIEWER_H_
