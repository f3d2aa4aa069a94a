#include "viewer/viewer.h"

#include <algorithm>
#include <cmath>

#include "render/font.h"

namespace tioga2::viewer {

namespace {
constexpr int kDefaultViewportW = 640;
constexpr int kDefaultViewportH = 480;
constexpr int kMaxSlaveDepth = 8;

/// Extra device pixels around every dirty rectangle, absorbing the rounding
/// of world-to-pixel snapping in the rasterizer.
constexpr double kDirtyPad = 2.0;

/// A growable device-space bounding box for dirty-region accumulation.
struct DirtyRect {
  double x0 = 0, y0 = 0, x1 = 0, y1 = 0;
  bool empty = true;

  void Extend(double x, double y) {
    if (empty) {
      x0 = x1 = x;
      y0 = y1 = y;
      empty = false;
      return;
    }
    x0 = std::min(x0, x);
    x1 = std::max(x1, x);
    y0 = std::min(y0, y);
    y1 = std::max(y1, y);
  }
};

/// Extends `dirty` with a conservative device-space bound of everything row
/// `row` of `entry` can put on screen through `camera` within layout cell
/// `cell`, read from `image`, the entry's render image. Over-approximation
/// is safe (a few extra pixels repaint); an under-approximation would leave
/// stale pixels, so every bound here errs wide — in particular kText uses
/// the rasterizer's integral glyph scale, whose painted width can exceed the
/// world-space text bounds at low zoom. Returns false when `row` does not
/// exist (caller must fall back to a full repaint); a tuple whose
/// location/display fails to evaluate draws nothing and contributes no area.
bool ExtendTupleDeviceBounds(const display::CompositeEntry& entry,
                             const display::RenderImage& image, const Camera& camera,
                             const render::DeviceRect& cell, size_t row,
                             DirtyRect* dirty) {
  if (row >= entry.relation.num_rows()) return false;
  if (image.errors[row] != 0) return true;
  const draw::DrawableList& display = image.displays[row];
  if (display == nullptr) return true;
  double lx = image.LocationAt(row)[0] + entry.OffsetAt(0);
  double ly = image.LocationAt(row)[1] + entry.OffsetAt(1);
  for (const draw::Drawable& d : *display) {
    double ax = lx + d.offset_x;
    double ay = ly + d.offset_y;
    double pad = static_cast<double>(std::max(1, d.style.thickness));
    auto extend_world = [&](double wx, double wy) {
      double dx = 0;
      double dy = 0;
      camera.WorldToDevice(wx, wy, &dx, &dy);
      dirty->Extend(cell.x + dx - pad, cell.y + dy - pad);
      dirty->Extend(cell.x + dx + pad, cell.y + dy + pad);
    };
    switch (d.kind) {
      case draw::DrawableKind::kPoint:
        extend_world(ax, ay);
        break;
      case draw::DrawableKind::kLine:
      case draw::DrawableKind::kRectangle:
      case draw::DrawableKind::kViewer:
        extend_world(ax, ay);
        extend_world(ax + d.a, ay + d.b);
        break;
      case draw::DrawableKind::kCircle: {
        double r = std::fabs(camera.Scale() * d.a);
        double dx = 0;
        double dy = 0;
        camera.WorldToDevice(ax, ay, &dx, &dy);
        dirty->Extend(cell.x + dx - r - pad, cell.y + dy - r - pad);
        dirty->Extend(cell.x + dx + r + pad, cell.y + dy + r + pad);
        break;
      }
      case draw::DrawableKind::kPolygon:
        if (d.points.empty()) {
          extend_world(ax, ay);
        } else {
          for (const draw::Point& p : d.points) extend_world(ax + p.x, ay + p.y);
        }
        break;
      case draw::DrawableKind::kText: {
        double dx = 0;
        double dy = 0;
        camera.WorldToDevice(ax, ay, &dx, &dy);
        double h = camera.Scale() * d.a;
        double glyph_scale = std::max<double>(
            1.0, static_cast<double>(std::lround(h / render::kGlyphHeight)));
        double width = static_cast<double>(d.text.size()) *
                       render::kGlyphAdvance * glyph_scale;
        double height = (render::kGlyphHeight + 1) * glyph_scale;
        dirty->Extend(cell.x + dx - pad, cell.y + dy - height - pad);
        dirty->Extend(cell.x + dx + width + pad, cell.y + dy + glyph_scale + pad);
        break;
      }
    }
  }
  return true;
}
}  // namespace

Viewer::Viewer(std::string name, std::string canvas_name, const CanvasRegistry* registry)
    : name_(std::move(name)),
      canvas_name_(std::move(canvas_name)),
      registry_(registry) {
  cameras_.emplace_back(0, 0, 100, kDefaultViewportW, kDefaultViewportH);
}

Status Viewer::Refresh() {
  if (registry_ == nullptr) return Status::FailedPrecondition("viewer has no registry");
  TIOGA2_ASSIGN_OR_RETURN(display::Displayable content,
                          registry_->Resolve(canvas_name_));
  content_ = display::AsGroup(content);
  size_t members = std::max<size_t>(1, content_.size());
  Camera prototype = cameras_.empty()
                         ? Camera(0, 0, 100, kDefaultViewportW, kDefaultViewportH)
                         : cameras_[0];
  while (cameras_.size() < members) cameras_.push_back(prototype);
  cameras_.resize(members);
  if (active_member_ >= members) active_member_ = 0;
  return Status::OK();
}

std::unique_ptr<Viewer> Viewer::CloneView(const std::string& name) const {
  auto clone = std::make_unique<Viewer>(name, canvas_name_, registry_);
  clone->content_ = content_;
  clone->cameras_ = cameras_;
  clone->active_member_ = active_member_;
  clone->travel_history_ = travel_history_;
  clone->glasses_ = glasses_;
  return clone;
}

Status Viewer::SetActiveMember(size_t member) {
  if (member >= cameras_.size()) {
    return Status::OutOfRange("group member " + std::to_string(member) +
                              " out of range (viewer has " +
                              std::to_string(cameras_.size()) + ")");
  }
  active_member_ = member;
  return Status::OK();
}

void Viewer::Pan(double dx, double dy) { PropagatePan(dx, dy, 0); }

void Viewer::PropagatePan(double dx, double dy, int depth) {
  if (depth > kMaxSlaveDepth) return;
  cameras_[active_member_].Pan(dx, dy);
  for (Viewer* slave : slaves_) slave->PropagatePan(dx, dy, depth + 1);
}

void Viewer::Zoom(double factor) { PropagateZoom(factor, 0); }

void Viewer::PropagateZoom(double factor, int depth) {
  if (depth > kMaxSlaveDepth) return;
  cameras_[active_member_].Zoom(factor);
  for (Viewer* slave : slaves_) slave->PropagateZoom(factor, depth + 1);
}

void Viewer::SetSlider(size_t dim, SliderRange range) {
  cameras_[active_member_].SetSlider(dim, range);
  for (Viewer* slave : slaves_) slave->cameras_[slave->active_member_].SetSlider(dim, range);
}

Status Viewer::FitContent(int viewport_w, int viewport_h) {
  TIOGA2_RETURN_IF_ERROR(Refresh());
  if (content_.members().empty()) return Status::OK();
  for (size_t m = 0; m < content_.size(); ++m) {
    const display::Composite& composite = content_.members()[m];
    draw::BBox world{0, 0, 0, 0};
    bool first = true;
    for (const display::CompositeEntry& entry : composite.entries()) {
      const display::DisplayRelation& relation = entry.relation;
      for (size_t row = 0; row < relation.num_rows(); ++row) {
        Result<std::vector<double>> location = relation.LocationOf(row);
        if (!location.ok()) continue;
        double x = (*location)[0] + entry.OffsetAt(0);
        double y = (*location)[1] + entry.OffsetAt(1);
        if (first) {
          world = draw::BBox{x, y, x, y};
          first = false;
        } else {
          world.Extend(x, y);
        }
      }
    }
    cameras_[m] = Camera::Fit(world, viewport_w, viewport_h);
  }
  return Status::OK();
}

Result<bool> Viewer::TryPassThrough(double pass_elevation) {
  if (content_.members().empty()) return false;
  const Camera& camera = cameras_[active_member_];
  if (camera.elevation() > pass_elevation) return false;
  const display::Composite& composite = content_.members()[active_member_];
  TIOGA2_ASSIGN_OR_RETURN(
      std::optional<draw::WormholeSpec> wormhole,
      FindWormholeAt(composite, camera, camera.center_x(), camera.center_y()));
  if (!wormhole.has_value()) return false;
  if (registry_ == nullptr || !registry_->Has(wormhole->destination_canvas)) {
    return Status::NotFound("wormhole destination canvas '" +
                            wormhole->destination_canvas + "' is not registered");
  }
  travel_history_.push_back(TravelRecord{canvas_name_, camera});
  canvas_name_ = wormhole->destination_canvas;
  TIOGA2_RETURN_IF_ERROR(Refresh());
  // "The user is initially positioned viewing the data for station s" —
  // the wormhole specifies the initial location and elevation (§6.2).
  Camera landing(wormhole->initial_x, wormhole->initial_y, wormhole->elevation,
                 camera.viewport_width(), camera.viewport_height());
  for (Camera& member_camera : cameras_) member_camera = landing;
  active_member_ = 0;
  return true;
}

Result<bool> Viewer::TravelBack() {
  if (travel_history_.empty()) return false;
  TravelRecord record = travel_history_.back();
  travel_history_.pop_back();
  canvas_name_ = record.canvas_name;
  TIOGA2_RETURN_IF_ERROR(Refresh());
  for (Camera& member_camera : cameras_) member_camera = record.camera;
  active_member_ = 0;
  return true;
}

Result<RenderStats> Viewer::RenderRearView(render::Surface* surface) const {
  RenderStats stats;
  if (travel_history_.empty()) {
    surface->Clear(draw::kLightGray);
    return stats;
  }
  const TravelRecord& record = travel_history_.back();
  if (registry_ == nullptr) return Status::FailedPrecondition("viewer has no registry");
  TIOGA2_ASSIGN_OR_RETURN(display::Displayable content,
                          registry_->Resolve(record.canvas_name));
  display::Group group = display::AsGroup(content);
  if (group.members().empty()) return stats;
  surface->Clear(draw::kLightGray);
  Camera mirror_camera(record.camera.center_x(), record.camera.center_y(),
                       record.camera.elevation(), surface->width(), surface->height());
  RenderOptions options;
  options.underside = true;
  options.registry = registry_;
  options.wormhole_depth = 0;
  return RenderComposite(group.members()[0], mirror_camera, surface, options);
}

Status Viewer::SlaveTo(Viewer* other) {
  if (other == nullptr || other == this) {
    return Status::InvalidArgument("cannot slave a viewer to itself");
  }
  // "Slaving is only defined for two viewers with the same dimensions"
  // (§7.1): compare the dimensions of the active composites.
  if (!content_.members().empty() && !other->content_.members().empty()) {
    size_t mine = content_.members()[active_member_].Dimension();
    size_t theirs = other->content_.members()[other->active_member_].Dimension();
    if (mine != theirs) {
      return Status::FailedPrecondition(
          "slaving needs equal dimensions: " + std::to_string(mine) + " vs " +
          std::to_string(theirs));
    }
  }
  if (std::find(slaves_.begin(), slaves_.end(), other) == slaves_.end()) {
    slaves_.push_back(other);
  }
  return Status::OK();
}

void Viewer::Unslave(Viewer* other) {
  slaves_.erase(std::remove(slaves_.begin(), slaves_.end(), other), slaves_.end());
  if (other != nullptr) {
    other->slaves_.erase(std::remove(other->slaves_.begin(), other->slaves_.end(), this),
                         other->slaves_.end());
  }
}

size_t Viewer::AddMagnifyingGlass(MagnifyingGlass glass) {
  glasses_.push_back(std::move(glass));
  return glasses_.size() - 1;
}

Status Viewer::RemoveMagnifyingGlass(size_t index) {
  if (index >= glasses_.size()) {
    return Status::OutOfRange("no magnifying glass " + std::to_string(index));
  }
  glasses_.erase(glasses_.begin() + static_cast<ptrdiff_t>(index));
  return Status::OK();
}

render::DeviceRect Viewer::CellRect(size_t member, int width, int height) const {
  auto [rows, columns] = content_.GridShape();
  if (rows == 0 || columns == 0) {
    return render::DeviceRect{0, 0, static_cast<double>(width),
                              static_cast<double>(height)};
  }
  auto [row, column] = content_.CellOf(member);
  double cell_w = static_cast<double>(width) / static_cast<double>(columns);
  double cell_h = static_cast<double>(height) / static_cast<double>(rows);
  return render::DeviceRect{column * cell_w, row * cell_h, cell_w, cell_h};
}

Result<RenderStats> Viewer::RenderTo(render::Surface* surface,
                                     const RenderOptions& base_options) const {
  RenderStats stats;
  RenderOptions options = base_options;
  if (options.registry == nullptr) options.registry = registry_;
  if (content_.members().empty()) return stats;
  ImageSet used;

  for (size_t m = 0; m < content_.size(); ++m) {
    render::DeviceRect cell = CellRect(m, surface->width(), surface->height());
    const Camera& member_camera = cameras_[m];
    // Render the member through its own camera, scaled into its layout cell.
    Camera cell_camera(member_camera.center_x(), member_camera.center_y(),
                       member_camera.elevation(),
                       static_cast<int>(std::lround(cell.width)),
                       static_cast<int>(std::lround(cell.height)));
    for (size_t dim = 2; dim < 16; ++dim) {
      std::optional<SliderRange> range = member_camera.Slider(dim);
      if (range.has_value()) cell_camera.SetSlider(dim, *range);
    }
    surface->PushViewport(cell, cell.width, cell.height);
    Result<RenderStats> member_stats =
        RenderComposite(content_.members()[m], cell_camera, surface, options, &used);
    surface->PopViewport();
    TIOGA2_RETURN_IF_ERROR(member_stats.status());
    stats += member_stats.value();
    // Cell separator for multi-member groups.
    if (content_.size() > 1) {
      draw::Style border;
      surface->DrawRect(cell.x, cell.y, cell.width - 1, cell.height - 1, border,
                        draw::kGray);
    }
  }

  // Magnifying glasses draw on top of the active member's view (§7.2).
  const Camera& outer = cameras_[active_member_];
  // The member's on-surface camera: same position, but viewported to the
  // member's layout cell so device-space glass rects map correctly.
  render::DeviceRect active_cell =
      CellRect(active_member_, surface->width(), surface->height());
  Camera outer_on_surface(outer.center_x(), outer.center_y(), outer.elevation(),
                          static_cast<int>(std::lround(active_cell.width)),
                          static_cast<int>(std::lround(active_cell.height)));
  // `source` with `attribute` as its active display, taken from this frame's
  // or the last frame's switches while `source` is the same value, so its
  // render image outlives the frame; null when the switch fails.
  std::vector<GlassSwitch> switches;
  auto switched_display = [&](const display::DisplayRelation& source,
                              const std::string& attribute)
      -> const display::DisplayRelation* {
    auto same = [&](const GlassSwitch& s) {
      return s.attribute == attribute && s.source.SameValue(source);
    };
    auto it = std::find_if(switches.begin(), switches.end(), same);
    if (it != switches.end()) return &it->switched;
    auto last = std::find_if(glass_switches_.begin(), glass_switches_.end(), same);
    if (last != glass_switches_.end()) {
      switches.push_back(*last);
      return &switches.back().switched;
    }
    Result<display::DisplayRelation> built = source.SetDisplayAttribute(attribute);
    if (!built.ok()) return nullptr;
    switches.push_back(GlassSwitch{source, attribute, std::move(built).value()});
    return &switches.back().switched;
  };
  for (const MagnifyingGlass& glass : glasses_) {
    double focus_x = glass.center_x;
    double focus_y = glass.center_y;
    if (glass.slaved) {
      // Lock the glass focus to the world point under its rect center
      // (rect coordinates are relative to the whole surface).
      outer_on_surface.DeviceToWorld(
          glass.rect.x + glass.rect.width / 2 - active_cell.x,
          glass.rect.y + glass.rect.height / 2 - active_cell.y, &focus_x, &focus_y);
    }
    int inner_w = std::max(1, static_cast<int>(std::lround(glass.rect.width)));
    int inner_h = std::max(1, static_cast<int>(std::lround(glass.rect.height)));
    Camera inner(focus_x, focus_y, outer.elevation() / std::max(glass.zoom, 1e-9),
                 inner_w, inner_h);
    for (size_t dim = 2; dim < 16; ++dim) {
      std::optional<SliderRange> range = outer.Slider(dim);
      if (range.has_value()) inner.SetSlider(dim, *range);
    }
    // Optionally switch display attributes inside the glass (Figure 9).
    display::Composite magnified = content_.members()[active_member_];
    if (glass.display_attribute.has_value()) {
      for (display::CompositeEntry& entry : magnified.mutable_entries()) {
        const display::DisplayRelation* switched =
            switched_display(entry.relation, *glass.display_attribute);
        if (switched != nullptr) entry.relation = *switched;
      }
    }
    surface->PushViewport(glass.rect, inner_w, inner_h);
    Result<RenderStats> glass_stats =
        RenderComposite(magnified, inner, surface, options, &used);
    surface->PopViewport();
    TIOGA2_RETURN_IF_ERROR(glass_stats.status());
    stats += glass_stats.value();
    draw::Style frame;
    frame.thickness = 2;
    surface->DrawRect(glass.rect.x, glass.rect.y, glass.rect.width, glass.rect.height,
                      frame, draw::kBlack);
  }
  rendered_images_ = std::move(used);
  glass_switches_ = std::move(switches);
  return stats;
}

Result<RenderStats> Viewer::RenderDeltaTo(render::Surface* surface,
                                          const dataflow::ValueDelta& delta,
                                          const draw::Color& background,
                                          const RenderOptions& base_options) {
  display::Group old_content = content_;
  TIOGA2_RETURN_IF_ERROR(Refresh());
  RenderOptions options = base_options;
  if (options.registry == nullptr) options.registry = registry_;

  // Byte-identical content: the previous render is already correct.
  if (delta.unchanged()) return RenderStats{};

  auto full_repaint = [&]() -> Result<RenderStats> {
    surface->Clear(background);
    return RenderTo(surface, base_options);
  };

  if (options.underside || !glasses_.empty() ||
      content_.size() != old_content.size()) {
    return full_repaint();
  }

  // One dirty rectangle per edited member, covering the old and new device
  // footprints of every edited tuple. `used` keeps the new content's images
  // alive for the repaint below.
  const db::ExecPolicy policy = options.policy.value_or(db::DefaultExecPolicy());
  ImageSet used;
  std::vector<DirtyRect> rects;
  for (const dataflow::MemberDelta& m : delta.members) {
    if (m.ops.empty()) continue;
    if (m.group_member >= content_.size() ||
        m.member >= content_.members()[m.group_member].size() ||
        m.member >= old_content.members()[m.group_member].size()) {
      return full_repaint();
    }
    render::DeviceRect cell =
        CellRect(m.group_member, surface->width(), surface->height());
    const Camera& member_camera = cameras_[m.group_member];
    Camera cell_camera(member_camera.center_x(), member_camera.center_y(),
                       member_camera.elevation(),
                       static_cast<int>(std::lround(cell.width)),
                       static_cast<int>(std::lround(cell.height)));
    const display::CompositeEntry& old_entry =
        old_content.members()[m.group_member].entries()[m.member];
    const display::CompositeEntry& new_entry =
        content_.members()[m.group_member].entries()[m.member];
    used.push_back(old_entry.relation.Image(policy));
    const display::RenderImage& old_image = *used.back();
    used.push_back(new_entry.relation.Image(policy));
    const display::RenderImage& new_image = *used.back();
    DirtyRect dirty;
    for (const dataflow::RowOp& op : m.ops) {
      // Inserts and deletes shift later rows; bounding them would mean
      // diffing the whole tail, at which point a full repaint is simpler.
      if (op.kind != dataflow::RowOp::Kind::kUpdate) return full_repaint();
      if (!ExtendTupleDeviceBounds(old_entry, old_image, cell_camera, cell, op.row,
                                   &dirty) ||
          !ExtendTupleDeviceBounds(new_entry, new_image, cell_camera, cell, op.row,
                                   &dirty)) {
        return full_repaint();
      }
    }
    if (!dirty.empty) rects.push_back(dirty);
  }

  // Repaint each dirty rectangle: erase to the background, then re-render
  // the whole viewer under a pixel clip. Drawing order inside the clip is
  // identical to a full render, so overlapping neighbours repaint exactly as
  // they would from scratch; pixels outside the clip are untouched.
  RenderStats stats;
  for (const DirtyRect& r : rects) {
    render::DeviceRect rect{r.x0 - kDirtyPad, r.y0 - kDirtyPad,
                            (r.x1 - r.x0) + 2 * kDirtyPad,
                            (r.y1 - r.y0) + 2 * kDirtyPad};
    surface->PushClip(rect);
    draw::Style fill;
    fill.fill = draw::FillMode::kFilled;
    surface->DrawRect(rect.x, rect.y, rect.width, rect.height, fill, background);
    Result<RenderStats> pass = RenderTo(surface, options);
    surface->PopClip();
    TIOGA2_RETURN_IF_ERROR(pass.status());
    stats += pass.value();
  }
  return stats;
}

Result<std::vector<ElevationBar>> Viewer::ElevationMap(size_t member) const {
  if (member >= content_.size()) {
    return Status::OutOfRange("group member " + std::to_string(member) +
                              " out of range");
  }
  std::vector<ElevationBar> bars;
  const display::Composite& composite = content_.members()[member];
  for (size_t i = 0; i < composite.size(); ++i) {
    const display::DisplayRelation& relation = composite.entries()[i].relation;
    bars.push_back(ElevationBar{relation.name(), relation.elevation_range().min,
                                relation.elevation_range().max, i});
  }
  return bars;
}

Result<std::optional<Hit>> Viewer::HitTestAt(render::Surface* surface_like_dims,
                                             double dx, double dy) const {
  if (content_.members().empty()) return std::optional<Hit>();
  int width = surface_like_dims->width();
  int height = surface_like_dims->height();
  for (size_t m = 0; m < content_.size(); ++m) {
    render::DeviceRect cell = CellRect(m, width, height);
    if (dx < cell.x || dx > cell.x + cell.width || dy < cell.y ||
        dy > cell.y + cell.height) {
      continue;
    }
    Camera cell_camera(cameras_[m].center_x(), cameras_[m].center_y(),
                       cameras_[m].elevation(),
                       static_cast<int>(std::lround(cell.width)),
                       static_cast<int>(std::lround(cell.height)));
    for (size_t dim = 2; dim < 16; ++dim) {
      std::optional<SliderRange> range = cameras_[m].Slider(dim);
      if (range.has_value()) cell_camera.SetSlider(dim, *range);
    }
    TIOGA2_ASSIGN_OR_RETURN(std::optional<Hit> hit,
                            HitTest(content_.members()[m], cell_camera, dx - cell.x,
                                    dy - cell.y));
    if (hit.has_value()) {
      hit->group_member = m;
      return hit;
    }
  }
  return std::optional<Hit>();
}

}  // namespace tioga2::viewer
