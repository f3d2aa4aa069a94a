#include "viewer/canvas_renderer.h"

#include <algorithm>
#include <cmath>

namespace tioga2::viewer {

using display::Composite;
using display::CompositeEntry;

RenderStats& RenderStats::operator+=(const RenderStats& other) {
  tuples_total += other.tuples_total;
  tuples_drawn += other.tuples_drawn;
  tuples_culled_slider += other.tuples_culled_slider;
  tuples_culled_viewport += other.tuples_culled_viewport;
  relations_skipped += other.relations_skipped;
  tuple_errors += other.tuple_errors;
  wormholes_rendered += other.wormholes_rendered;
  return *this;
}

namespace {

/// World-to-device projection for one render pass; handles the horizontal
/// mirroring of rear-view renders (§6.3).
struct Projector {
  const Camera& camera;
  bool mirror = false;

  void ToDevice(double wx, double wy, double* dx, double* dy) const {
    camera.WorldToDevice(wx, wy, dx, dy);
    if (mirror) *dx = camera.viewport_width() - *dx;
  }
  double Length(double world) const { return world * camera.Scale(); }
};

/// Whether a relation participates in this pass given its elevation range:
/// the top side shows ranges containing the camera elevation, the underside
/// (rear view mirror) shows ranges containing the negated elevation (§6.3).
bool ElevationVisible(const display::ElevationRange& range, const Camera& camera,
                      bool underside) {
  return range.Contains(underside ? -camera.elevation() : camera.elevation());
}

/// Visibility decision for one tuple; shared by rendering and hit-testing.
enum class TupleVisibility { kVisible, kSliderCulled, kViewportCulled, kError };

/// `relation`'s render image for `policy`, recorded once in `used`, which
/// keeps it alive for the caller.
const display::RenderImage& ImageOf(const display::DisplayRelation& relation,
                                    const db::ExecPolicy& policy, ImageSet* used) {
  std::shared_ptr<const display::RenderImage> image = relation.Image(policy);
  if (std::find(used->begin(), used->end(), image) == used->end()) {
    used->push_back(image);
  }
  return *image;
}

/// Classifies row `row` of `image` under `entry`'s offset and `camera`'s
/// sliders and visible world rectangle `visible`. The tests run in the order
/// of the per-row evaluation they replace: location error, slider cull,
/// display error, viewport cull. On kVisible, (*x, *y) is the offset
/// location, computed with the same floating-point additions.
TupleVisibility ClassifyTuple(const display::RenderImage& image,
                              const CompositeEntry& entry, const Camera& camera,
                              const draw::BBox& visible, size_t row, double* x,
                              double* y) {
  const uint8_t errors = image.errors[row];
  if (errors & display::RenderImage::kLocationError) return TupleVisibility::kError;
  const double* loc = image.LocationAt(row);
  for (size_t d = 2; d < image.dimension; ++d) {
    if (!camera.SliderAccepts(d, loc[d] + entry.OffsetAt(d))) {
      return TupleVisibility::kSliderCulled;
    }
  }
  if (errors & display::RenderImage::kDisplayError) return TupleVisibility::kError;
  *x = loc[0] + entry.OffsetAt(0);
  *y = loc[1] + entry.OffsetAt(1);
  draw::BBox bounds = image.bounds[row];
  bounds.min_x += *x;
  bounds.max_x += *x;
  bounds.min_y += *y;
  bounds.max_y += *y;
  if (!bounds.Intersects(visible)) return TupleVisibility::kViewportCulled;
  return TupleVisibility::kVisible;
}

Status RenderDrawable(const draw::Drawable& drawable, double wx, double wy,
                      const Projector& projector, render::Surface* surface,
                      const RenderOptions& options, RenderStats* stats, ImageSet* used);

Status RenderDisplayList(const draw::DrawableList& list, double wx, double wy,
                         const Projector& projector, render::Surface* surface,
                         const RenderOptions& options, RenderStats* stats,
                         ImageSet* used) {
  if (list == nullptr) return Status::OK();
  for (const draw::Drawable& drawable : *list) {
    TIOGA2_RETURN_IF_ERROR(
        RenderDrawable(drawable, wx, wy, projector, surface, options, stats, used));
  }
  return Status::OK();
}

Status RenderWormhole(const draw::Drawable& drawable, double ax, double ay,
                      const Projector& projector, render::Surface* surface,
                      const RenderOptions& options, RenderStats* stats, ImageSet* used) {
  // Device rectangle of the viewer window (world rect is anchored at its
  // lower-left corner, like kRectangle).
  double dx0 = 0;
  double dy0 = 0;
  projector.ToDevice(ax, ay + drawable.b, &dx0, &dy0);  // top-left in device space
  double w = projector.Length(drawable.a);
  double h = projector.Length(drawable.b);
  render::DeviceRect target{dx0, dy0, w, h};

  // Frame: light fill plus border, so an unresolvable wormhole still shows.
  draw::Style fill_style;
  fill_style.fill = draw::FillMode::kFilled;
  surface->DrawRect(dx0, dy0, w, h, fill_style, draw::kWhite);

  if (options.wormhole_depth > 0 && options.registry != nullptr &&
      options.registry->Has(drawable.wormhole.destination_canvas)) {
    TIOGA2_ASSIGN_OR_RETURN(
        display::Displayable destination,
        options.registry->Resolve(drawable.wormhole.destination_canvas));
    // Render the first composite of the destination through the wormhole's
    // initial position (§6.2: destination canvas, elevation, location).
    display::Group group = display::AsGroup(destination);
    if (!group.members().empty()) {
      const Composite& inner = group.members()[0];
      // Nominal inner viewport: match the wormhole's aspect at ~256 px.
      int inner_w = 256;
      int inner_h = h > 0 && w > 0
                        ? std::max(1, static_cast<int>(std::lround(256.0 * h / w)))
                        : 256;
      Camera inner_camera(drawable.wormhole.initial_x, drawable.wormhole.initial_y,
                          drawable.wormhole.elevation, inner_w, inner_h);
      RenderOptions inner_options = options;
      inner_options.wormhole_depth = options.wormhole_depth - 1;
      inner_options.underside = false;
      surface->PushViewport(target, inner_w, inner_h);
      Result<RenderStats> inner_stats =
          RenderComposite(inner, inner_camera, surface, inner_options, used);
      surface->PopViewport();
      TIOGA2_RETURN_IF_ERROR(inner_stats.status());
      *stats += inner_stats.value();
      ++stats->wormholes_rendered;
    }
  }

  draw::Style border;
  border.thickness = 1;
  surface->DrawRect(dx0, dy0, w, h, border, draw::kGray);
  return Status::OK();
}

Status RenderDrawable(const draw::Drawable& drawable, double wx, double wy,
                      const Projector& projector, render::Surface* surface,
                      const RenderOptions& options, RenderStats* stats, ImageSet* used) {
  double ax = wx + drawable.offset_x;
  double ay = wy + drawable.offset_y;
  double dx = 0;
  double dy = 0;
  projector.ToDevice(ax, ay, &dx, &dy);
  switch (drawable.kind) {
    case draw::DrawableKind::kPoint:
      surface->DrawPoint(dx, dy, drawable.style.thickness, drawable.color);
      return Status::OK();
    case draw::DrawableKind::kLine: {
      double ex = 0;
      double ey = 0;
      projector.ToDevice(ax + drawable.a, ay + drawable.b, &ex, &ey);
      surface->DrawLine(dx, dy, ex, ey, drawable.style, drawable.color);
      return Status::OK();
    }
    case draw::DrawableKind::kRectangle: {
      // World rect anchored at lower-left; device rect needs its top-left.
      double tx = 0;
      double ty = 0;
      projector.ToDevice(ax, ay + drawable.b, &tx, &ty);
      surface->DrawRect(tx, ty, projector.Length(drawable.a),
                        projector.Length(drawable.b), drawable.style, drawable.color);
      return Status::OK();
    }
    case draw::DrawableKind::kCircle:
      surface->DrawCircle(dx, dy, projector.Length(drawable.a), drawable.style,
                          drawable.color);
      return Status::OK();
    case draw::DrawableKind::kPolygon: {
      std::vector<draw::Point> device;
      device.reserve(drawable.points.size());
      for (const draw::Point& p : drawable.points) {
        double px = 0;
        double py = 0;
        projector.ToDevice(ax + p.x, ay + p.y, &px, &py);
        device.push_back(draw::Point{px, py});
      }
      surface->DrawPolygon(device, drawable.style, drawable.color);
      return Status::OK();
    }
    case draw::DrawableKind::kText:
      surface->DrawText(drawable.text, dx, dy, projector.Length(drawable.a),
                        drawable.color);
      return Status::OK();
    case draw::DrawableKind::kViewer:
      return RenderWormhole(drawable, ax, ay, projector, surface, options, stats, used);
  }
  return Status::Internal("unhandled drawable kind");
}

}  // namespace

Result<RenderStats> RenderComposite(const Composite& composite, const Camera& camera,
                                    render::Surface* surface,
                                    const RenderOptions& options, ImageSet* used) {
  ImageSet local;
  if (used == nullptr) used = &local;
  RenderStats stats;
  Projector projector{camera, options.underside};
  const db::ExecPolicy policy = options.policy.value_or(db::DefaultExecPolicy());
  const draw::BBox visible = camera.VisibleWorld();
  for (const CompositeEntry& entry : composite.entries()) {
    const display::DisplayRelation& relation = entry.relation;
    if (!ElevationVisible(relation.elevation_range(), camera, options.underside)) {
      ++stats.relations_skipped;
      continue;
    }
    stats.tuples_total += relation.num_rows();
    const display::RenderImage& image = ImageOf(relation, policy, used);
    for (size_t row = 0; row < relation.num_rows(); ++row) {
      double x = 0;
      double y = 0;
      switch (ClassifyTuple(image, entry, camera, visible, row, &x, &y)) {
        case TupleVisibility::kError:
          ++stats.tuple_errors;
          continue;
        case TupleVisibility::kSliderCulled:
          ++stats.tuples_culled_slider;
          continue;
        case TupleVisibility::kViewportCulled:
          ++stats.tuples_culled_viewport;
          continue;
        case TupleVisibility::kVisible:
          break;
      }
      const draw::DrawableList& display_list = image.displays[row];
      TIOGA2_RETURN_IF_ERROR(RenderDisplayList(display_list, x, y, projector, surface,
                                               options, &stats, used));
      if (display_list != nullptr && !display_list->empty()) ++stats.tuples_drawn;
    }
  }
  return stats;
}

Result<std::optional<Hit>> HitTest(const Composite& composite, const Camera& camera,
                                   double dx, double dy) {
  const db::ExecPolicy policy = db::DefaultExecPolicy();
  const draw::BBox visible = camera.VisibleWorld();
  double wx = 0;
  double wy = 0;
  camera.DeviceToWorld(dx, dy, &wx, &wy);
  // Iterate topmost-first: later members draw above earlier ones, and later
  // rows above earlier rows.
  for (size_t m = composite.size(); m-- > 0;) {
    const CompositeEntry& entry = composite.entries()[m];
    const display::DisplayRelation& relation = entry.relation;
    if (!ElevationVisible(relation.elevation_range(), camera, /*underside=*/false)) {
      continue;
    }
    const std::shared_ptr<const display::RenderImage> held = relation.Image(policy);
    const display::RenderImage& image = *held;
    for (size_t row = relation.num_rows(); row-- > 0;) {
      double x = 0;
      double y = 0;
      if (ClassifyTuple(image, entry, camera, visible, row, &x, &y) !=
          TupleVisibility::kVisible) {
        continue;
      }
      if (image.bounds[row].Contains(wx - x, wy - y)) {
        return std::optional<Hit>(Hit{m, 0, row, relation.name()});
      }
    }
  }
  return std::optional<Hit>();
}

Result<std::optional<draw::WormholeSpec>> FindWormholeAt(const Composite& composite,
                                                         const Camera& camera,
                                                         double wx, double wy) {
  const db::ExecPolicy policy = db::DefaultExecPolicy();
  const draw::BBox visible = camera.VisibleWorld();
  for (size_t m = composite.size(); m-- > 0;) {
    const CompositeEntry& entry = composite.entries()[m];
    const display::DisplayRelation& relation = entry.relation;
    if (!ElevationVisible(relation.elevation_range(), camera, /*underside=*/false)) {
      continue;
    }
    const std::shared_ptr<const display::RenderImage> held = relation.Image(policy);
    const display::RenderImage& image = *held;
    for (size_t row = relation.num_rows(); row-- > 0;) {
      double x = 0;
      double y = 0;
      if (ClassifyTuple(image, entry, camera, visible, row, &x, &y) !=
          TupleVisibility::kVisible) {
        continue;
      }
      const draw::DrawableList& display_list = image.displays[row];
      if (display_list == nullptr) continue;
      for (size_t i = display_list->size(); i-- > 0;) {
        const draw::Drawable& d = (*display_list)[i];
        if (d.kind != draw::DrawableKind::kViewer) continue;
        double x0 = x + d.offset_x;
        double y0 = y + d.offset_y;
        if (wx >= x0 && wx <= x0 + d.a && wy >= y0 && wy <= y0 + d.b) {
          return std::optional<draw::WormholeSpec>(d.wormhole);
        }
      }
    }
  }
  return std::optional<draw::WormholeSpec>();
}

}  // namespace tioga2::viewer
