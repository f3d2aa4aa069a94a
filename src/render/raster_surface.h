#ifndef TIOGA2_RENDER_RASTER_SURFACE_H_
#define TIOGA2_RENDER_RASTER_SURFACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "render/framebuffer.h"
#include "render/surface.h"

namespace tioga2::render {

/// Software rasterizer drawing into a Framebuffer: Bresenham lines (with
/// dash patterns), midpoint circles, even-odd scanline polygon fill, and
/// bitmap-font text. Filled shapes, glyph blocks and thick points iterate
/// only the pixel rows and columns inside the framebuffer, with device
/// coordinates rounded to int64, so a primitive of any size costs at most
/// the framebuffer's area.
class RasterSurface : public Surface {
 public:
  /// `framebuffer` must outlive the surface.
  explicit RasterSurface(Framebuffer* framebuffer) : fb_(framebuffer) {}

  int width() const override { return fb_->width(); }
  int height() const override { return fb_->height(); }

  void Clear(const draw::Color& color) override { fb_->Clear(color); }
  void DrawPoint(double x, double y, int thickness, const draw::Color& color) override;
  void DrawLine(double x1, double y1, double x2, double y2, const draw::Style& style,
                const draw::Color& color) override;
  void DrawRect(double x, double y, double w, double h, const draw::Style& style,
                const draw::Color& color) override;
  void DrawCircle(double cx, double cy, double radius, const draw::Style& style,
                  const draw::Color& color) override;
  void DrawPolygon(const std::vector<draw::Point>& points, const draw::Style& style,
                   const draw::Color& color) override;
  void DrawText(const std::string& text, double x, double y, double height,
                const draw::Color& color) override;

  void PushViewport(const DeviceRect& target, double source_width,
                    double source_height) override {
    transform_.Push(target, source_width, source_height);
  }
  void PopViewport() override { transform_.Pop(); }

  /// True per-pixel clipping: every drawing primitive already tests each
  /// pixel against the transform stack's clip, so pixels outside `rect`
  /// are provably untouched between PushClip and PopClip.
  void PushClip(const DeviceRect& rect) override { transform_.PushClip(rect); }
  void PopClip() override { transform_.Pop(); }

 private:
  /// Writes a transformed, clipped pixel block of side `thickness`.
  void Plot(double x, double y, int thickness, const draw::Color& color);
  /// Plot in already-transformed device coordinates.
  void PlotDevice(int64_t x, int64_t y, int thickness, const draw::Color& color);

  Framebuffer* fb_;
  TransformStack transform_;
};

}  // namespace tioga2::render

#endif  // TIOGA2_RENDER_RASTER_SURFACE_H_
