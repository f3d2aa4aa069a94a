// RasterSurface against a per-pixel reference. The rasterizer's filled
// shapes, glyph blocks and thick points iterate only the rows and columns
// inside the framebuffer, its outline circles only the rows that can reach
// it, and its lines only the steps that can; ReferenceSurface below keeps
// the earlier loops, which walk a primitive's whole device extent and let
// Framebuffer::Set drop what falls outside. On coordinates both can run,
// every pixel must agree; past that, the bounded loops must stay fast where
// the reference would not.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "render/font.h"
#include "render/framebuffer.h"
#include "render/raster_surface.h"

namespace tioga2::render {
namespace {

/// The per-pixel rasterizer the bounded one must match: the same transform
/// stack, clip test and framebuffer writes, with every loop spanning the
/// primitive's full device extent in int coordinates.
class ReferenceSurface : public Surface {
 public:
  explicit ReferenceSurface(Framebuffer* framebuffer) : fb_(framebuffer) {}

  int width() const override { return fb_->width(); }
  int height() const override { return fb_->height(); }
  void Clear(const draw::Color& color) override { fb_->Clear(color); }

  void DrawPoint(double x, double y, int thickness, const draw::Color& color) override {
    Plot(x, y, std::max(1, thickness), color);
  }

  void DrawLine(double x1, double y1, double x2, double y2, const draw::Style& style,
                const draw::Color& color) override {
    transform_.Apply(&x1, &y1);
    transform_.Apply(&x2, &y2);
    int ix1 = static_cast<int>(std::lround(x1));
    int iy1 = static_cast<int>(std::lround(y1));
    int ix2 = static_cast<int>(std::lround(x2));
    int iy2 = static_cast<int>(std::lround(y2));
    int dx = std::abs(ix2 - ix1);
    int dy = -std::abs(iy2 - iy1);
    int sx = ix1 < ix2 ? 1 : -1;
    int sy = iy1 < iy2 ? 1 : -1;
    int err = dx + dy;
    int x = ix1;
    int y = iy1;
    int step = 0;
    while (true) {
      if (DashOn(style.line, step)) PlotDevice(x, y, style.thickness, color);
      if (x == ix2 && y == iy2) break;
      int e2 = 2 * err;
      if (e2 >= dy) {
        err += dy;
        x += sx;
      }
      if (e2 <= dx) {
        err += dx;
        y += sy;
      }
      ++step;
    }
  }

  void DrawRect(double x, double y, double w, double h, const draw::Style& style,
                const draw::Color& color) override {
    if (style.fill == draw::FillMode::kFilled) {
      double x0 = x;
      double y0 = y;
      double x1 = x + w;
      double y1 = y + h;
      transform_.Apply(&x0, &y0);
      transform_.Apply(&x1, &y1);
      if (x1 < x0) std::swap(x0, x1);
      if (y1 < y0) std::swap(y0, y1);
      int ix0 = static_cast<int>(std::lround(x0));
      int iy0 = static_cast<int>(std::lround(y0));
      int ix1 = static_cast<int>(std::lround(x1));
      int iy1 = static_cast<int>(std::lround(y1));
      for (int py = iy0; py <= iy1; ++py) {
        for (int px = ix0; px <= ix1; ++px) {
          if (!transform_.Clipped(px, py)) fb_->Set(px, py, color);
        }
      }
      return;
    }
    DrawLine(x, y, x + w, y, style, color);
    DrawLine(x + w, y, x + w, y + h, style, color);
    DrawLine(x + w, y + h, x, y + h, style, color);
    DrawLine(x, y + h, x, y, style, color);
  }

  void DrawCircle(double cx, double cy, double radius, const draw::Style& style,
                  const draw::Color& color) override {
    transform_.Apply(&cx, &cy);
    double r = transform_.ApplyLength(radius);
    int icx = static_cast<int>(std::lround(cx));
    int icy = static_cast<int>(std::lround(cy));
    int ir = static_cast<int>(std::lround(std::fabs(r)));
    if (ir == 0) {
      PlotDevice(icx, icy, style.thickness, color);
      return;
    }
    if (style.fill == draw::FillMode::kFilled) {
      for (int dy = -ir; dy <= ir; ++dy) {
        int span = static_cast<int>(std::floor(std::sqrt(
            static_cast<double>(ir) * ir - static_cast<double>(dy) * dy)));
        for (int dx = -span; dx <= span; ++dx) {
          if (!transform_.Clipped(icx + dx, icy + dy)) {
            fb_->Set(icx + dx, icy + dy, color);
          }
        }
      }
      return;
    }
    int x = ir;
    int y = 0;
    int err = 1 - ir;
    while (x >= y) {
      const int px[8] = {icx + x, icx - x, icx + x, icx - x,
                         icx + y, icx - y, icx + y, icx - y};
      const int py[8] = {icy + y, icy + y, icy - y, icy - y,
                         icy + x, icy + x, icy - x, icy - x};
      for (int i = 0; i < 8; ++i) PlotDevice(px[i], py[i], style.thickness, color);
      ++y;
      if (err < 0) {
        err += 2 * y + 1;
      } else {
        --x;
        err += 2 * (y - x) + 1;
      }
    }
  }

  void DrawPolygon(const std::vector<draw::Point>& points, const draw::Style& style,
                   const draw::Color& color) override {
    if (points.size() < 2) return;
    if (style.fill == draw::FillMode::kFilled && points.size() >= 3) {
      std::vector<draw::Point> device;
      double min_y = 1e300;
      double max_y = -1e300;
      for (const draw::Point& p : points) {
        double x = p.x;
        double y = p.y;
        transform_.Apply(&x, &y);
        min_y = std::min(min_y, y);
        max_y = std::max(max_y, y);
        device.push_back(draw::Point{x, y});
      }
      int iy0 = static_cast<int>(std::ceil(min_y));
      int iy1 = static_cast<int>(std::floor(max_y));
      for (int py = iy0; py <= iy1; ++py) {
        double scan = py + 0.5;
        std::vector<double> crossings;
        for (size_t i = 0; i < device.size(); ++i) {
          const draw::Point& a = device[i];
          const draw::Point& b = device[(i + 1) % device.size()];
          if ((a.y <= scan && b.y > scan) || (b.y <= scan && a.y > scan)) {
            double t = (scan - a.y) / (b.y - a.y);
            crossings.push_back(a.x + t * (b.x - a.x));
          }
        }
        std::sort(crossings.begin(), crossings.end());
        for (size_t i = 0; i + 1 < crossings.size(); i += 2) {
          int px0 = static_cast<int>(std::ceil(crossings[i]));
          int px1 = static_cast<int>(std::floor(crossings[i + 1]));
          for (int px = px0; px <= px1; ++px) {
            if (!transform_.Clipped(px, py)) fb_->Set(px, py, color);
          }
        }
      }
      return;
    }
    for (size_t i = 0; i + 1 < points.size(); ++i) {
      DrawLine(points[i].x, points[i].y, points[i + 1].x, points[i + 1].y, style, color);
    }
    if (points.size() >= 3) {
      DrawLine(points.back().x, points.back().y, points[0].x, points[0].y, style, color);
    }
  }

  void DrawText(const std::string& text, double x, double y, double height,
                const draw::Color& color) override {
    transform_.Apply(&x, &y);
    double h = transform_.ApplyLength(height);
    int scale = std::max(1, static_cast<int>(std::lround(h / kGlyphHeight)));
    int origin_x = static_cast<int>(std::lround(x));
    int origin_y = static_cast<int>(std::lround(y)) - kGlyphHeight * scale + scale;
    for (size_t i = 0; i < text.size(); ++i) {
      const std::array<uint8_t, 7>& glyph = GlyphFor(text[i]);
      int gx = origin_x + static_cast<int>(i) * kGlyphAdvance * scale;
      for (int row = 0; row < kGlyphHeight; ++row) {
        uint8_t bits = glyph[static_cast<size_t>(row)];
        for (int col = 0; col < kGlyphWidth; ++col) {
          if ((bits & (1 << (4 - col))) == 0) continue;
          for (int sy = 0; sy < scale; ++sy) {
            for (int sx = 0; sx < scale; ++sx) {
              int px = gx + col * scale + sx;
              int py = origin_y + row * scale + sy;
              if (!transform_.Clipped(px, py)) fb_->Set(px, py, color);
            }
          }
        }
      }
    }
  }

  void PushViewport(const DeviceRect& target, double source_width,
                    double source_height) override {
    transform_.Push(target, source_width, source_height);
  }
  void PopViewport() override { transform_.Pop(); }
  void PushClip(const DeviceRect& rect) override { transform_.PushClip(rect); }
  void PopClip() override { transform_.Pop(); }

 private:
  static bool DashOn(draw::LineStyle style, int step) {
    switch (style) {
      case draw::LineStyle::kSolid:
        return true;
      case draw::LineStyle::kDashed:
        return (step / 4) % 2 == 0;
      case draw::LineStyle::kDotted:
        return step % 3 == 0;
    }
    return true;
  }

  void PlotDevice(int x, int y, int thickness, const draw::Color& color) {
    if (thickness <= 1) {
      if (!transform_.Clipped(x, y)) fb_->Set(x, y, color);
      return;
    }
    int half = thickness / 2;
    for (int dy = -half; dy <= half; ++dy) {
      for (int dx = -half; dx <= half; ++dx) {
        if (!transform_.Clipped(x + dx, y + dy)) fb_->Set(x + dx, y + dy, color);
      }
    }
  }

  void Plot(double x, double y, int thickness, const draw::Color& color) {
    transform_.Apply(&x, &y);
    PlotDevice(static_cast<int>(std::lround(x)), static_cast<int>(std::lround(y)),
               thickness, color);
  }

  Framebuffer* fb_;
  TransformStack transform_;
};

draw::Style RandomStyle(Rng* rng) {
  draw::Style style;
  style.fill =
      rng->NextBounded(2) == 0 ? draw::FillMode::kFilled : draw::FillMode::kOutline;
  style.line = static_cast<draw::LineStyle>(rng->NextBounded(3));
  style.thickness = static_cast<int>(rng->NextBounded(8));  // 0..7: thin and thick
  return style;
}

/// A coordinate on, off or straddling a 64-pixel axis, often fractional.
double Coordinate(Rng* rng) {
  double v = rng->Uniform(-100, 164);
  return rng->NextBounded(3) == 0 ? std::round(v) + 0.5 : v;
}

/// One seeded primitive, drawn identically on `surface`.
void DrawRandomPrimitive(uint64_t draw_seed, Surface* surface) {
  Rng rng(draw_seed);
  const draw::Color color{static_cast<uint8_t>(rng.NextBounded(256)),
                          static_cast<uint8_t>(rng.NextBounded(256)),
                          static_cast<uint8_t>(rng.NextBounded(256))};
  const draw::Style style = RandomStyle(&rng);
  switch (rng.NextBounded(6)) {
    case 0:
      surface->DrawCircle(Coordinate(&rng), Coordinate(&rng),
                          rng.NextBounded(4) == 0 ? 0.0 : rng.Uniform(-60, 60), style,
                          color);
      break;
    case 1:
      surface->DrawRect(Coordinate(&rng), Coordinate(&rng), rng.Uniform(-70, 70),
                        rng.Uniform(-70, 70), style, color);
      break;
    case 2: {
      const std::string texts[] = {"LAX", "New Orleans", "a~{}|", "0.25"};
      surface->DrawText(texts[rng.NextBounded(4)], Coordinate(&rng), Coordinate(&rng),
                        rng.Uniform(-10, 60), color);
      break;
    }
    case 3:
      surface->DrawPoint(Coordinate(&rng), Coordinate(&rng),
                         static_cast<int>(rng.NextBounded(12)), color);
      break;
    case 4: {
      std::vector<draw::Point> points;
      const size_t n = 3 + rng.NextBounded(4);
      for (size_t i = 0; i < n; ++i) {
        points.push_back(draw::Point{Coordinate(&rng), Coordinate(&rng)});
      }
      surface->DrawPolygon(points, style, color);
      break;
    }
    default:
      surface->DrawLine(Coordinate(&rng), Coordinate(&rng), Coordinate(&rng),
                        Coordinate(&rng), style, color);
      break;
  }
}

/// Draws `count` seeded primitives under a seeded nest of viewports and
/// clips (fractional, partly off-screen, sometimes empty), each viewport
/// scaling by at most 2.
void DrawScene(uint64_t seed, size_t count, Surface* surface) {
  Rng rng(seed);
  surface->Clear(draw::Color{20, 30, 40});
  int depth = 0;
  for (size_t i = 0; i < count; ++i) {
    switch (rng.NextBounded(8)) {
      case 0:
        if (depth < 3) {
          surface->PushViewport(DeviceRect{rng.Uniform(-20, 50), rng.Uniform(-20, 40),
                                           rng.Uniform(0, 70), rng.Uniform(0, 60)},
                                rng.Uniform(35, 120), rng.Uniform(35, 120));
          ++depth;
        }
        break;
      case 1:
        if (depth < 3) {
          surface->PushClip(DeviceRect{rng.Uniform(-10, 50), rng.Uniform(-10, 40),
                                       rng.Uniform(-5, 60), rng.Uniform(-5, 50)});
          ++depth;
        }
        break;
      case 2:
        if (depth > 0) {
          // PopViewport and PopClip both pop the top frame.
          surface->PopViewport();
          --depth;
        }
        break;
      default:
        DrawRandomPrimitive(rng.NextUint64(), surface);
        break;
    }
  }
}

TEST(RasterReferenceTest, SeededScenesMatchThePerPixelLoops) {
  const int sizes[][2] = {{64, 64}, {97, 61}, {1, 1}, {5, 130}};
  for (const auto& size : sizes) {
    for (uint64_t seed = 1; seed <= 60; ++seed) {
      SCOPED_TRACE("size " + std::to_string(size[0]) + "x" + std::to_string(size[1]) +
                   " seed " + std::to_string(seed));
      Framebuffer bounded_fb(size[0], size[1]);
      Framebuffer reference_fb(size[0], size[1]);
      RasterSurface bounded(&bounded_fb);
      ReferenceSurface reference(&reference_fb);
      DrawScene(seed, 40, &bounded);
      DrawScene(seed, 40, &reference);
      ASSERT_EQ(bounded_fb.ToPpm(), reference_fb.ToPpm());
    }
  }
}

TEST(RasterReferenceTest, EveryPrimitiveKindMatchesAlone) {
  // One primitive per scene, so a mismatch names its seed.
  for (uint64_t seed = 1; seed <= 600; ++seed) {
    SCOPED_TRACE("primitive seed " + std::to_string(seed));
    Framebuffer bounded_fb(64, 48);
    Framebuffer reference_fb(64, 48);
    RasterSurface bounded(&bounded_fb);
    ReferenceSurface reference(&reference_fb);
    bounded.PushViewport(DeviceRect{3.25, -2.5, 60, 50}, 64, 48);
    reference.PushViewport(DeviceRect{3.25, -2.5, 60, 50}, 64, 48);
    DrawRandomPrimitive(seed, &bounded);
    DrawRandomPrimitive(seed, &reference);
    ASSERT_EQ(bounded_fb.ToPpm(), reference_fb.ToPpm());
  }
}

/// Seconds `draw` takes.
template <typename F>
double Seconds(F&& draw) {
  auto start = std::chrono::steady_clock::now();
  draw();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

TEST(RasterReferenceTest, HugeFilledCircleCostsTheFramebufferNotItsExtent) {
  draw::Style filled;
  filled.fill = draw::FillMode::kFilled;
  const draw::Color red{200, 30, 30};
  Framebuffer fb(64, 64, draw::kWhite);
  RasterSurface surface(&fb);
  double centred = Seconds([&] { surface.DrawCircle(32, 32, 1e12, filled, red); });
  EXPECT_EQ(fb.CountPixels(red), 4096u);

  fb.Clear(draw::kWhite);
  double far = Seconds([&] { surface.DrawCircle(5e12, -7e12, 1e12, filled, red); });
  EXPECT_EQ(fb.CountPixels(red), 0u);
  EXPECT_LT(centred, 0.5);
  EXPECT_LT(far, 0.5);
}

TEST(RasterReferenceTest, OutlineCircleRowSkipsMatchTheFullLoop) {
  // Large outline circles whose ring crosses the framebuffer at every angle,
  // so the bounded loop skips rows before, between and after the runs it
  // draws, and re-enters near the end of the octant (45 degrees).
  const double kPi = 3.14159265358979323846;
  Rng rng(2024);
  for (int i = 0; i < 160; ++i) {
    SCOPED_TRACE("outline circle " + std::to_string(i));
    const double radius = std::pow(10.0, rng.Uniform(0.5, 4.5));
    const double angle = i < 16 ? i * kPi / 8 : rng.Uniform(0, 2 * kPi);
    // A point the ring passes through, on or just off a 64x48 framebuffer.
    const double px = rng.Uniform(-8, 72);
    const double py = rng.Uniform(-8, 56);
    draw::Style style;
    style.fill = draw::FillMode::kOutline;
    style.thickness = static_cast<int>(rng.NextBounded(8));
    const draw::Color color{static_cast<uint8_t>(rng.NextBounded(256)), 90, 160};
    const bool viewport = rng.NextBounded(2) == 0;
    Framebuffer bounded_fb(64, 48);
    Framebuffer reference_fb(64, 48);
    RasterSurface bounded(&bounded_fb);
    ReferenceSurface reference(&reference_fb);
    for (Surface* surface : {static_cast<Surface*>(&bounded),
                             static_cast<Surface*>(&reference)}) {
      if (viewport) surface->PushViewport(DeviceRect{3.25, -2.5, 60, 50}, 64, 48);
      surface->DrawCircle(px - radius * std::cos(angle), py - radius * std::sin(angle),
                          radius, style, color);
    }
    ASSERT_EQ(bounded_fb.ToPpm(), reference_fb.ToPpm());
  }
  // Rings around a centred framebuffer, from inside every pixel to outside.
  for (int r = 25; r <= 45; ++r) {
    SCOPED_TRACE("centred outline radius " + std::to_string(r));
    Framebuffer bounded_fb(64, 48);
    Framebuffer reference_fb(64, 48);
    RasterSurface bounded(&bounded_fb);
    ReferenceSurface reference(&reference_fb);
    draw::Style style;
    style.thickness = r % 4;
    bounded.DrawCircle(31.5, 23.5, r, style, draw::kBlack);
    reference.DrawCircle(31.5, 23.5, r, style, draw::kBlack);
    ASSERT_EQ(bounded_fb.ToPpm(), reference_fb.ToPpm());
  }
}

TEST(RasterReferenceTest, HugeOutlineCircleCostsTheFramebufferNotItsExtent) {
  draw::Style outline;  // the default: an outline of thickness 1
  const draw::Color red{200, 30, 30};
  Framebuffer fb(64, 64, draw::kWhite);
  RasterSurface surface(&fb);
  double centred = Seconds([&] { surface.DrawCircle(32, 32, 1e12, outline, red); });
  EXPECT_EQ(fb.CountPixels(red), 0u);
  double far = Seconds([&] { surface.DrawCircle(5e12, -7e12, 1e12, outline, red); });
  EXPECT_EQ(fb.CountPixels(red), 0u);

  // The top of the ring crosses row 32 as a straight line.
  double crossing = Seconds([&] { surface.DrawCircle(32, 32 + 1e12, 1e12, outline, red); });
  EXPECT_EQ(fb.CountPixels(red), 64u);
  for (int x = 0; x < 64; ++x) EXPECT_EQ(fb.Get(x, 32), red) << x;
  fb.Clear(draw::kWhite);
  draw::Style thick;
  thick.thickness = 3;
  surface.DrawCircle(32, 32 + 1e12, 1e12, thick, red);
  EXPECT_EQ(fb.CountPixels(red), 3u * 64);

  // At 45 degrees, where the loop's octant ends, the ring is the
  // anti-diagonal x + y = 64.
  fb.Clear(draw::kWhite);
  const double d = 1e12 / std::sqrt(2.0);
  double diagonal = Seconds([&] { surface.DrawCircle(32 - d, 32 - d, 1e12, outline, red); });
  size_t on_line = 0;
  for (int y = 0; y < 64; ++y) {
    for (int x = 0; x < 64; ++x) {
      if (!(fb.Get(x, y) == red)) continue;
      EXPECT_LE(std::abs(x + y - 64), 2) << x << "," << y;
      ++on_line;
    }
  }
  EXPECT_GE(on_line, 60u);
  EXPECT_LT(centred, 0.5);
  EXPECT_LT(far, 0.5);
  EXPECT_LT(crossing, 0.5);
  EXPECT_LT(diagonal, 0.5);
}

TEST(RasterReferenceTest, LineStepSkipsMatchTheFullLoop) {
  // Lines in every octant (and along both axes and diagonals) that cross,
  // enter, leave or pass by a 64x48 framebuffer, so the bounded loop skips
  // steps before and after the ones it draws, re-entering at the exact
  // Bresenham state and dash step. Thin and thick, solid, dashed and dotted,
  // under up to two nested viewports and clips.
  const double kPi = 3.14159265358979323846;
  Rng rng(4242);
  for (int i = 0; i < 4000; ++i) {
    SCOPED_TRACE("line " + std::to_string(i));
    const double angle = i % 4 == 0 ? (i / 4 % 16) * kPi / 8 : rng.Uniform(0, 2 * kPi);
    const double length = std::pow(10.0, rng.Uniform(0, 4.5));
    // A point the line's extension passes through, on or near the
    // framebuffer, and where along the line it falls (past either end at
    // times, so some lines stop short of it).
    const double px = rng.Uniform(-12, 76);
    const double py = rng.Uniform(-12, 60);
    const double at = rng.Uniform(-0.3, 1.3);
    const double x1 = px - at * length * std::cos(angle);
    const double y1 = py - at * length * std::sin(angle);
    const double x2 = x1 + length * std::cos(angle);
    const double y2 = y1 + length * std::sin(angle);
    draw::Style style;
    style.line = static_cast<draw::LineStyle>(rng.NextBounded(3));
    style.thickness = static_cast<int>(rng.NextBounded(8));
    const draw::Color color{static_cast<uint8_t>(rng.NextBounded(256)), 60, 120};
    const int frames = static_cast<int>(rng.NextBounded(3));
    std::vector<std::pair<bool, DeviceRect>> stack;
    for (int f = 0; f < frames; ++f) {
      stack.push_back({rng.NextBounded(2) == 0,
                       DeviceRect{rng.Uniform(-10, 30), rng.Uniform(-10, 20),
                                  rng.Uniform(20, 70), rng.Uniform(20, 60)}});
    }
    Framebuffer bounded_fb(64, 48);
    Framebuffer reference_fb(64, 48);
    RasterSurface bounded(&bounded_fb);
    ReferenceSurface reference(&reference_fb);
    for (Surface* surface : {static_cast<Surface*>(&bounded),
                             static_cast<Surface*>(&reference)}) {
      for (const auto& [viewport, rect] : stack) {
        if (viewport) {
          surface->PushViewport(rect, 64, 48);
        } else {
          surface->PushClip(rect);
        }
      }
      surface->DrawLine(x1, y1, x2, y2, style, color);
    }
    ASSERT_EQ(bounded_fb.ToPpm(), reference_fb.ToPpm());
  }
}

TEST(RasterReferenceTest, HugeLinesCostTheFramebufferNotTheirLength) {
  // Lines 10^12 pixels long: the framebuffer's pixels come out as a short
  // line's would, and the loop visits only the steps near the framebuffer.
  const draw::Color red{200, 30, 30};
  const double kFar = 1e12;
  Framebuffer fb(64, 64, draw::kWhite);
  RasterSurface surface(&fb);
  draw::Style thin;
  auto row_set = [&](int y, int x0, int x1) {
    for (int x = x0; x <= x1; ++x) EXPECT_EQ(fb.Get(x, y), red) << x << "," << y;
  };
  double seconds = Seconds([&] {
    surface.DrawLine(-kFar, 10, kFar, 10, thin, red);  // crossing, horizontal
    EXPECT_EQ(fb.CountPixels(red), 64u);
    row_set(10, 0, 63);
    fb.Clear(draw::kWhite);
    surface.DrawLine(20, kFar, 20, -kFar, thin, red);  // crossing, vertical
    EXPECT_EQ(fb.CountPixels(red), 64u);
    for (int y = 0; y < 64; ++y) EXPECT_EQ(fb.Get(20, y), red) << y;
    fb.Clear(draw::kWhite);
    surface.DrawLine(-kFar, -kFar, kFar, kFar, thin, red);  // centred diagonal
    EXPECT_EQ(fb.CountPixels(red), 64u);
    for (int k = 0; k < 64; ++k) EXPECT_EQ(fb.Get(k, k), red) << k;
    fb.Clear(draw::kWhite);
    // Slope 10^-6: the minor axis moves 10^6 pixels before the framebuffer,
    // and row 10 is where the loop's own arithmetic puts it.
    surface.DrawLine(-kFar, 10 - 1e6, kFar, 10 + 1e6, thin, red);
    EXPECT_EQ(fb.CountPixels(red), 64u);
    row_set(10, 0, 63);
    fb.Clear(draw::kWhite);
    surface.DrawLine(-kFar, 20, 30, 20, thin, red);  // entering, ends inside
    surface.DrawLine(40, 30, kFar, 30, thin, red);   // starts inside, leaving
    EXPECT_EQ(fb.CountPixels(red), 31u + 24u);
    row_set(20, 0, 30);
    row_set(30, 40, 63);
    fb.Clear(draw::kWhite);
    // Dashes of four: step k of this line is pixel x = k - 10^12, and 10^12
    // is a multiple of 8, so x in [0, 4) is on and [4, 8) off.
    draw::Style dashed;
    dashed.line = draw::LineStyle::kDashed;
    surface.DrawLine(-kFar, 5, kFar, 5, dashed, red);
    EXPECT_EQ(fb.CountPixels(red), 32u);
    for (int x = 0; x < 64; ++x) EXPECT_EQ(fb.Get(x, 5) == red, x % 8 < 4) << x;
    fb.Clear(draw::kWhite);
    draw::Style thick;
    thick.thickness = 3;
    surface.DrawLine(-kFar, 40, kFar, 40, thick, red);
    EXPECT_EQ(fb.CountPixels(red), 3u * 64);
    fb.Clear(draw::kWhite);
    surface.DrawLine(5 * kFar, -7 * kFar, 6 * kFar, -8 * kFar, thin, red);  // far off
    surface.DrawLine(-kFar, -3, kFar, -3, thin, red);  // passes above the top row
    surface.DrawRect(-kFar, -kFar, 3 * kFar, 3 * kFar, thin, red);  // outline around
    EXPECT_EQ(fb.CountPixels(red), 0u);
  });
  EXPECT_LT(seconds, 0.5);
}

TEST(RasterReferenceTest, HugePrimitivesStayBounded) {
  draw::Style filled;
  filled.fill = draw::FillMode::kFilled;
  const draw::Color blue{40, 70, 200};
  Framebuffer fb(64, 64, draw::kWhite);
  RasterSurface surface(&fb);
  double seconds = Seconds([&] {
    surface.DrawRect(-1e15, -1e15, 3e15, 3e15, filled, blue);
    // Height 1e4: a glyph scale of 1,429, with the first rows on screen.
    surface.DrawText("WWWW", -5.0, 6 * 1429 + 10, 1e4, blue);
    surface.DrawText("far", 1e300, -1e300, 1e300, blue);
    surface.DrawPoint(10, 10, 1 << 30, blue);
    surface.DrawCircle(std::nan(""), 3, 1e9, filled, blue);
  });
  EXPECT_EQ(fb.CountPixels(blue), 4096u);
  EXPECT_LT(seconds, 0.5);
  // A point past INT_MAX in device space lands off-screen instead of
  // wrapping back onto it.
  fb.Clear(draw::kWhite);
  surface.DrawPoint(4294967296.0 + 10, 10, 1, blue);
  surface.DrawCircle(4294967296.0 + 10, 10, 3, filled, blue);
  EXPECT_EQ(fb.CountPixels(blue), 0u);
}

}  // namespace
}  // namespace tioga2::render
