#include "render/raster_surface.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <utility>

#include "render/font.h"

namespace tioga2::render {

namespace {

/// True iff this step of a dash pattern should be drawn.
bool DashOn(const draw::LineStyle style, int64_t step) {
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

/// std::lround of a device coordinate, clamped to ±2^52 first so that a
/// coordinate far off-screen neither overflows nor wraps onto the screen;
/// NaN rounds to the low end, off-screen.
int64_t RoundPixel(double v) {
  constexpr double kLimit = 4503599627370496.0;  // 2^52
  if (!(v >= -kLimit)) return -static_cast<int64_t>(kLimit);
  if (v > kLimit) return static_cast<int64_t>(kLimit);
  return static_cast<int64_t>(std::llround(v));
}

/// Narrows the inclusive pixel range [*lo, *hi] to [0, limit): the pixels
/// Framebuffer::Set keeps. The range is empty when *lo > *hi afterwards.
void ClampToFramebuffer(int64_t* lo, int64_t* hi, int limit) {
  *lo = std::max<int64_t>(*lo, 0);
  *hi = std::min<int64_t>(*hi, limit - 1);
}

using Wide = __int128;

/// The midpoint circle loop's x at row y (0 <= y <= r) of a radius-r
/// circle: the least x with x(x + 1) >= r^2 - y^2. The loop keeps this on
/// every row it visits (it steps x when x(x - 1) + (y + 1)^2 >= r^2, and one
/// step per row suffices up to the octant's last row), and past its last row
/// MidpointX(r, y) < y, so entering the loop there ends it as well.
int64_t MidpointX(int64_t r, int64_t y) {
  const Wide q = static_cast<Wide>(r) * r - static_cast<Wide>(y) * y;
  int64_t x = static_cast<int64_t>(std::sqrt(static_cast<double>(q)));
  while (static_cast<Wide>(x) * (x + 1) < q) ++x;
  while (x > 0 && static_cast<Wide>(x - 1) * x >= q) --x;
  return x;
}

/// The steps s in [0, length] at which start + dir * s lies in [lo, hi];
/// empty when first > last.
std::pair<int64_t, int64_t> StepsWithin(int64_t start, int64_t dir, int64_t length,
                                        int64_t lo, int64_t hi) {
  const int64_t first = dir > 0 ? lo - start : start - hi;
  const int64_t last = dir > 0 ? hi - start : start - lo;
  return {std::max<int64_t>(first, 0), std::min(last, length)};
}

}  // namespace

void RasterSurface::PlotDevice(int64_t x, int64_t y, int thickness,
                               const draw::Color& color) {
  const int64_t half = thickness <= 1 ? 0 : thickness / 2;
  int64_t x0 = x - half;
  int64_t x1 = x + half;
  int64_t y0 = y - half;
  int64_t y1 = y + half;
  ClampToFramebuffer(&x0, &x1, fb_->width());
  ClampToFramebuffer(&y0, &y1, fb_->height());
  for (int64_t py = y0; py <= y1; ++py) {
    for (int64_t px = x0; px <= x1; ++px) {
      if (!transform_.Clipped(px, py)) {
        fb_->Set(static_cast<int>(px), static_cast<int>(py), color);
      }
    }
  }
}

void RasterSurface::Plot(double x, double y, int thickness, const draw::Color& color) {
  transform_.Apply(&x, &y);
  PlotDevice(RoundPixel(x), RoundPixel(y), thickness, color);
}

void RasterSurface::DrawPoint(double x, double y, int thickness,
                              const draw::Color& color) {
  Plot(x, y, std::max(1, thickness), color);
}

void RasterSurface::DrawLine(double x1, double y1, double x2, double y2,
                             const draw::Style& style, const draw::Color& color) {
  transform_.Apply(&x1, &y1);
  transform_.Apply(&x2, &y2);
  const int64_t ix1 = RoundPixel(x1);
  const int64_t iy1 = RoundPixel(y1);
  const int64_t ix2 = RoundPixel(x2);
  const int64_t iy2 = RoundPixel(y2);
  // A point reaches the framebuffer only within its half-thickness of it.
  const int64_t half = style.thickness <= 1 ? 0 : style.thickness / 2;
  const int64_t x_lo = -half;
  const int64_t x_hi = fb_->width() - 1 + half;
  const int64_t y_lo = -half;
  const int64_t y_hi = fb_->height() - 1 + half;
  if (std::max(ix1, ix2) < x_lo || std::min(ix1, ix2) > x_hi ||
      std::max(iy1, iy2) < y_lo || std::min(iy1, iy2) > y_hi) {
    return;
  }

  const int64_t dx = std::abs(ix2 - ix1);
  const int64_t dy = -std::abs(iy2 - iy1);
  const int64_t sx = ix1 < ix2 ? 1 : -1;
  const int64_t sy = iy1 < iy2 ? 1 : -1;
  // Bresenham moves one pixel along the major axis (length len) every step
  // and, after s steps, has moved q(s) = floor((2 s minor + len) / 2 len)
  // pixels along the minor one. The loop visits only the steps whose point
  // lies near the framebuffer on both axes, entering the first at the x, y,
  // err and dash step it would have reached: err is dx (v + 1) + dy (u + 1)
  // after u steps in x and v in y.
  const bool x_major = dx >= -dy;
  const int64_t len = x_major ? dx : -dy;
  const int64_t minor = x_major ? -dy : dx;
  auto [first, last] = x_major ? StepsWithin(ix1, sx, len, x_lo, x_hi)
                               : StepsWithin(iy1, sy, len, y_lo, y_hi);
  const auto [q_first, q_last] = x_major ? StepsWithin(iy1, sy, minor, y_lo, y_hi)
                                         : StepsWithin(ix1, sx, minor, x_lo, x_hi);
  // The least s with q(s) >= q_first and the greatest with q(s) <= q_last
  // (the box test above leaves both ranges non-empty, so minor > 0 here).
  if (q_first > 0) {
    const Wide num = static_cast<Wide>(len) * (2 * q_first - 1);
    first = std::max(first, static_cast<int64_t>((num + 2 * minor - 1) / (2 * minor)));
  }
  if (q_last < minor) {
    const Wide num = static_cast<Wide>(len) * (2 * q_last + 1) - 1;
    last = std::min(last, static_cast<int64_t>(num / (2 * minor)));
  }
  if (first > last) return;
  const int64_t q = len == 0 ? 0
                             : static_cast<int64_t>((static_cast<Wide>(2) * first * minor + len) /
                                                    (static_cast<Wide>(2) * len));
  const int64_t u = x_major ? first : q;
  const int64_t v = x_major ? q : first;
  int64_t x = ix1 + sx * u;
  int64_t y = iy1 + sy * v;
  int64_t err = static_cast<int64_t>(static_cast<Wide>(dx) * (v + 1) +
                                     static_cast<Wide>(dy) * (u + 1));
  for (int64_t step = first;; ++step) {
    if (DashOn(style.line, step)) PlotDevice(x, y, style.thickness, color);
    if (step == last) break;
    const int64_t e2 = 2 * err;
    if (e2 >= dy) {
      err += dy;
      x += sx;
    }
    if (e2 <= dx) {
      err += dx;
      y += sy;
    }
  }
}

void RasterSurface::DrawRect(double x, double y, double w, double h,
                             const draw::Style& style, const draw::Color& color) {
  if (style.fill == draw::FillMode::kFilled) {
    double x0 = x;
    double y0 = y;
    double x1 = x + w;
    double y1 = y + h;
    transform_.Apply(&x0, &y0);
    transform_.Apply(&x1, &y1);
    if (x1 < x0) std::swap(x0, x1);
    if (y1 < y0) std::swap(y0, y1);
    int64_t ix0 = RoundPixel(x0);
    int64_t iy0 = RoundPixel(y0);
    int64_t ix1 = RoundPixel(x1);
    int64_t iy1 = RoundPixel(y1);
    ClampToFramebuffer(&ix0, &ix1, fb_->width());
    ClampToFramebuffer(&iy0, &iy1, fb_->height());
    for (int64_t py = iy0; py <= iy1; ++py) {
      for (int64_t px = ix0; px <= ix1; ++px) {
        if (!transform_.Clipped(px, py)) {
          fb_->Set(static_cast<int>(px), static_cast<int>(py), color);
        }
      }
    }
    return;
  }
  DrawLine(x, y, x + w, y, style, color);
  DrawLine(x + w, y, x + w, y + h, style, color);
  DrawLine(x + w, y + h, x, y + h, style, color);
  DrawLine(x, y + h, x, y, style, color);
}

void RasterSurface::DrawCircle(double cx, double cy, double radius,
                               const draw::Style& style, const draw::Color& color) {
  transform_.Apply(&cx, &cy);
  double r = transform_.ApplyLength(radius);
  int64_t icx = RoundPixel(cx);
  int64_t icy = RoundPixel(cy);
  int64_t ir = RoundPixel(std::fabs(r));
  if (ir == 0) {
    PlotDevice(icx, icy, style.thickness, color);
    return;
  }
  if (style.fill == draw::FillMode::kFilled) {
    int64_t y0 = icy - ir;
    int64_t y1 = icy + ir;
    ClampToFramebuffer(&y0, &y1, fb_->height());
    for (int64_t py = y0; py <= y1; ++py) {
      const int64_t dy = py - icy;
      int64_t span = static_cast<int64_t>(std::floor(std::sqrt(
          static_cast<double>(ir) * ir - static_cast<double>(dy) * dy)));
      int64_t x0 = icx - span;
      int64_t x1 = icx + span;
      ClampToFramebuffer(&x0, &x1, fb_->width());
      for (int64_t px = x0; px <= x1; ++px) {
        if (!transform_.Clipped(px, py)) {
          fb_->Set(static_cast<int>(px), static_cast<int>(py), color);
        }
      }
    }
    return;
  }
  // Midpoint circle. Row y plots (icx ± x, icy ± y) and (icx ± y, icy ± x),
  // so it can reach the framebuffer only where icy ± y or icx ± y lies
  // within a point's half-thickness of it: four runs of rows, each as long
  // as the framebuffer. The loop visits those runs and skips the rows
  // between them, re-entering at the state it would have reached.
  const int64_t half = style.thickness <= 1 ? 0 : style.thickness / 2;
  const int64_t w = fb_->width();
  const int64_t h = fb_->height();
  std::pair<int64_t, int64_t> runs[4] = {{-half - icy, h - 1 + half - icy},
                                         {icy - (h - 1 + half), icy + half},
                                         {-half - icx, w - 1 + half - icx},
                                         {icx - (w - 1 + half), icx + half}};
  std::sort(std::begin(runs), std::end(runs));
  int64_t x = ir;
  int64_t y = 0;
  int64_t err = 1 - ir;
  for (const auto& [first, last] : runs) {
    if (x < y || first > ir) break;  // the loop never reaches row ir
    if (first > y) {
      y = first;
      x = MidpointX(ir, y);
      // The loop's err is x(x - 1) + (y + 1)^2 - r^2 on every row.
      err = static_cast<int64_t>(static_cast<Wide>(x) * (x - 1) +
                                 static_cast<Wide>(y + 1) * (y + 1) -
                                 static_cast<Wide>(ir) * ir);
    }
    for (; x >= y && y <= last;) {
      const int64_t px[8] = {icx + x, icx - x, icx + x, icx - x,
                             icx + y, icx - y, icx + y, icx - y};
      const int64_t py[8] = {icy + y, icy + y, icy - y, icy - y,
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
}

void RasterSurface::DrawPolygon(const std::vector<draw::Point>& points,
                                const draw::Style& style, const draw::Color& color) {
  if (points.size() < 2) return;
  if (style.fill == draw::FillMode::kFilled && points.size() >= 3) {
    // Transform vertices once, then even-odd scanline fill.
    std::vector<draw::Point> device;
    device.reserve(points.size());
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
    int64_t iy0 = RoundPixel(std::ceil(min_y));
    int64_t iy1 = RoundPixel(std::floor(max_y));
    ClampToFramebuffer(&iy0, &iy1, fb_->height());
    for (int64_t py = iy0; py <= iy1; ++py) {
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
        int64_t px0 = RoundPixel(std::ceil(crossings[i]));
        int64_t px1 = RoundPixel(std::floor(crossings[i + 1]));
        ClampToFramebuffer(&px0, &px1, fb_->width());
        for (int64_t px = px0; px <= px1; ++px) {
          if (!transform_.Clipped(px, py)) {
            fb_->Set(static_cast<int>(px), static_cast<int>(py), color);
          }
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

void RasterSurface::DrawText(const std::string& text, double x, double y, double height,
                             const draw::Color& color) {
  transform_.Apply(&x, &y);
  double h = transform_.ApplyLength(height);
  // Integral per-pixel scale keeps glyphs crisp; at least 1.
  const int64_t scale = std::max<int64_t>(1, RoundPixel(h / kGlyphHeight));
  int64_t gx = RoundPixel(x);
  // (x, y) anchors the glyph box's bottom-left; rows render upward from it.
  const int64_t origin_y = RoundPixel(y) - kGlyphHeight * scale + scale;
  for (size_t i = 0; i < text.size() && gx < fb_->width();
       ++i, gx += kGlyphAdvance * scale) {
    const std::array<uint8_t, 7>& glyph = GlyphFor(text[i]);
    for (int row = 0; row < kGlyphHeight; ++row) {
      uint8_t bits = glyph[static_cast<size_t>(row)];
      for (int col = 0; col < kGlyphWidth; ++col) {
        if ((bits & (1 << (4 - col))) == 0) continue;
        // The block of this glyph bit, clamped to the framebuffer.
        int64_t x0 = gx + col * scale;
        int64_t x1 = x0 + scale - 1;
        int64_t y0 = origin_y + row * scale;
        int64_t y1 = y0 + scale - 1;
        ClampToFramebuffer(&x0, &x1, fb_->width());
        ClampToFramebuffer(&y0, &y1, fb_->height());
        for (int64_t py = y0; py <= y1; ++py) {
          for (int64_t px = x0; px <= x1; ++px) {
            if (!transform_.Clipped(px, py)) {
              fb_->Set(static_cast<int>(px), static_cast<int>(py), color);
            }
          }
        }
      }
    }
  }
}

}  // namespace tioga2::render
