#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "render/font.h"
#include "render/framebuffer.h"
#include "render/raster_surface.h"
#include "render/svg_surface.h"

namespace tioga2::render {
namespace {

using draw::Color;
using draw::FillMode;
using draw::kBlack;
using draw::kRed;
using draw::kWhite;
using draw::Style;

TEST(FramebufferTest, ClearAndPixelAccess) {
  Framebuffer fb(4, 3, kWhite);
  EXPECT_EQ(fb.width(), 4);
  EXPECT_EQ(fb.height(), 3);
  EXPECT_EQ(fb.CountPixels(kWhite), 12u);
  fb.Set(1, 2, kRed);
  EXPECT_EQ(fb.Get(1, 2), kRed);
  EXPECT_EQ(fb.CountPixels(kRed), 1u);
  EXPECT_EQ(fb.CountPixelsNotEqual(kWhite), 1u);
  // Out-of-bounds accesses are safe.
  fb.Set(-1, 0, kRed);
  fb.Set(4, 0, kRed);
  EXPECT_EQ(fb.Get(-1, 0), kBlack);
  EXPECT_EQ(fb.CountPixels(kRed), 1u);
  fb.Clear(kBlack);
  EXPECT_EQ(fb.CountPixels(kBlack), 12u);
}

TEST(FramebufferTest, ClearWritesEveryPixel) {
  const Color teal{12, 200, 77};
  const int sizes[][2] = {{1, 1}, {3, 5}, {641, 2}};
  for (const auto& size : sizes) {
    Framebuffer fb(size[0], size[1], kWhite);
    fb.Set(size[0] - 1, size[1] - 1, kRed);
    fb.Clear(teal);
    for (int y = 0; y < size[1]; ++y) {
      for (int x = 0; x < size[0]; ++x) {
        ASSERT_EQ(fb.Get(x, y), teal) << size[0] << "x" << size[1] << " at " << x
                                      << "," << y;
      }
    }
  }
}

TEST(FramebufferTest, PpmEncoding) {
  Framebuffer fb(2, 1, kWhite);
  fb.Set(0, 0, Color{1, 2, 3});
  std::string ppm = fb.ToPpm();
  EXPECT_EQ(ppm.substr(0, 11), "P6\n2 1\n255\n");
  EXPECT_EQ(static_cast<unsigned char>(ppm[11]), 1);
  EXPECT_EQ(static_cast<unsigned char>(ppm[12]), 2);
  EXPECT_EQ(static_cast<unsigned char>(ppm[13]), 3);
  EXPECT_EQ(ppm.size(), 11u + 6u);
}

TEST(FramebufferTest, WritePpmFile) {
  Framebuffer fb(2, 2);
  std::string path = ::testing::TempDir() + "/tioga2_fb_test.ppm";
  ASSERT_TRUE(fb.WritePpm(path).ok());
  std::remove(path.c_str());
  EXPECT_TRUE(fb.WritePpm("/nonexistent_dir_zz/x.ppm").IsIOError());
}

TEST(FontTest, GlyphCoverage) {
  // Every printable ASCII character has a real glyph.
  for (char c = ' '; c <= '~'; ++c) {
    EXPECT_TRUE(HasGlyph(c)) << "missing glyph for '" << c << "'";
  }
  EXPECT_FALSE(HasGlyph('\t'));
  EXPECT_FALSE(HasGlyph(static_cast<char>(200)));
}

TEST(FontTest, SpaceIsEmptyAndLettersAreNot) {
  const auto& space = GlyphFor(' ');
  for (uint8_t row : space) EXPECT_EQ(row, 0);
  const auto& letter = GlyphFor('A');
  int on = 0;
  for (uint8_t row : letter) {
    for (int bit = 0; bit < 5; ++bit) on += (row >> bit) & 1;
  }
  EXPECT_GT(on, 8);
}

TEST(FontTest, FallbackBoxForUnknown) {
  const auto& fallback = GlyphFor('\t');
  EXPECT_EQ(fallback[0], 0x1F);
  EXPECT_EQ(fallback[6], 0x1F);
}

class RasterTest : public ::testing::Test {
 protected:
  RasterTest() : fb_(100, 100, kWhite), surface_(&fb_) {}
  Framebuffer fb_;
  RasterSurface surface_;
};

TEST_F(RasterTest, PointAndThickness) {
  surface_.DrawPoint(50, 50, 1, kBlack);
  EXPECT_EQ(fb_.CountPixels(kBlack), 1u);
  surface_.DrawPoint(20, 20, 3, kRed);
  EXPECT_EQ(fb_.CountPixels(kRed), 9u);  // 3x3 block
}

TEST_F(RasterTest, HorizontalAndDiagonalLines) {
  Style style;
  surface_.DrawLine(10, 50, 20, 50, style, kBlack);
  EXPECT_EQ(fb_.CountPixels(kBlack), 11u);  // inclusive endpoints
  fb_.Clear(kWhite);
  surface_.DrawLine(0, 0, 9, 9, style, kBlack);
  EXPECT_EQ(fb_.CountPixels(kBlack), 10u);  // perfect diagonal
  EXPECT_EQ(fb_.Get(5, 5), kBlack);
}

TEST_F(RasterTest, DashedLineHasGaps) {
  Style solid;
  Style dashed;
  dashed.line = draw::LineStyle::kDashed;
  surface_.DrawLine(0, 10, 99, 10, solid, kBlack);
  size_t solid_count = fb_.CountPixels(kBlack);
  fb_.Clear(kWhite);
  surface_.DrawLine(0, 10, 99, 10, dashed, kBlack);
  size_t dashed_count = fb_.CountPixels(kBlack);
  EXPECT_LT(dashed_count, solid_count);
  EXPECT_GT(dashed_count, solid_count / 3);
}

TEST_F(RasterTest, RectOutlineVsFilled) {
  Style outline;
  surface_.DrawRect(10, 10, 20, 10, outline, kBlack);
  size_t outline_pixels = fb_.CountPixels(kBlack);
  fb_.Clear(kWhite);
  Style filled;
  filled.fill = FillMode::kFilled;
  surface_.DrawRect(10, 10, 20, 10, filled, kBlack);
  size_t filled_pixels = fb_.CountPixels(kBlack);
  EXPECT_EQ(filled_pixels, 21u * 11u);
  EXPECT_LT(outline_pixels, filled_pixels);
  // Interior untouched by outline.
  fb_.Clear(kWhite);
  surface_.DrawRect(10, 10, 20, 10, outline, kBlack);
  EXPECT_EQ(fb_.Get(20, 15), kWhite);
  EXPECT_EQ(fb_.Get(10, 10), kBlack);
}

TEST_F(RasterTest, CircleFilledAreaApproximatesPiR2) {
  Style filled;
  filled.fill = FillMode::kFilled;
  surface_.DrawCircle(50, 50, 20, filled, kBlack);
  double area = static_cast<double>(fb_.CountPixels(kBlack));
  EXPECT_NEAR(area, M_PI * 20 * 20, 90);
  EXPECT_EQ(fb_.Get(50, 50), kBlack);
  EXPECT_EQ(fb_.Get(50, 29), kWhite);  // just outside
}

TEST_F(RasterTest, CircleOutlineLeavesInteriorEmpty) {
  Style outline;
  surface_.DrawCircle(50, 50, 20, outline, kBlack);
  EXPECT_EQ(fb_.Get(50, 50), kWhite);
  EXPECT_EQ(fb_.Get(70, 50), kBlack);
  EXPECT_EQ(fb_.Get(30, 50), kBlack);
  EXPECT_EQ(fb_.Get(50, 70), kBlack);
}

TEST_F(RasterTest, ZeroRadiusCircleIsPoint) {
  Style style;
  surface_.DrawCircle(10, 10, 0.2, style, kBlack);
  EXPECT_GE(fb_.CountPixels(kBlack), 1u);
}

TEST_F(RasterTest, FilledTriangleCoversHalfSquare) {
  Style filled;
  filled.fill = FillMode::kFilled;
  surface_.DrawPolygon({{10, 10}, {50, 10}, {10, 50}}, filled, kBlack);
  double area = static_cast<double>(fb_.CountPixels(kBlack));
  EXPECT_NEAR(area, 40 * 40 / 2.0, 60);
}

TEST_F(RasterTest, PolygonOutlineClosesShape) {
  Style outline;
  surface_.DrawPolygon({{10, 10}, {30, 10}, {30, 30}}, outline, kBlack);
  // The closing edge from (30,30) back to (10,10) must be drawn.
  EXPECT_EQ(fb_.Get(20, 20), kBlack);
}

TEST_F(RasterTest, TextRendersInkProportionalToLength) {
  surface_.DrawText("III", 10, 50, 7, kBlack);
  size_t narrow = fb_.CountPixels(kBlack);
  fb_.Clear(kWhite);
  surface_.DrawText("WWWWWW", 10, 50, 7, kBlack);
  size_t wide = fb_.CountPixels(kBlack);
  EXPECT_GT(narrow, 0u);
  EXPECT_GT(wide, narrow);
}

TEST_F(RasterTest, TextScalesWithHeight) {
  surface_.DrawText("A", 10, 90, 7, kBlack);
  size_t small = fb_.CountPixels(kBlack);
  fb_.Clear(kWhite);
  surface_.DrawText("A", 10, 90, 21, kBlack);
  size_t big = fb_.CountPixels(kBlack);
  EXPECT_NEAR(static_cast<double>(big) / small, 9.0, 1.0);  // 3x scale = 9x ink
}

TEST_F(RasterTest, ViewportTransformsAndClips) {
  // A nested viewport mapping a 100x100 source into a 20x20 target at (40, 40).
  surface_.PushViewport(DeviceRect{40, 40, 20, 20}, 100, 100);
  Style filled;
  filled.fill = FillMode::kFilled;
  // Fills the whole source space; must land inside the 20x20 target only.
  surface_.DrawRect(0, 0, 99, 99, filled, kBlack);
  surface_.PopViewport();
  size_t black = fb_.CountPixels(kBlack);
  EXPECT_NEAR(static_cast<double>(black), 21 * 21, 60);
  EXPECT_EQ(fb_.Get(50, 50), kBlack);
  EXPECT_EQ(fb_.Get(30, 30), kWhite);
  EXPECT_EQ(fb_.Get(70, 70), kWhite);
}

TEST_F(RasterTest, NestedViewportsCompose) {
  surface_.PushViewport(DeviceRect{0, 0, 50, 50}, 100, 100);  // scale 0.5
  surface_.PushViewport(DeviceRect{0, 0, 50, 50}, 100, 100);  // total 0.25
  surface_.DrawPoint(100, 100, 1, kBlack);                    // -> (25, 25)
  surface_.PopViewport();
  surface_.PopViewport();
  EXPECT_EQ(fb_.Get(25, 25), kBlack);
}

TEST(SvgTest, DocumentStructure) {
  SvgSurface svg(320, 240);
  svg.Clear(kWhite);
  Style style;
  svg.DrawCircle(10, 10, 5, style, kRed);
  svg.DrawText("hi <&>", 5, 20, 12, kBlack);
  svg.DrawLine(0, 0, 10, 10, style, kBlack);
  svg.DrawRect(1, 2, 3, 4, style, kBlack);
  svg.DrawPolygon({{0, 0}, {1, 0}, {0, 1}}, style, kBlack);
  svg.DrawPoint(7, 7, 2, kBlack);
  std::string doc = svg.ToSvg();
  EXPECT_NE(doc.find("<svg"), std::string::npos);
  EXPECT_NE(doc.find("width=\"320\""), std::string::npos);
  EXPECT_NE(doc.find("<circle"), std::string::npos);
  EXPECT_NE(doc.find("hi &lt;&amp;&gt;"), std::string::npos);
  EXPECT_NE(doc.find("<polygon"), std::string::npos);
  EXPECT_NE(doc.find("</svg>"), std::string::npos);
  EXPECT_NE(doc.find("#c81e1e"), std::string::npos);  // kRed
}

TEST(SvgTest, FilledVsOutlineStyle) {
  SvgSurface svg(100, 100);
  Style filled;
  filled.fill = FillMode::kFilled;
  svg.DrawRect(0, 0, 10, 10, filled, kRed);
  Style outline;
  outline.thickness = 2;
  svg.DrawRect(0, 0, 10, 10, outline, kBlack);
  std::string doc = svg.ToSvg();
  EXPECT_NE(doc.find("fill=\"#c81e1e\" stroke=\"none\""), std::string::npos);
  EXPECT_NE(doc.find("fill=\"none\" stroke=\"#000000\" stroke-width=\"2\""),
            std::string::npos);
}

TEST(SvgTest, DashedStrokeAttribute) {
  SvgSurface svg(100, 100);
  Style dashed;
  dashed.line = draw::LineStyle::kDashed;
  svg.DrawLine(0, 0, 10, 10, dashed, kBlack);
  EXPECT_NE(svg.ToSvg().find("stroke-dasharray"), std::string::npos);
}

TEST(SvgTest, ViewportNestingBalanced) {
  SvgSurface svg(100, 100);
  svg.PushViewport(DeviceRect{10, 10, 50, 50}, 100, 100);
  svg.DrawPoint(1, 1, 1, kBlack);
  std::string open = svg.ToSvg();  // viewport still open -> auto-closed
  EXPECT_NE(open.find("<g clip-path"), std::string::npos);
  EXPECT_NE(open.find("</g>"), std::string::npos);
  svg.PopViewport();
  std::string closed = svg.ToSvg();
  EXPECT_NE(closed.find("</g>"), std::string::npos);
}

TEST(SvgTest, NegativeRectNormalized) {
  SvgSurface svg(100, 100);
  Style style;
  svg.DrawRect(10, 10, -5, -6, style, kBlack);
  std::string doc = svg.ToSvg();
  EXPECT_NE(doc.find("x=\"5\""), std::string::npos);
  EXPECT_NE(doc.find("width=\"5\""), std::string::npos);
  EXPECT_NE(doc.find("height=\"6\""), std::string::npos);
}

}  // namespace
}  // namespace tioga2::render
