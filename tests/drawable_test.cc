#include <gtest/gtest.h>

#include <cstdio>

#include "draw/color.h"
#include "draw/drawable.h"

namespace tioga2::draw {
namespace {

TEST(ColorTest, HexRoundTrip) {
  for (const Color& color : {kBlack, kWhite, kRed, kGreen, kBlue, Color{1, 2, 3}}) {
    Color parsed;
    ASSERT_TRUE(ColorFromHex(ColorToHex(color), &parsed));
    EXPECT_EQ(parsed, color);
  }
}

TEST(ColorTest, HexFormat) {
  EXPECT_EQ(ColorToHex(Color{255, 0, 16}), "#ff0010");
  EXPECT_EQ(ColorToHex(kBlack), "#000000");
}

TEST(ColorTest, HexMatchesPrintfForEveryChannelValue) {
  // Each channel takes every value while the other two hold distinct ones,
  // so a swapped channel or nibble shows too.
  for (int v = 0; v < 256; ++v) {
    const uint8_t b = static_cast<uint8_t>(v);
    const uint8_t o = static_cast<uint8_t>(255 - v);
    const uint8_t p = static_cast<uint8_t>(v * 7 + 3);
    for (const Color& color : {Color{b, o, p}, Color{p, b, o}, Color{o, p, b}}) {
      char expected[8];
      std::snprintf(expected, sizeof(expected), "#%02x%02x%02x", color.r, color.g,
                    color.b);
      ASSERT_EQ(ColorToHex(color), expected);
    }
  }
}

TEST(ColorTest, ParseRejectsMalformed) {
  Color out;
  EXPECT_FALSE(ColorFromHex("ff0010", &out));
  EXPECT_FALSE(ColorFromHex("#ff001", &out));
  EXPECT_FALSE(ColorFromHex("#ff00100", &out));
  EXPECT_FALSE(ColorFromHex("#gg0010", &out));
  EXPECT_TRUE(ColorFromHex("#AbCdEf", &out));  // mixed case accepted
  EXPECT_EQ(out, (Color{0xAB, 0xCD, 0xEF}));
}

TEST(ColorTest, LerpEndpointsAndMidpoint) {
  EXPECT_EQ(LerpColor(kBlack, kWhite, 0.0), kBlack);
  EXPECT_EQ(LerpColor(kBlack, kWhite, 1.0), kWhite);
  Color mid = LerpColor(kBlack, kWhite, 0.5);
  EXPECT_NEAR(mid.r, 128, 1);
  // t clamps outside [0, 1].
  EXPECT_EQ(LerpColor(kBlack, kWhite, -3.0), kBlack);
  EXPECT_EQ(LerpColor(kBlack, kWhite, 7.0), kWhite);
}

TEST(BBoxTest, ExtendAndUnion) {
  BBox box{0, 0, 1, 1};
  box.Extend(5, -2);
  EXPECT_EQ(box.max_x, 5);
  EXPECT_EQ(box.min_y, -2);
  BBox other{-3, 0, 0, 4};
  box.Union(other);
  EXPECT_EQ(box.min_x, -3);
  EXPECT_EQ(box.max_y, 4);
  EXPECT_EQ(box.Width(), 8);
  EXPECT_EQ(box.Height(), 6);
}

TEST(BBoxTest, ContainsAndIntersects) {
  BBox box{0, 0, 10, 10};
  EXPECT_TRUE(box.Contains(5, 5));
  EXPECT_TRUE(box.Contains(0, 10));  // inclusive edges
  EXPECT_FALSE(box.Contains(-0.1, 5));
  EXPECT_TRUE(box.Intersects(BBox{9, 9, 20, 20}));
  EXPECT_TRUE(box.Intersects(BBox{10, 10, 20, 20}));  // touching counts
  EXPECT_FALSE(box.Intersects(BBox{11, 11, 20, 20}));
}

TEST(DrawableKindTest, NamesRoundTrip) {
  for (DrawableKind kind :
       {DrawableKind::kPoint, DrawableKind::kLine, DrawableKind::kRectangle,
        DrawableKind::kCircle, DrawableKind::kPolygon, DrawableKind::kText,
        DrawableKind::kViewer}) {
    DrawableKind parsed;
    ASSERT_TRUE(DrawableKindFromString(DrawableKindToString(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  DrawableKind unused;
  EXPECT_FALSE(DrawableKindFromString("splat", &unused));
}

TEST(DrawableTest, FactoriesSetGeometry) {
  Drawable circle = MakeCircle(3.0, kRed, FillMode::kFilled);
  EXPECT_EQ(circle.kind, DrawableKind::kCircle);
  EXPECT_EQ(circle.a, 3.0);
  EXPECT_EQ(circle.color, kRed);
  EXPECT_EQ(circle.style.fill, FillMode::kFilled);

  Drawable line = MakeLine(4, -2, kBlue, 3);
  EXPECT_EQ(line.kind, DrawableKind::kLine);
  EXPECT_EQ(line.style.thickness, 3);

  Drawable text = MakeText("LAX", 12.0, kGreen);
  EXPECT_EQ(text.text, "LAX");
  EXPECT_EQ(text.a, 12.0);

  WormholeSpec spec{"temps", 5, 6, 2.0};
  Drawable viewer = MakeViewer(10, 8, spec);
  EXPECT_EQ(viewer.kind, DrawableKind::kViewer);
  EXPECT_EQ(viewer.wormhole.destination_canvas, "temps");
}

TEST(DrawableTest, CircleBoundsCentered) {
  Drawable circle = MakeCircle(2.0);
  circle.offset_x = 10;
  circle.offset_y = -1;
  BBox bounds = circle.Bounds();
  EXPECT_EQ(bounds.min_x, 8);
  EXPECT_EQ(bounds.max_x, 12);
  EXPECT_EQ(bounds.min_y, -3);
  EXPECT_EQ(bounds.max_y, 1);
}

TEST(DrawableTest, PolygonBoundsCoverVertices) {
  Drawable polygon = MakePolygon({{0, 0}, {4, 1}, {-2, 5}});
  BBox bounds = polygon.Bounds();
  EXPECT_EQ(bounds.min_x, -2);
  EXPECT_EQ(bounds.max_x, 4);
  EXPECT_EQ(bounds.max_y, 5);
}

TEST(DrawableTest, TextBoundsScaleWithLength) {
  Drawable shorter = MakeText("ab", 10.0);
  Drawable longer = MakeText("abcdef", 10.0);
  EXPECT_LT(shorter.Bounds().max_x, longer.Bounds().max_x);
  EXPECT_EQ(shorter.Bounds().max_y, 10.0);
}

TEST(DrawableListTest, CombinePreservesOrderAndAppliesOffset) {
  DrawableList first = MakeDrawableList({MakeCircle(1.0)});
  DrawableList second = MakeDrawableList({MakePoint(), MakeText("x", 5)});
  DrawableList combined = CombineDrawableLists(first, second, 10, 20);
  ASSERT_EQ(combined->size(), 3u);
  EXPECT_EQ((*combined)[0].kind, DrawableKind::kCircle);
  EXPECT_EQ((*combined)[0].offset_x, 0);
  EXPECT_EQ((*combined)[1].offset_x, 10);
  EXPECT_EQ((*combined)[1].offset_y, 20);
  EXPECT_EQ((*combined)[2].offset_x, 10);
}

TEST(DrawableListTest, EqualsIsStructural) {
  DrawableList a = MakeDrawableList({MakeCircle(1.0)});
  DrawableList b = MakeDrawableList({MakeCircle(1.0)});
  DrawableList c = MakeDrawableList({MakeCircle(2.0)});
  EXPECT_TRUE(DrawableListEquals(a, b));
  EXPECT_FALSE(DrawableListEquals(a, c));
  EXPECT_TRUE(DrawableListEquals(nullptr, MakeDrawableList({})));
}

TEST(DrawableListTest, BoundsUnionMembers) {
  Drawable left = MakeCircle(1.0);
  left.offset_x = -5;
  Drawable right = MakeCircle(1.0);
  right.offset_x = 5;
  BBox bounds = DrawableListBounds(MakeDrawableList({left, right}));
  EXPECT_EQ(bounds.min_x, -6);
  EXPECT_EQ(bounds.max_x, 6);
}

TEST(DrawableListTest, ToStringMentionsKinds) {
  DrawableList list = MakeDrawableList({MakeCircle(2.0, kRed), MakeText("hi", 4)});
  std::string text = DrawableListToString(list);
  EXPECT_NE(text.find("circle"), std::string::npos);
  EXPECT_NE(text.find("text"), std::string::npos);
  EXPECT_NE(text.find("hi"), std::string::npos);
}

}  // namespace
}  // namespace tioga2::draw
