// Tests for the builtin function library: math, strings, dates, colors, and
// the drawable constructors of §5.1.

#include <gtest/gtest.h>

#include <cmath>

#include "db/relation.h"
#include "expr/builtins.h"
#include "expr/expr.h"

namespace tioga2::expr {
namespace {

using types::DataType;
using types::Value;

class BuiltinsTest : public ::testing::Test {
 protected:
  BuiltinsTest()
      : env_(MakeSchemaTypeEnv({{"n", DataType::kInt}, {"x", DataType::kFloat},
                                {"s", DataType::kString}})),
        row_{Value::Int(-4), Value::Float(6.25), Value::String("Tioga")},
        accessor_(row_) {}

  Result<Value> Eval(const std::string& source) {
    TIOGA2_ASSIGN_OR_RETURN(CompiledExpr compiled, CompiledExpr::Compile(source, env_));
    return compiled.Eval(accessor_);
  }

  TypeEnv env_;
  db::Tuple row_;
  TupleAccessor accessor_;
};

TEST_F(BuiltinsTest, MathBasics) {
  EXPECT_EQ(Eval("abs(n)")->int_value(), 4);
  EXPECT_DOUBLE_EQ(Eval("abs(-2.5)")->float_value(), 2.5);
  EXPECT_EQ(Eval("min(3, 7)")->int_value(), 3);
  EXPECT_EQ(Eval("max(3, 7)")->int_value(), 7);
  EXPECT_DOUBLE_EQ(Eval("min(3, 7.5)")->float_value(), 3.0);
  EXPECT_EQ(Eval("floor(2.7)")->int_value(), 2);
  EXPECT_EQ(Eval("ceil(2.2)")->int_value(), 3);
  EXPECT_EQ(Eval("round(2.5)")->int_value(), 3);
  EXPECT_EQ(Eval("floor(-2.5)")->int_value(), -3);
  EXPECT_DOUBLE_EQ(Eval("sqrt(x)")->float_value(), 2.5);
  EXPECT_DOUBLE_EQ(Eval("pow(2, 10)")->float_value(), 1024.0);
  EXPECT_NEAR(Eval("exp(1)")->float_value(), 2.718281828, 1e-6);
  EXPECT_NEAR(Eval("ln(exp(2))")->float_value(), 2.0, 1e-9);
  EXPECT_NEAR(Eval("log10(1000)")->float_value(), 3.0, 1e-9);
  EXPECT_NEAR(Eval("sin(0)")->float_value(), 0.0, 1e-12);
  EXPECT_NEAR(Eval("cos(0)")->float_value(), 1.0, 1e-12);
  EXPECT_NEAR(Eval("atan2(1, 1)")->float_value(), M_PI / 4, 1e-9);
}

TEST_F(BuiltinsTest, ClampSignTrunc) {
  EXPECT_DOUBLE_EQ(Eval("clamp(5, 0, 3)")->float_value(), 3.0);
  EXPECT_DOUBLE_EQ(Eval("clamp(-1, 0, 3)")->float_value(), 0.0);
  EXPECT_DOUBLE_EQ(Eval("clamp(2, 0, 3)")->float_value(), 2.0);
  EXPECT_DOUBLE_EQ(Eval("clamp(2, 3, 0)")->float_value(), 2.0);  // bounds swap
  EXPECT_EQ(Eval("sign(-7)")->int_value(), -1);
  EXPECT_EQ(Eval("sign(0)")->int_value(), 0);
  EXPECT_EQ(Eval("sign(2.5)")->int_value(), 1);
  EXPECT_EQ(Eval("trunc(2.9)")->int_value(), 2);
  EXPECT_EQ(Eval("trunc(-2.9)")->int_value(), -2);  // toward zero, unlike floor
}

TEST_F(BuiltinsTest, MathDomainErrorsAreNull) {
  EXPECT_TRUE(Eval("sqrt(-1)")->is_null());
  EXPECT_TRUE(Eval("ln(0)")->is_null());
  EXPECT_TRUE(Eval("ln(-3)")->is_null());
  EXPECT_TRUE(Eval("log10(0)")->is_null());
  EXPECT_TRUE(Eval("pow(0, -1)")->is_null());  // inf -> null
}

TEST_F(BuiltinsTest, NumericPromotionRule) {
  // abs/min/max return int only when all arguments are int.
  EXPECT_TRUE(Eval("abs(n)")->is_int());
  EXPECT_TRUE(Eval("abs(x)")->is_float());
  EXPECT_TRUE(Eval("max(1, 2)")->is_int());
  EXPECT_TRUE(Eval("max(1, 2.0)")->is_float());
}

TEST_F(BuiltinsTest, Conversions) {
  EXPECT_EQ(Eval("int(2.9)")->int_value(), 2);
  EXPECT_EQ(Eval("int(\"42\")")->int_value(), 42);
  EXPECT_DOUBLE_EQ(Eval("float(7)")->float_value(), 7.0);
  EXPECT_DOUBLE_EQ(Eval("float(\"2.5\")")->float_value(), 2.5);
  EXPECT_EQ(Eval("str(42)")->string_value(), "42");
  EXPECT_EQ(Eval("str(s)")->string_value(), "Tioga");  // unquoted
  EXPECT_EQ(Eval("str(true)")->string_value(), "true");
  EXPECT_TRUE(Eval("int(\"abc\")").status().IsParseError());
}

TEST_F(BuiltinsTest, Strings) {
  EXPECT_EQ(Eval("len(s)")->int_value(), 5);
  EXPECT_EQ(Eval("len(\"\")")->int_value(), 0);
  EXPECT_EQ(Eval("substr(s, 1, 3)")->string_value(), "iog");
  EXPECT_EQ(Eval("substr(s, 0, 99)")->string_value(), "Tioga");
  EXPECT_EQ(Eval("substr(s, 99, 2)")->string_value(), "");
  EXPECT_EQ(Eval("substr(s, -5, 2)")->string_value(), "Ti");  // clamped
  EXPECT_EQ(Eval("upper(s)")->string_value(), "TIOGA");
  EXPECT_EQ(Eval("lower(s)")->string_value(), "tioga");
  EXPECT_TRUE(Eval("contains(s, \"iog\")")->bool_value());
  EXPECT_FALSE(Eval("contains(s, \"xyz\")")->bool_value());
  EXPECT_TRUE(Eval("startswith(s, \"Ti\")")->bool_value());
  EXPECT_FALSE(Eval("startswith(s, \"io\")")->bool_value());
}

TEST_F(BuiltinsTest, LikeGlobMatching) {
  EXPECT_TRUE(Eval("like(s, \"Tioga\")")->bool_value());
  EXPECT_TRUE(Eval("like(s, \"Ti*\")")->bool_value());
  EXPECT_TRUE(Eval("like(s, \"*oga\")")->bool_value());
  EXPECT_TRUE(Eval("like(s, \"T?oga\")")->bool_value());
  EXPECT_TRUE(Eval("like(s, \"*\")")->bool_value());
  EXPECT_TRUE(Eval("like(\"\", \"*\")")->bool_value());
  EXPECT_FALSE(Eval("like(s, \"T?ga\")")->bool_value());
  EXPECT_FALSE(Eval("like(s, \"tioga\")")->bool_value());  // case sensitive
  EXPECT_FALSE(Eval("like(s, \"Tiog\")")->bool_value());   // must match fully
  EXPECT_TRUE(Eval("like(s, \"*i*g*\")")->bool_value());
}

TEST_F(BuiltinsTest, Dates) {
  EXPECT_EQ(Eval("year(date(\"1995-07-14\"))")->int_value(), 1995);
  EXPECT_EQ(Eval("month(date(\"1995-07-14\"))")->int_value(), 7);
  EXPECT_EQ(Eval("day(date(\"1995-07-14\"))")->int_value(), 14);
  EXPECT_EQ(Eval("days(date(\"1970-01-03\"))")->int_value(), 2);
  EXPECT_TRUE(Eval("date_from_days(2) = date(\"1970-01-03\")")->bool_value());
  EXPECT_TRUE(Eval("date(\"bogus\")").status().IsParseError());
}

TEST_F(BuiltinsTest, DatesOutsideTheRangeAreErrorsNotValues) {
  // Impossible days and five-digit years do not parse.
  EXPECT_TRUE(Eval("date(\"2023-02-29\")").status().IsParseError());
  EXPECT_TRUE(Eval("date(\"2024-04-31\")").status().IsParseError());
  EXPECT_TRUE(Eval("date(\"99999999999-01-01\")").status().IsParseError());
  EXPECT_EQ(Eval("date(\"2024-02-29\") + 1")->date_value().ToString(), "2024-03-01");
  // date_from_days and date ± int refuse day counts past 0000-01-01 and
  // 9999-12-31, including ones whose sum would overflow int64.
  EXPECT_EQ(Eval("date_from_days(2932896)")->date_value().ToString(), "9999-12-31");
  EXPECT_EQ(Eval("date_from_days(-719528)")->date_value().ToString(), "0000-01-01");
  EXPECT_TRUE(Eval("date_from_days(2932897)").status().IsOutOfRange());
  EXPECT_TRUE(Eval("date_from_days(9223372036854775802)").status().IsOutOfRange());
  EXPECT_TRUE(Eval("date_from_days(n - 9223372036854775807)").status().IsOutOfRange());
  EXPECT_TRUE(Eval("date(\"9999-12-31\") + 1").status().IsOutOfRange());
  EXPECT_TRUE(Eval("date(\"0000-01-01\") - 1").status().IsOutOfRange());
  EXPECT_TRUE(Eval("date(\"1970-01-01\") + 9223372036854775807").status().IsOutOfRange());
  EXPECT_TRUE(
      Eval("date(\"1970-01-01\") - (-9223372036854775807 - 1)").status().IsOutOfRange());
  EXPECT_EQ(Eval("date(\"9999-12-31\") - date(\"0000-01-01\")")->int_value(),
            2932896 + 719528);
}

TEST_F(BuiltinsTest, Colors) {
  EXPECT_EQ(Eval("rgb(255, 0, 16)")->string_value(), "#ff0010");
  EXPECT_EQ(Eval("rgb(300, -5, 0)")->string_value(), "#ff0000");  // clamped
  EXPECT_EQ(Eval("lerp_color(\"#000000\", \"#ffffff\", 0)")->string_value(),
            "#000000");
  EXPECT_EQ(Eval("lerp_color(\"#000000\", \"#ffffff\", 1)")->string_value(),
            "#ffffff");
  EXPECT_TRUE(
      Eval("lerp_color(\"bad\", \"#ffffff\", 0.5)").status().IsInvalidArgument());
}

TEST_F(BuiltinsTest, DrawableConstructors) {
  auto circle = Eval("circle(2.5, \"#c81e1e\", true)");
  ASSERT_TRUE(circle.ok()) << circle.status().ToString();
  ASSERT_TRUE(circle->is_display());
  const draw::Drawable& c = (*circle->display_value())[0];
  EXPECT_EQ(c.kind, draw::DrawableKind::kCircle);
  EXPECT_DOUBLE_EQ(c.a, 2.5);
  EXPECT_EQ(c.style.fill, draw::FillMode::kFilled);
  EXPECT_EQ(c.color, (draw::Color{0xC8, 0x1E, 0x1E}));

  auto rect = Eval("rect(4, 3)");
  EXPECT_EQ((*rect->display_value())[0].kind, draw::DrawableKind::kRectangle);

  auto line = Eval("line(1, -1, \"#0000ff\")");
  EXPECT_EQ((*line->display_value())[0].kind, draw::DrawableKind::kLine);

  auto text = Eval("text(s, 12)");
  EXPECT_EQ((*text->display_value())[0].text, "Tioga");

  auto point = Eval("point()");
  EXPECT_EQ((*point->display_value())[0].kind, draw::DrawableKind::kPoint);
}

TEST_F(BuiltinsTest, PolygonVariadic) {
  auto triangle = Eval("polygon(0, 0, 1, 0, 0, 1)");
  ASSERT_TRUE(triangle.ok()) << triangle.status().ToString();
  EXPECT_EQ((*triangle->display_value())[0].points.size(), 3u);
  EXPECT_TRUE(Eval("polygon(0, 0, 1, 0)").status().IsInvalidArgument());
  EXPECT_TRUE(Eval("polygon(0, 0, 1, 0, 1)").status().IsInvalidArgument());  // odd
}

TEST_F(BuiltinsTest, ViewerConstructor) {
  auto viewer = Eval("viewer(10, 8, \"temps\", 3, 4, 2.0)");
  ASSERT_TRUE(viewer.ok()) << viewer.status().ToString();
  const draw::Drawable& v = (*viewer->display_value())[0];
  EXPECT_EQ(v.kind, draw::DrawableKind::kViewer);
  EXPECT_EQ(v.wormhole.destination_canvas, "temps");
  EXPECT_DOUBLE_EQ(v.wormhole.initial_x, 3);
  EXPECT_DOUBLE_EQ(v.wormhole.elevation, 2.0);
}

TEST_F(BuiltinsTest, OffsetShiftsDisplay) {
  auto shifted = Eval("offset(circle(1), 5, -2)");
  ASSERT_TRUE(shifted.ok());
  EXPECT_DOUBLE_EQ((*shifted->display_value())[0].offset_x, 5);
  EXPECT_DOUBLE_EQ((*shifted->display_value())[0].offset_y, -2);
}

TEST_F(BuiltinsTest, EmptyDisplay) {
  auto empty = Eval("empty_display()");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->display_value()->empty());
}

TEST_F(BuiltinsTest, OverloadResolutionByArity) {
  EXPECT_TRUE(Eval("circle(1)").ok());
  EXPECT_TRUE(Eval("circle(1, \"#000000\")").ok());
  EXPECT_TRUE(Eval("circle(1, \"#000000\", false)").ok());
  EXPECT_TRUE(Eval("circle()").status().IsTypeError());
  EXPECT_TRUE(Eval("circle(1, 2)").status().IsTypeError());
}

TEST(BuiltinRegistryTest, LookupAndNames) {
  EXPECT_FALSE(LookupBuiltins("circle").empty());
  EXPECT_EQ(LookupBuiltins("circle").size(), 3u);
  EXPECT_TRUE(LookupBuiltins("no_such_fn").empty());
  std::vector<std::string> names = AllBuiltinNames();
  EXPECT_GT(names.size(), 30u);
  EXPECT_NE(std::find(names.begin(), names.end(), "viewer"), names.end());
}

TEST(BuiltinRegistryTest, ParamMatching) {
  EXPECT_TRUE(ParamMatches(ParamType::kNumeric, DataType::kInt));
  EXPECT_TRUE(ParamMatches(ParamType::kNumeric, DataType::kFloat));
  EXPECT_FALSE(ParamMatches(ParamType::kNumeric, DataType::kString));
  EXPECT_TRUE(ParamMatches(ParamType::kFloat, DataType::kInt));  // widening
  EXPECT_FALSE(ParamMatches(ParamType::kInt, DataType::kFloat));
  EXPECT_TRUE(ParamMatches(ParamType::kAny, DataType::kDisplay));
}

}  // namespace
}  // namespace tioga2::expr
