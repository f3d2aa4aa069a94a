#include "expr/builtins.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>

#include "common/str_util.h"
#include "draw/drawable.h"

namespace tioga2::expr {

using types::DataType;
using types::Value;

bool ParamMatches(ParamType param, DataType type) {
  switch (param) {
    case ParamType::kBool: return type == DataType::kBool;
    case ParamType::kInt: return type == DataType::kInt;
    case ParamType::kFloat: return type == DataType::kFloat || type == DataType::kInt;
    case ParamType::kString: return type == DataType::kString;
    case ParamType::kDate: return type == DataType::kDate;
    case ParamType::kDisplay: return type == DataType::kDisplay;
    case ParamType::kNumeric: return type == DataType::kInt || type == DataType::kFloat;
    case ParamType::kAny: return true;
  }
  return false;
}

namespace {

using Args = std::vector<Value>;

double D(const Value& v) { return v.AsDouble(); }

Result<draw::Color> ParseColorArg(const Value& v) {
  draw::Color color;
  if (!draw::ColorFromHex(v.string_value(), &color)) {
    return Status::InvalidArgument("bad color '" + v.string_value() +
                                   "' (want \"#rrggbb\")");
  }
  return color;
}

Value FloatOrNull(double v) {
  if (std::isnan(v) || std::isinf(v)) return Value::Null();
  return Value::Float(v);
}

/// Registry storage. Built once on first use; never destroyed (static
/// storage must be trivially destructible per style, so we leak one map).
class Registry {
 public:
  static Registry& Get() {
    static Registry& instance = *new Registry();
    return instance;
  }

  void Add(BuiltinOverload overload) {
    auto stored = std::make_unique<BuiltinOverload>(std::move(overload));
    by_name_[stored->name].push_back(stored.get());
    owned_.push_back(std::move(stored));
  }

  const std::vector<const BuiltinOverload*>& Lookup(const std::string& name) const {
    static const std::vector<const BuiltinOverload*>& empty =
        *new std::vector<const BuiltinOverload*>();
    auto it = by_name_.find(name);
    return it == by_name_.end() ? empty : it->second;
  }

  std::vector<std::string> Names() const {
    std::vector<std::string> names;
    names.reserve(by_name_.size());
    for (const auto& [name, overloads] : by_name_) names.push_back(name);
    return names;
  }

 private:
  Registry() { RegisterAll(); }
  void RegisterAll();

  std::map<std::string, std::vector<const BuiltinOverload*>> by_name_;
  std::vector<std::unique_ptr<BuiltinOverload>> owned_;
};

void Registry::RegisterAll() {
  auto add = [this](std::string name, std::vector<ParamType> params, DataType result,
                    std::function<Result<Value>(const Args&)> eval) {
    BuiltinOverload o;
    o.name = std::move(name);
    o.params = std::move(params);
    o.result_type = result;
    o.eval = std::move(eval);
    Add(std::move(o));
  };
  auto add_promote = [this](std::string name, std::vector<ParamType> params,
                            std::function<Result<Value>(const Args&)> eval) {
    BuiltinOverload o;
    o.name = std::move(name);
    o.params = std::move(params);
    o.result_rule = ResultRule::kNumericPromote;
    o.eval = std::move(eval);
    Add(std::move(o));
  };

  // ---- Math ----
  add_promote("abs", {ParamType::kNumeric}, [](const Args& a) -> Result<Value> {
    if (a[0].is_int()) return Value::Int(std::llabs(a[0].int_value()));
    return Value::Float(std::fabs(a[0].float_value()));
  });
  add_promote("min", {ParamType::kNumeric, ParamType::kNumeric},
              [](const Args& a) -> Result<Value> {
                if (a[0].is_int() && a[1].is_int()) {
                  return Value::Int(std::min(a[0].int_value(), a[1].int_value()));
                }
                return Value::Float(std::min(D(a[0]), D(a[1])));
              });
  add_promote("max", {ParamType::kNumeric, ParamType::kNumeric},
              [](const Args& a) -> Result<Value> {
                if (a[0].is_int() && a[1].is_int()) {
                  return Value::Int(std::max(a[0].int_value(), a[1].int_value()));
                }
                return Value::Float(std::max(D(a[0]), D(a[1])));
              });
  add("floor", {ParamType::kNumeric}, DataType::kInt, [](const Args& a) -> Result<Value> {
    return Value::Int(static_cast<int64_t>(std::floor(D(a[0]))));
  });
  add("ceil", {ParamType::kNumeric}, DataType::kInt, [](const Args& a) -> Result<Value> {
    return Value::Int(static_cast<int64_t>(std::ceil(D(a[0]))));
  });
  add("round", {ParamType::kNumeric}, DataType::kInt, [](const Args& a) -> Result<Value> {
    return Value::Int(static_cast<int64_t>(std::llround(D(a[0]))));
  });
  add("sqrt", {ParamType::kNumeric}, DataType::kFloat, [](const Args& a) -> Result<Value> {
    double x = D(a[0]);
    if (x < 0) return Value::Null();
    return Value::Float(std::sqrt(x));
  });
  add("pow", {ParamType::kNumeric, ParamType::kNumeric}, DataType::kFloat,
      [](const Args& a) -> Result<Value> { return FloatOrNull(std::pow(D(a[0]), D(a[1]))); });
  add("exp", {ParamType::kNumeric}, DataType::kFloat,
      [](const Args& a) -> Result<Value> { return FloatOrNull(std::exp(D(a[0]))); });
  add("ln", {ParamType::kNumeric}, DataType::kFloat, [](const Args& a) -> Result<Value> {
    double x = D(a[0]);
    if (x <= 0) return Value::Null();
    return Value::Float(std::log(x));
  });
  add("log10", {ParamType::kNumeric}, DataType::kFloat, [](const Args& a) -> Result<Value> {
    double x = D(a[0]);
    if (x <= 0) return Value::Null();
    return Value::Float(std::log10(x));
  });
  add("sin", {ParamType::kNumeric}, DataType::kFloat,
      [](const Args& a) -> Result<Value> { return Value::Float(std::sin(D(a[0]))); });
  add("cos", {ParamType::kNumeric}, DataType::kFloat,
      [](const Args& a) -> Result<Value> { return Value::Float(std::cos(D(a[0]))); });
  add("atan2", {ParamType::kNumeric, ParamType::kNumeric}, DataType::kFloat,
      [](const Args& a) -> Result<Value> {
        return Value::Float(std::atan2(D(a[0]), D(a[1])));
      });
  add("clamp", {ParamType::kNumeric, ParamType::kNumeric, ParamType::kNumeric},
      DataType::kFloat, [](const Args& a) -> Result<Value> {
        double lo = D(a[1]);
        double hi = D(a[2]);
        if (lo > hi) std::swap(lo, hi);
        return Value::Float(std::clamp(D(a[0]), lo, hi));
      });
  add("sign", {ParamType::kNumeric}, DataType::kInt, [](const Args& a) -> Result<Value> {
    double v = D(a[0]);
    return Value::Int(v > 0 ? 1 : (v < 0 ? -1 : 0));
  });
  add("trunc", {ParamType::kNumeric}, DataType::kInt,
      [](const Args& a) -> Result<Value> {
        return Value::Int(static_cast<int64_t>(std::trunc(D(a[0]))));
      });

  // ---- Conversions ----
  add("int", {ParamType::kNumeric}, DataType::kInt, [](const Args& a) -> Result<Value> {
    if (a[0].is_int()) return a[0];
    return Value::Int(static_cast<int64_t>(a[0].float_value()));
  });
  add("int", {ParamType::kString}, DataType::kInt, [](const Args& a) -> Result<Value> {
    TIOGA2_ASSIGN_OR_RETURN(Value v, Value::Parse(DataType::kInt, a[0].string_value()));
    return v;
  });
  add("float", {ParamType::kNumeric}, DataType::kFloat,
      [](const Args& a) -> Result<Value> { return Value::Float(D(a[0])); });
  add("float", {ParamType::kString}, DataType::kFloat, [](const Args& a) -> Result<Value> {
    TIOGA2_ASSIGN_OR_RETURN(Value v, Value::Parse(DataType::kFloat, a[0].string_value()));
    return v;
  });
  add("str", {ParamType::kAny}, DataType::kString, [](const Args& a) -> Result<Value> {
    if (a[0].is_string()) return a[0];  // unquoted
    return Value::String(a[0].ToString());
  });

  // ---- Strings ----
  add("len", {ParamType::kString}, DataType::kInt, [](const Args& a) -> Result<Value> {
    return Value::Int(static_cast<int64_t>(a[0].string_value().size()));
  });
  add("substr", {ParamType::kString, ParamType::kInt, ParamType::kInt}, DataType::kString,
      [](const Args& a) -> Result<Value> {
        const std::string& s = a[0].string_value();
        int64_t start = std::clamp<int64_t>(a[1].int_value(), 0,
                                            static_cast<int64_t>(s.size()));
        int64_t count = std::max<int64_t>(a[2].int_value(), 0);
        return Value::String(s.substr(static_cast<size_t>(start),
                                      static_cast<size_t>(count)));
      });
  add("upper", {ParamType::kString}, DataType::kString, [](const Args& a) -> Result<Value> {
    std::string s = a[0].string_value();
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return std::toupper(c); });
    return Value::String(std::move(s));
  });
  add("lower", {ParamType::kString}, DataType::kString, [](const Args& a) -> Result<Value> {
    return Value::String(AsciiToLower(a[0].string_value()));
  });
  add("contains", {ParamType::kString, ParamType::kString}, DataType::kBool,
      [](const Args& a) -> Result<Value> {
        return Value::Bool(a[0].string_value().find(a[1].string_value()) !=
                           std::string::npos);
      });
  add("startswith", {ParamType::kString, ParamType::kString}, DataType::kBool,
      [](const Args& a) -> Result<Value> {
        return Value::Bool(StartsWith(a[0].string_value(), a[1].string_value()));
      });
  add("like", {ParamType::kString, ParamType::kString}, DataType::kBool,
      [](const Args& a) -> Result<Value> {
        // Glob match: '*' any run, '?' any single character.
        const std::string& text = a[0].string_value();
        const std::string& pattern = a[1].string_value();
        std::function<bool(size_t, size_t)> match = [&](size_t ti, size_t pi) {
          while (pi < pattern.size()) {
            if (pattern[pi] == '*') {
              for (size_t skip = ti; skip <= text.size(); ++skip) {
                if (match(skip, pi + 1)) return true;
              }
              return false;
            }
            if (ti >= text.size()) return false;
            if (pattern[pi] != '?' && pattern[pi] != text[ti]) return false;
            ++ti;
            ++pi;
          }
          return ti == text.size();
        };
        return Value::Bool(match(0, 0));
      });

  // ---- Dates ----
  add("date", {ParamType::kString}, DataType::kDate, [](const Args& a) -> Result<Value> {
    types::Date date;
    if (!types::Date::Parse(a[0].string_value(), &date)) {
      return Status::ParseError("not a date: '" + a[0].string_value() + "'");
    }
    return Value::DateVal(date);
  });
  add("year", {ParamType::kDate}, DataType::kInt, [](const Args& a) -> Result<Value> {
    return Value::Int(a[0].date_value().Year());
  });
  add("month", {ParamType::kDate}, DataType::kInt, [](const Args& a) -> Result<Value> {
    return Value::Int(a[0].date_value().Month());
  });
  add("day", {ParamType::kDate}, DataType::kInt, [](const Args& a) -> Result<Value> {
    return Value::Int(a[0].date_value().Day());
  });
  add("days", {ParamType::kDate}, DataType::kInt, [](const Args& a) -> Result<Value> {
    return Value::Int(a[0].date_value().DaysValue());
  });
  add("date_from_days", {ParamType::kInt}, DataType::kDate,
      [](const Args& a) -> Result<Value> {
        TIOGA2_ASSIGN_OR_RETURN(types::Date date, types::Date::FromDays(a[0].int_value()));
        return Value::DateVal(date);
      });

  // ---- Null handling (null-opaque) ----
  {
    BuiltinOverload o;
    o.name = "isnull";
    o.params = {ParamType::kAny};
    o.result_type = DataType::kBool;
    o.null_opaque = true;
    o.eval = [](const Args& a) -> Result<Value> { return Value::Bool(a[0].is_null()); };
    Add(std::move(o));
  }

  // ---- Colors ----
  add("rgb", {ParamType::kInt, ParamType::kInt, ParamType::kInt}, DataType::kString,
      [](const Args& a) -> Result<Value> {
        auto channel = [](int64_t v) {
          return static_cast<uint8_t>(std::clamp<int64_t>(v, 0, 255));
        };
        return Value::String(draw::ColorToHex(draw::Color{
            channel(a[0].int_value()), channel(a[1].int_value()),
            channel(a[2].int_value())}));
      });
  add("lerp_color", {ParamType::kString, ParamType::kString, ParamType::kNumeric},
      DataType::kString, [](const Args& a) -> Result<Value> {
        TIOGA2_ASSIGN_OR_RETURN(draw::Color c1, ParseColorArg(a[0]));
        TIOGA2_ASSIGN_OR_RETURN(draw::Color c2, ParseColorArg(a[1]));
        return Value::String(draw::ColorToHex(draw::LerpColor(c1, c2, D(a[2]))));
      });

  // ---- Drawable constructors (§5.1) ----
  auto wrap = [](draw::Drawable d) {
    return Value::Display(draw::MakeDrawableList({std::move(d)}));
  };
  add("point", {}, DataType::kDisplay,
      [wrap](const Args&) -> Result<Value> { return wrap(draw::MakePoint()); });
  add("point", {ParamType::kString}, DataType::kDisplay,
      [wrap](const Args& a) -> Result<Value> {
        TIOGA2_ASSIGN_OR_RETURN(draw::Color color, ParseColorArg(a[0]));
        return wrap(draw::MakePoint(color));
      });
  add("circle", {ParamType::kNumeric}, DataType::kDisplay,
      [wrap](const Args& a) -> Result<Value> { return wrap(draw::MakeCircle(D(a[0]))); });
  add("circle", {ParamType::kNumeric, ParamType::kString}, DataType::kDisplay,
      [wrap](const Args& a) -> Result<Value> {
        TIOGA2_ASSIGN_OR_RETURN(draw::Color color, ParseColorArg(a[1]));
        return wrap(draw::MakeCircle(D(a[0]), color));
      });
  add("circle", {ParamType::kNumeric, ParamType::kString, ParamType::kBool},
      DataType::kDisplay, [wrap](const Args& a) -> Result<Value> {
        TIOGA2_ASSIGN_OR_RETURN(draw::Color color, ParseColorArg(a[1]));
        return wrap(draw::MakeCircle(D(a[0]), color,
                                     a[2].bool_value() ? draw::FillMode::kFilled
                                                       : draw::FillMode::kOutline));
      });
  add("rect", {ParamType::kNumeric, ParamType::kNumeric}, DataType::kDisplay,
      [wrap](const Args& a) -> Result<Value> {
        return wrap(draw::MakeRectangle(D(a[0]), D(a[1])));
      });
  add("rect", {ParamType::kNumeric, ParamType::kNumeric, ParamType::kString},
      DataType::kDisplay, [wrap](const Args& a) -> Result<Value> {
        TIOGA2_ASSIGN_OR_RETURN(draw::Color color, ParseColorArg(a[2]));
        return wrap(draw::MakeRectangle(D(a[0]), D(a[1]), color));
      });
  add("rect",
      {ParamType::kNumeric, ParamType::kNumeric, ParamType::kString, ParamType::kBool},
      DataType::kDisplay, [wrap](const Args& a) -> Result<Value> {
        TIOGA2_ASSIGN_OR_RETURN(draw::Color color, ParseColorArg(a[2]));
        return wrap(draw::MakeRectangle(D(a[0]), D(a[1]), color,
                                        a[3].bool_value() ? draw::FillMode::kFilled
                                                          : draw::FillMode::kOutline));
      });
  add("line", {ParamType::kNumeric, ParamType::kNumeric}, DataType::kDisplay,
      [wrap](const Args& a) -> Result<Value> {
        return wrap(draw::MakeLine(D(a[0]), D(a[1])));
      });
  add("line", {ParamType::kNumeric, ParamType::kNumeric, ParamType::kString},
      DataType::kDisplay, [wrap](const Args& a) -> Result<Value> {
        TIOGA2_ASSIGN_OR_RETURN(draw::Color color, ParseColorArg(a[2]));
        return wrap(draw::MakeLine(D(a[0]), D(a[1]), color));
      });
  add("text", {ParamType::kString, ParamType::kNumeric}, DataType::kDisplay,
      [wrap](const Args& a) -> Result<Value> {
        return wrap(draw::MakeText(a[0].string_value(), D(a[1])));
      });
  add("text", {ParamType::kString, ParamType::kNumeric, ParamType::kString},
      DataType::kDisplay, [wrap](const Args& a) -> Result<Value> {
        TIOGA2_ASSIGN_OR_RETURN(draw::Color color, ParseColorArg(a[2]));
        return wrap(draw::MakeText(a[0].string_value(), D(a[1]), color));
      });
  add("viewer",
      {ParamType::kNumeric, ParamType::kNumeric, ParamType::kString, ParamType::kNumeric,
       ParamType::kNumeric, ParamType::kNumeric},
      DataType::kDisplay, [wrap](const Args& a) -> Result<Value> {
        draw::WormholeSpec spec;
        spec.destination_canvas = a[2].string_value();
        spec.initial_x = D(a[3]);
        spec.initial_y = D(a[4]);
        spec.elevation = D(a[5]);
        return wrap(draw::MakeViewer(D(a[0]), D(a[1]), std::move(spec)));
      });
  {
    BuiltinOverload o;
    o.name = "polygon";
    o.params = {ParamType::kNumeric, ParamType::kNumeric};
    o.variadic_tail = true;
    o.result_type = DataType::kDisplay;
    o.eval = [wrap](const Args& a) -> Result<Value> {
      if (a.size() % 2 != 0 || a.size() < 6) {
        return Status::InvalidArgument(
            "polygon() wants an even number (>= 6) of coordinates");
      }
      std::vector<draw::Point> points;
      points.reserve(a.size() / 2);
      for (size_t i = 0; i < a.size(); i += 2) {
        points.push_back(draw::Point{D(a[i]), D(a[i + 1])});
      }
      return wrap(draw::MakePolygon(std::move(points)));
    };
    Add(std::move(o));
  }
  add("offset", {ParamType::kDisplay, ParamType::kNumeric, ParamType::kNumeric},
      DataType::kDisplay, [](const Args& a) -> Result<Value> {
        return Value::Display(draw::CombineDrawableLists(
            draw::MakeDrawableList({}), a[0].display_value(), D(a[1]), D(a[2])));
      });
  add("empty_display", {}, DataType::kDisplay, [](const Args&) -> Result<Value> {
    return Value::Display(draw::MakeDrawableList({}));
  });
}

}  // namespace

const std::vector<const BuiltinOverload*>& LookupBuiltins(const std::string& name) {
  return Registry::Get().Lookup(name);
}

std::vector<std::string> AllBuiltinNames() { return Registry::Get().Names(); }

}  // namespace tioga2::expr
