#include "boxes/box_registry.h"

#include <cstdlib>

#include "boxes/attribute_boxes.h"
#include "boxes/composite_boxes.h"
#include "boxes/query_boxes.h"
#include "boxes/relational_boxes.h"
#include "common/str_util.h"
#include "dataflow/encapsulate.h"
#include "dataflow/t_box.h"

namespace tioga2::boxes {

using dataflow::BoxPtr;
using dataflow::PortType;

namespace {

using Params = std::map<std::string, std::string>;

Result<std::string> Require(const Params& params, const std::string& key) {
  auto it = params.find(key);
  if (it == params.end()) {
    return Status::InvalidArgument("missing box parameter '" + key + "'");
  }
  return it->second;
}

std::string Optional(const Params& params, const std::string& key,
                     const std::string& fallback) {
  auto it = params.find(key);
  return it == params.end() ? fallback : it->second;
}

Result<double> RequireDouble(const Params& params, const std::string& key) {
  TIOGA2_ASSIGN_OR_RETURN(std::string text, Require(params, key));
  char* end = nullptr;
  double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    return Status::ParseError("box parameter '" + key + "' is not a number: " + text);
  }
  return v;
}

Result<uint64_t> RequireUint(const Params& params, const std::string& key) {
  TIOGA2_ASSIGN_OR_RETURN(std::string text, Require(params, key));
  uint64_t v = 0;
  if (!ParseUint64(text, &v)) {
    return Status::ParseError("box parameter '" + key +
                              "' is not an unsigned integer: " + text);
  }
  return v;
}

std::vector<std::string> SplitNonEmpty(const std::string& text, char delimiter) {
  std::vector<std::string> parts;
  for (std::string& part : StrSplit(text, delimiter)) {
    if (!part.empty()) parts.push_back(std::move(part));
  }
  return parts;
}

Result<display::GroupLayout> ParseLayout(const std::string& text) {
  if (text == "horizontal") return display::GroupLayout::kHorizontal;
  if (text == "vertical") return display::GroupLayout::kVertical;
  if (text == "tabular") return display::GroupLayout::kTabular;
  return Status::ParseError("unknown group layout '" + text + "'");
}

}  // namespace

Result<BoxPtr> MakeBox(const std::string& type_name, const Params& params) {
  if (type_name == "Table") {
    TIOGA2_ASSIGN_OR_RETURN(std::string table, Require(params, "table"));
    return BoxPtr(std::make_unique<TableBox>(table));
  }
  if (type_name == "Restrict") {
    TIOGA2_ASSIGN_OR_RETURN(std::string predicate, Require(params, "predicate"));
    return BoxPtr(std::make_unique<RestrictBox>(predicate));
  }
  if (type_name == "Project") {
    TIOGA2_ASSIGN_OR_RETURN(std::string columns, Require(params, "columns"));
    return BoxPtr(std::make_unique<ProjectBox>(SplitNonEmpty(columns, ',')));
  }
  if (type_name == "Sample") {
    TIOGA2_ASSIGN_OR_RETURN(double probability, RequireDouble(params, "probability"));
    TIOGA2_ASSIGN_OR_RETURN(uint64_t seed, RequireUint(params, "seed"));
    return BoxPtr(std::make_unique<SampleBox>(probability, seed));
  }
  if (type_name == "Join") {
    TIOGA2_ASSIGN_OR_RETURN(std::string predicate, Require(params, "predicate"));
    return BoxPtr(std::make_unique<JoinBox>(predicate));
  }
  if (type_name == "Switch") {
    TIOGA2_ASSIGN_OR_RETURN(std::string predicate, Require(params, "predicate"));
    return BoxPtr(std::make_unique<SwitchBox>(predicate));
  }
  if (type_name == "Const") {
    TIOGA2_ASSIGN_OR_RETURN(std::string type_text, Require(params, "type"));
    TIOGA2_ASSIGN_OR_RETURN(std::string value, Require(params, "value"));
    types::DataType type;
    if (!types::DataTypeFromString(type_text, &type)) {
      return Status::ParseError("unknown scalar type '" + type_text + "'");
    }
    return BoxPtr(std::make_unique<ConstBox>(type, value));
  }
  if (type_name == "Viewer") {
    TIOGA2_ASSIGN_OR_RETURN(std::string canvas, Require(params, "canvas"));
    return BoxPtr(std::make_unique<ViewerBox>(canvas));
  }
  if (type_name == "T") {
    TIOGA2_ASSIGN_OR_RETURN(std::string type_text, Require(params, "type"));
    PortType type = PortType::Relation();
    if (!PortType::FromString(type_text, &type)) {
      return Status::ParseError("unknown port type '" + type_text + "'");
    }
    return BoxPtr(std::make_unique<dataflow::TBox>(type));
  }
  if (type_name == "AddAttribute") {
    TIOGA2_ASSIGN_OR_RETURN(std::string name, Require(params, "name"));
    TIOGA2_ASSIGN_OR_RETURN(std::string definition, Require(params, "definition"));
    return BoxPtr(std::make_unique<AddAttributeBox>(name, definition));
  }
  if (type_name == "SetAttribute") {
    TIOGA2_ASSIGN_OR_RETURN(std::string name, Require(params, "name"));
    TIOGA2_ASSIGN_OR_RETURN(std::string definition, Require(params, "definition"));
    return BoxPtr(std::make_unique<SetAttributeBox>(name, definition));
  }
  if (type_name == "RemoveAttribute") {
    TIOGA2_ASSIGN_OR_RETURN(std::string name, Require(params, "name"));
    return BoxPtr(std::make_unique<RemoveAttributeBox>(name));
  }
  if (type_name == "SwapAttributes") {
    TIOGA2_ASSIGN_OR_RETURN(std::string a, Require(params, "a"));
    TIOGA2_ASSIGN_OR_RETURN(std::string b, Require(params, "b"));
    return BoxPtr(std::make_unique<SwapAttributesBox>(a, b));
  }
  if (type_name == "ScaleAttribute") {
    TIOGA2_ASSIGN_OR_RETURN(std::string name, Require(params, "name"));
    TIOGA2_ASSIGN_OR_RETURN(double factor, RequireDouble(params, "factor"));
    return BoxPtr(std::make_unique<ScaleAttributeBox>(name, factor));
  }
  if (type_name == "TranslateAttribute") {
    TIOGA2_ASSIGN_OR_RETURN(std::string name, Require(params, "name"));
    TIOGA2_ASSIGN_OR_RETURN(double delta, RequireDouble(params, "delta"));
    return BoxPtr(std::make_unique<TranslateAttributeBox>(name, delta));
  }
  if (type_name == "CombineDisplays") {
    TIOGA2_ASSIGN_OR_RETURN(std::string name, Require(params, "name"));
    TIOGA2_ASSIGN_OR_RETURN(std::string first, Require(params, "first"));
    TIOGA2_ASSIGN_OR_RETURN(std::string second, Require(params, "second"));
    TIOGA2_ASSIGN_OR_RETURN(double dx, RequireDouble(params, "dx"));
    TIOGA2_ASSIGN_OR_RETURN(double dy, RequireDouble(params, "dy"));
    return BoxPtr(std::make_unique<CombineDisplaysBox>(name, first, second, dx, dy));
  }
  if (type_name == "SetLocation") {
    TIOGA2_ASSIGN_OR_RETURN(uint64_t dim, RequireUint(params, "dim"));
    TIOGA2_ASSIGN_OR_RETURN(std::string attr, Require(params, "attr"));
    return BoxPtr(std::make_unique<SetLocationBox>(dim, attr));
  }
  if (type_name == "AddLocationDimension") {
    TIOGA2_ASSIGN_OR_RETURN(std::string attr, Require(params, "attr"));
    return BoxPtr(std::make_unique<AddLocationDimensionBox>(attr));
  }
  if (type_name == "RemoveLocationDimension") {
    TIOGA2_ASSIGN_OR_RETURN(uint64_t dim, RequireUint(params, "dim"));
    return BoxPtr(std::make_unique<RemoveLocationDimensionBox>(dim));
  }
  if (type_name == "SetDisplay") {
    TIOGA2_ASSIGN_OR_RETURN(std::string attr, Require(params, "attr"));
    return BoxPtr(std::make_unique<SetDisplayBox>(attr));
  }
  if (type_name == "SetName") {
    TIOGA2_ASSIGN_OR_RETURN(std::string name, Require(params, "name"));
    return BoxPtr(std::make_unique<SetNameBox>(name));
  }
  if (type_name == "SetRange") {
    TIOGA2_ASSIGN_OR_RETURN(double min, RequireDouble(params, "min"));
    TIOGA2_ASSIGN_OR_RETURN(double max, RequireDouble(params, "max"));
    return BoxPtr(std::make_unique<SetRangeBox>(min, max));
  }
  if (type_name == "Overlay") {
    std::vector<double> offset;
    for (const std::string& part : SplitNonEmpty(Optional(params, "offset", ""), ',')) {
      offset.push_back(std::strtod(part.c_str(), nullptr));
    }
    return BoxPtr(std::make_unique<OverlayBox>(std::move(offset)));
  }
  if (type_name == "Shuffle") {
    TIOGA2_ASSIGN_OR_RETURN(std::string member, Require(params, "member"));
    return BoxPtr(std::make_unique<ShuffleBox>(member));
  }
  if (type_name == "Stitch") {
    TIOGA2_ASSIGN_OR_RETURN(uint64_t arity, RequireUint(params, "arity"));
    if (arity > StitchBox::kMaxArity) {
      return Status::InvalidArgument(
          "Stitch arity " + std::to_string(arity) + " exceeds the maximum of " +
          std::to_string(StitchBox::kMaxArity));
    }
    TIOGA2_ASSIGN_OR_RETURN(display::GroupLayout layout,
                            ParseLayout(Optional(params, "layout", "horizontal")));
    TIOGA2_ASSIGN_OR_RETURN(uint64_t columns, RequireUint(params, "columns"));
    return BoxPtr(std::make_unique<StitchBox>(arity, layout, columns));
  }
  if (type_name == "Replicate") {
    TIOGA2_ASSIGN_OR_RETURN(std::string rows, Require(params, "rows"));
    return BoxPtr(std::make_unique<ReplicateBox>(
        SplitNonEmpty(rows, ';'), SplitNonEmpty(Optional(params, "columns", ""), ';')));
  }
  if (type_name == "GroupBy") {
    TIOGA2_ASSIGN_OR_RETURN(std::string keys, Require(params, "keys"));
    TIOGA2_ASSIGN_OR_RETURN(std::string aggs_text, Require(params, "aggs"));
    TIOGA2_ASSIGN_OR_RETURN(std::vector<db::AggSpec> aggs, ParseAggSpecs(aggs_text));
    return BoxPtr(std::make_unique<GroupByBox>(SplitNonEmpty(keys, ','),
                                               std::move(aggs)));
  }
  if (type_name == "Distinct") {
    return BoxPtr(std::make_unique<DistinctBox>());
  }
  if (type_name == "UnionAll") {
    return BoxPtr(std::make_unique<UnionAllBox>());
  }
  if (type_name == "Sort") {
    TIOGA2_ASSIGN_OR_RETURN(std::string column, Require(params, "column"));
    std::string ascending = Optional(params, "ascending", "true");
    return BoxPtr(std::make_unique<SortBox>(column, ascending != "false"));
  }
  if (type_name == "Limit") {
    TIOGA2_ASSIGN_OR_RETURN(uint64_t n, RequireUint(params, "n"));
    return BoxPtr(std::make_unique<LimitBox>(n));
  }
  if (type_name == "InputStub") {
    TIOGA2_ASSIGN_OR_RETURN(uint64_t index, RequireUint(params, "index"));
    TIOGA2_ASSIGN_OR_RETURN(std::string type_text, Require(params, "type"));
    PortType type = PortType::Relation();
    if (!PortType::FromString(type_text, &type)) {
      return Status::ParseError("unknown port type '" + type_text + "'");
    }
    return BoxPtr(std::make_unique<dataflow::InputStub>(index, type));
  }
  if (type_name == "Hole") {
    TIOGA2_ASSIGN_OR_RETURN(std::string label, Require(params, "label"));
    auto parse_ports = [](const std::string& text) -> Result<std::vector<PortType>> {
      std::vector<PortType> ports;
      for (const std::string& part : SplitNonEmpty(text, ',')) {
        PortType type = PortType::Relation();
        if (!PortType::FromString(part, &type)) {
          return Status::ParseError("unknown port type '" + part + "'");
        }
        ports.push_back(type);
      }
      return ports;
    };
    TIOGA2_ASSIGN_OR_RETURN(std::vector<PortType> ins,
                            parse_ports(Optional(params, "inputs", "")));
    TIOGA2_ASSIGN_OR_RETURN(std::vector<PortType> outs,
                            parse_ports(Optional(params, "outputs", "")));
    return BoxPtr(std::make_unique<dataflow::HoleBox>(label, std::move(ins),
                                                      std::move(outs)));
  }
  if (type_name == "Lift") {
    TIOGA2_ASSIGN_OR_RETURN(std::string type_text, Require(params, "type"));
    PortType lifted = PortType::CompositeT();
    if (!PortType::FromString(type_text, &lifted)) {
      return Status::ParseError("unknown port type '" + type_text + "'");
    }
    TIOGA2_ASSIGN_OR_RETURN(uint64_t group_member, RequireUint(params, "group_member"));
    TIOGA2_ASSIGN_OR_RETURN(std::string member, Require(params, "member"));
    TIOGA2_ASSIGN_OR_RETURN(std::string inner_type, Require(params, "inner"));
    Params inner_params;
    for (const auto& [key, value] : params) {
      if (StartsWith(key, "inner.")) inner_params[key.substr(6)] = value;
    }
    TIOGA2_ASSIGN_OR_RETURN(BoxPtr inner, MakeBox(inner_type, inner_params));
    return BoxPtr(std::make_unique<LiftBox>(std::move(inner), lifted, group_member,
                                            member));
  }
  return Status::NotFound("unknown box type '" + type_name + "'");
}

std::vector<std::string> AllBoxTypes() {
  return {"AddAttribute",
          "AddLocationDimension",
          "CombineDisplays",
          "Const",
          "Distinct",
          "GroupBy",
          "Join",
          "Lift",
          "Limit",
          "Overlay",
          "Project",
          "RemoveAttribute",
          "RemoveLocationDimension",
          "Replicate",
          "Restrict",
          "Sample",
          "ScaleAttribute",
          "SetAttribute",
          "SetDisplay",
          "SetLocation",
          "SetName",
          "SetRange",
          "Shuffle",
          "Sort",
          "Stitch",
          "SwapAttributes",
          "Switch",
          "T",
          "Table",
          "TranslateAttribute",
          "UnionAll",
          "Viewer"};
}

Result<std::string> BoxDocumentation(const std::string& type_name) {
  static constexpr std::pair<const char*, const char*> kDocs[] = {
      {"AddAttribute", "Add a computed attribute defined by an expression (§5.3)."},
      {"AddLocationDimension",
       "Add a slider dimension bound to a numeric attribute (§5.3)."},
      {"CombineDisplays",
       "Combine two display attributes into a new one at an offset (§5.3)."},
      {"Const", "Produce a scalar constant (a textual runtime parameter, §2)."},
      {"Distinct", "Remove duplicate tuples, keeping first occurrences."},
      {"GroupBy", "Group on key columns and compute count/sum/avg/min/max."},
      {"Join", "Join two relations on a predicate; hash join for equality (§4.2)."},
      {"Lift", "Apply an R->R box to one relation inside a composite or group (§2)."},
      {"Limit", "Keep the first n tuples."},
      {"Overlay", "Superimpose one composite on another at an offset (§6.1)."},
      {"Project", "Keep only the named stored columns (§4.2)."},
      {"RemoveAttribute", "Remove an attribute; x, y and the display are protected."},
      {"RemoveLocationDimension", "Drop a slider dimension (x and y are mandatory)."},
      {"Replicate", "Partition by predicates and stitch the parts into a group (§7.4)."},
      {"Restrict", "Keep tuples satisfying a predicate (§4.2)."},
      {"Sample", "Keep each tuple with a fixed probability, for interactivity (§4.2)."},
      {"ScaleAttribute", "Multiply a numeric attribute by a constant (§5.3)."},
      {"SetAttribute", "Redefine an existing attribute by an expression (§5.3)."},
      {"SetDisplay", "Select which display attribute is rendered (§2)."},
      {"SetLocation", "Bind a location dimension (x, y, or slider) to an attribute."},
      {"SetName", "Rename the relation as shown in elevation maps and groups."},
      {"SetRange", "Set the elevations at which the display is defined (§6.1)."},
      {"Shuffle", "Move a composite member to the top of the drawing order (§6.1)."},
      {"Sort", "Order tuples by a column (stable; nulls first)."},
      {"Stitch", "Combine composites into a group with a layout (§7.3)."},
      {"SwapAttributes", "Interchange two same-typed attributes (§5.3)."},
      {"Switch", "Route tuples to output 0 or 1 by a predicate (§1.2)."},
      {"T", "Pass the input unchanged to both outputs, e.g. for a viewer (§4.1)."},
      {"Table", "Produce the tuples of a named catalog relation (§4.2)."},
      {"TranslateAttribute", "Add a constant to a numeric attribute (§5.3)."},
      {"UnionAll", "Append two relations with identical schemas."},
      {"Viewer", "Translate a displayable into screen output on a named canvas (§2)."},
  };
  for (const auto& [name, doc] : kDocs) {
    if (type_name == name) return std::string(doc);
  }
  return Status::NotFound("no documentation for box type '" + type_name + "'");
}

std::vector<std::string> ApplyBoxCandidates(const std::vector<PortType>& edge_types) {
  // Canonical input signatures per box type. "D" = any displayable
  // (accepted via the R ≤ C ≤ G equivalences when the declared input is C
  // or G); Stitch is variadic.
  std::vector<std::string> candidates;
  auto all_displayable = [&edge_types] {
    for (const PortType& type : edge_types) {
      if (!type.is_displayable()) return false;
    }
    return true;
  };
  auto all_relations = [&edge_types] {
    for (const PortType& type : edge_types) {
      if (type.kind() != PortType::Kind::kRelation) return false;
    }
    return true;
  };
  if (edge_types.size() == 1) {
    if (edge_types[0].kind() == PortType::Kind::kRelation) {
      for (const char* name :
           {"Restrict", "Project", "Sample", "Switch", "AddAttribute", "SetAttribute",
            "RemoveAttribute", "SwapAttributes", "ScaleAttribute", "TranslateAttribute",
            "CombineDisplays", "SetLocation", "AddLocationDimension",
            "RemoveLocationDimension", "SetDisplay", "SetName", "SetRange",
            "Replicate", "GroupBy", "Distinct", "Sort", "Limit"}) {
        candidates.push_back(name);
      }
    }
    if (edge_types[0].is_displayable()) {
      // C-typed boxes accept R or C inputs; G-typed accept anything.
      if (edge_types[0].kind() != PortType::Kind::kGroup) {
        candidates.push_back("Shuffle");
        candidates.push_back("Stitch");
      } else {
        candidates.push_back("Stitch");
      }
      candidates.push_back("Viewer");
      candidates.push_back("Lift");
    }
    candidates.push_back("T");
  } else if (edge_types.size() == 2) {
    if (all_relations()) {
      candidates.push_back("Join");
      candidates.push_back("UnionAll");
    }
    if (all_displayable()) {
      bool overlay_ok = true;
      for (const PortType& type : edge_types) {
        if (type.kind() == PortType::Kind::kGroup) overlay_ok = false;
      }
      if (overlay_ok) candidates.push_back("Overlay");
      candidates.push_back("Stitch");
    }
  } else if (edge_types.size() > 2 && all_displayable()) {
    bool stitch_ok = true;
    for (const PortType& type : edge_types) {
      if (type.kind() == PortType::Kind::kGroup) stitch_ok = false;
    }
    if (stitch_ok) candidates.push_back("Stitch");
  }
  return candidates;
}

}  // namespace tioga2::boxes
