#include "dataflow/encapsulate.h"

#include <algorithm>
#include <set>

#include "common/str_util.h"
#include "dataflow/engine.h"

namespace tioga2::dataflow {

Result<std::vector<BoxValue>> InputStub::Fire(const std::vector<BoxValue>& inputs,
                                              const ExecContext& ctx) const {
  (void)inputs;
  if (ctx.encap_inputs == nullptr) {
    return Status::FailedPrecondition(
        "InputStub fired outside an encapsulated box evaluation");
  }
  if (index_ >= ctx.encap_inputs->size()) {
    return Status::Internal("InputStub index " + std::to_string(index_) +
                            " out of range");
  }
  TIOGA2_ASSIGN_OR_RETURN(BoxValue value,
                          CoerceBoxValue((*ctx.encap_inputs)[index_], type_));
  return std::vector<BoxValue>{std::move(value)};
}

Result<std::vector<BoxValue>> HoleBox::Fire(const std::vector<BoxValue>& inputs,
                                            const ExecContext& ctx) const {
  (void)inputs;
  (void)ctx;
  return Status::FailedPrecondition("hole '" + label_ +
                                    "' has not been filled; plug a box with "
                                    "compatible types into it first (§4.1)");
}

std::map<std::string, std::string> HoleBox::Params() const {
  std::vector<std::string> in;
  for (const PortType& type : inputs_) in.push_back(type.ToString());
  std::vector<std::string> out;
  for (const PortType& type : outputs_) out.push_back(type.ToString());
  return {{"label", label_}, {"inputs", StrJoin(in, ",")}, {"outputs", StrJoin(out, ",")}};
}

EncapsulatedBox::EncapsulatedBox(std::string name, Graph inner,
                                 std::vector<std::pair<std::string, size_t>> outputs)
    : name_(std::move(name)), inner_(std::move(inner)), outputs_(std::move(outputs)) {}

std::vector<PortType> EncapsulatedBox::InputTypes() const {
  // Collect InputStubs sorted by index.
  std::vector<std::pair<size_t, PortType>> stubs;
  for (const std::string& id : inner_.BoxIds()) {
    const Box* box = inner_.GetBox(id).value_or(nullptr);
    if (box == nullptr) continue;
    if (const auto* stub = dynamic_cast<const InputStub*>(box)) {
      stubs.emplace_back(stub->index(), stub->OutputTypes()[0]);
    }
  }
  std::sort(stubs.begin(), stubs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<PortType> types;
  types.reserve(stubs.size());
  for (const auto& [index, type] : stubs) types.push_back(type);
  return types;
}

std::vector<PortType> EncapsulatedBox::OutputTypes() const {
  std::vector<PortType> types;
  for (const auto& [box_id, port] : outputs_) {
    Result<const Box*> box = inner_.GetBox(box_id);
    if (!box.ok()) continue;
    std::vector<PortType> outs = (*box)->OutputTypes();
    if (port < outs.size()) types.push_back(outs[port]);
  }
  return types;
}

Result<std::vector<BoxValue>> EncapsulatedBox::Fire(const std::vector<BoxValue>& inputs,
                                                    const ExecContext& ctx) const {
  // Evaluate the inner program with a nested engine under the caller's
  // policy; the outer inputs bind to the InputStubs.
  Engine engine(ctx.catalog, &inputs);
  engine.set_exec_policy(ctx.policy);
  std::vector<BoxValue> results;
  results.reserve(outputs_.size());
  for (const auto& [box_id, port] : outputs_) {
    TIOGA2_ASSIGN_OR_RETURN(BoxValue value, engine.Evaluate(inner_, box_id, port));
    results.push_back(std::move(value));
  }
  for (const std::string& warning : engine.warnings()) {
    ctx.warnings.push_back("[" + name_ + "] " + warning);
  }
  return results;
}

std::map<std::string, std::string> EncapsulatedBox::Params() const {
  // The inner graph is serialized structurally by the program serializer;
  // for cache signatures, fold in a listing of the inner program.
  std::vector<std::string> bindings;
  for (const auto& [box_id, port] : outputs_) {
    bindings.push_back(box_id + ":" + std::to_string(port));
  }
  return {{"name", name_},
          {"outputs", StrJoin(bindings, ",")},
          {"inner_digest", inner_.ToString()}};
}

std::unique_ptr<Box> EncapsulatedBox::Clone() const {
  return std::make_unique<EncapsulatedBox>(name_, inner_.Clone(), outputs_);
}

std::vector<std::string> EncapsulatedBox::HoleIds() const {
  std::vector<std::string> ids;
  for (const std::string& id : inner_.BoxIds()) {
    const Box* box = inner_.GetBox(id).value_or(nullptr);
    if (box != nullptr && dynamic_cast<const HoleBox*>(box) != nullptr) {
      ids.push_back(id);
    }
  }
  return ids;
}

Result<std::unique_ptr<EncapsulatedBox>> EncapsulatedBox::FillHoles(
    std::vector<BoxPtr> fillers) const {
  std::vector<std::string> holes = HoleIds();
  if (fillers.size() != holes.size()) {
    return Status::InvalidArgument("encapsulated box '" + name_ + "' has " +
                                   std::to_string(holes.size()) + " holes, got " +
                                   std::to_string(fillers.size()) + " fillers");
  }
  Graph filled = inner_.Clone();
  for (size_t i = 0; i < holes.size(); ++i) {
    TIOGA2_RETURN_IF_ERROR(filled.ReplaceBox(holes[i], std::move(fillers[i])));
  }
  return std::make_unique<EncapsulatedBox>(name_, std::move(filled), outputs_);
}

Result<std::unique_ptr<EncapsulatedBox>> EncapsulateSubgraph(
    const Graph& graph, const std::vector<std::string>& box_ids,
    const std::vector<std::string>& hole_ids, const std::string& name) {
  std::set<std::string> region(box_ids.begin(), box_ids.end());
  std::set<std::string> holes(hole_ids.begin(), hole_ids.end());
  for (const std::string& id : box_ids) {
    if (!graph.HasBox(id)) return Status::NotFound("no box with id '" + id + "'");
  }
  for (const std::string& id : hole_ids) {
    if (region.count(id) == 0) {
      return Status::InvalidArgument("hole '" + id +
                                     "' is not inside the encapsulated region");
    }
  }

  Graph inner;
  // Clone region boxes (holes become HoleBox placeholders keeping the same
  // port signature).
  for (const std::string& id : box_ids) {
    TIOGA2_ASSIGN_OR_RETURN(const Box* box, graph.GetBox(id));
    BoxPtr clone;
    if (holes.count(id) > 0) {
      clone = std::make_unique<HoleBox>(box->type_name(), box->InputTypes(),
                                        box->OutputTypes());
    } else {
      clone = box->Clone();
    }
    TIOGA2_RETURN_IF_ERROR(inner.AddBox(std::move(clone), id).status());
  }

  // Internal edges copy across; edges entering the region become InputStubs;
  // edges leaving the region become output bindings.
  size_t next_input = 0;
  std::vector<std::pair<std::string, size_t>> outputs;
  std::set<std::pair<std::string, size_t>> seen_outputs;
  for (const Edge& edge : graph.edges()) {
    bool from_inside = region.count(edge.from_box) > 0;
    bool to_inside = region.count(edge.to_box) > 0;
    if (from_inside && to_inside) {
      TIOGA2_RETURN_IF_ERROR(
          inner.Connect(edge.from_box, edge.from_port, edge.to_box, edge.to_port));
    } else if (!from_inside && to_inside) {
      TIOGA2_ASSIGN_OR_RETURN(const Box* from, graph.GetBox(edge.from_box));
      PortType type = from->OutputTypes()[edge.from_port];
      TIOGA2_ASSIGN_OR_RETURN(
          std::string stub_id,
          inner.AddBox(std::make_unique<InputStub>(next_input, type),
                       "in" + std::to_string(next_input)));
      ++next_input;
      TIOGA2_RETURN_IF_ERROR(inner.Connect(stub_id, 0, edge.to_box, edge.to_port));
    } else if (from_inside && !to_inside) {
      auto binding = std::make_pair(edge.from_box, edge.from_port);
      if (seen_outputs.insert(binding).second) outputs.push_back(binding);
    }
  }
  if (outputs.empty()) {
    // A region with no outgoing edges exports its sink boxes' outputs.
    for (const std::string& id : box_ids) {
      TIOGA2_ASSIGN_OR_RETURN(const Box* box, graph.GetBox(id));
      if (graph.OutgoingEdges(id).empty() && !box->OutputTypes().empty()) {
        outputs.emplace_back(id, 0);
      }
    }
  }
  if (outputs.empty()) {
    return Status::InvalidArgument(
        "encapsulated region exports no outputs; include a box with a free output");
  }
  return std::make_unique<EncapsulatedBox>(name, std::move(inner), std::move(outputs));
}

}  // namespace tioga2::dataflow
