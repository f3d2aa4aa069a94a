#ifndef TIOGA2_BOXES_COMPOSITE_BOXES_H_
#define TIOGA2_BOXES_COMPOSITE_BOXES_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dataflow/box.h"
#include "display/displayable.h"

namespace tioga2::boxes {

using dataflow::Box;
using dataflow::BoxPtr;
using dataflow::BoxValue;
using dataflow::ExecContext;
using dataflow::PortType;

/// Overlay (§6.1): superimposes the second composite on the first ("the
/// visualizations are simply superimposed"), at an optional n-dimensional
/// offset. A dimension mismatch raises the §6.1 warning through the
/// ExecContext but proceeds, treating lower-dimensional relations as
/// invariant in the extra dimensions.
class OverlayBox : public Box {
 public:
  explicit OverlayBox(std::vector<double> offset) : offset_(std::move(offset)) {}

  std::string type_name() const override { return "Overlay"; }
  std::vector<PortType> InputTypes() const override {
    return {PortType::CompositeT(), PortType::CompositeT()};
  }
  std::vector<PortType> OutputTypes() const override {
    return {PortType::CompositeT()};
  }
  Result<std::vector<BoxValue>> Fire(const std::vector<BoxValue>& inputs,
                                     const ExecContext& ctx) const override;
  std::map<std::string, std::string> Params() const override;
  /// Metadata-only with respect to base rows: re-fires (sharing bases) and
  /// remaps the second input's member indices past the first's members.
  Result<std::optional<dataflow::DeltaFire>> ApplyDelta(
      const std::vector<dataflow::DeltaInput>& inputs,
      const std::vector<BoxValue>& old_outputs,
      const ExecContext& ctx) const override;
  std::unique_ptr<Box> Clone() const override {
    return std::make_unique<OverlayBox>(offset_);
  }

 private:
  std::vector<double> offset_;
};

/// Shuffle (§6.1): "moves a relation to the top of the drawing order".
class ShuffleBox : public Box {
 public:
  explicit ShuffleBox(std::string member) : member_(std::move(member)) {}

  std::string type_name() const override { return "Shuffle"; }
  std::vector<PortType> InputTypes() const override {
    return {PortType::CompositeT()};
  }
  std::vector<PortType> OutputTypes() const override {
    return {PortType::CompositeT()};
  }
  Result<std::vector<BoxValue>> Fire(const std::vector<BoxValue>& inputs,
                                     const ExecContext& ctx) const override;
  std::map<std::string, std::string> Params() const override {
    return {{"member", member_}};
  }
  /// Re-fires (sharing bases) and permutes member indices the way the
  /// shuffle moved the members.
  Result<std::optional<dataflow::DeltaFire>> ApplyDelta(
      const std::vector<dataflow::DeltaInput>& inputs,
      const std::vector<BoxValue>& old_outputs,
      const ExecContext& ctx) const override;
  std::unique_ptr<Box> Clone() const override {
    return std::make_unique<ShuffleBox>(member_);
  }

 private:
  std::string member_;
};

/// Stitch (§7.3): combines n composites into a group with the chosen layout.
class StitchBox : public Box {
 public:
  /// The widest group a Stitch builds. InputTypes() holds one port per unit
  /// of arity, so an unchecked arity read from a saved program is an
  /// allocation of any size the file asks for; a group of more members than
  /// this has no readable layout on one canvas anyway. MakeBox rejects a
  /// larger arity, and the constructor clamps to it.
  static constexpr size_t kMaxArity = 4096;

  /// `arity` is clamped to [1, kMaxArity], `tabular_columns` to at least 1.
  StitchBox(size_t arity, display::GroupLayout layout, size_t tabular_columns);

  std::string type_name() const override { return "Stitch"; }
  std::vector<PortType> InputTypes() const override {
    return std::vector<PortType>(arity_, PortType::CompositeT());
  }
  std::vector<PortType> OutputTypes() const override { return {PortType::GroupT()}; }
  Result<std::vector<BoxValue>> Fire(const std::vector<BoxValue>& inputs,
                                     const ExecContext& ctx) const override;
  std::map<std::string, std::string> Params() const override;
  /// Re-fires (sharing bases); input p's deltas become group-member-p
  /// deltas in the stitched output.
  Result<std::optional<dataflow::DeltaFire>> ApplyDelta(
      const std::vector<dataflow::DeltaInput>& inputs,
      const std::vector<BoxValue>& old_outputs,
      const ExecContext& ctx) const override;
  std::unique_ptr<Box> Clone() const override {
    return std::make_unique<StitchBox>(arity_, layout_, tabular_columns_);
  }

 private:
  size_t arity_;
  display::GroupLayout layout_;
  size_t tabular_columns_;
};

/// Replicate (§7.4): partitions a relation by predicate lists and stitches
/// the partitions into a group. `row_predicates` × `column_predicates`
/// produce a tabular layout (e.g. salary bands × departments); an empty
/// column list produces a single row.
class ReplicateBox : public Box {
 public:
  ReplicateBox(std::vector<std::string> row_predicates,
               std::vector<std::string> column_predicates);

  std::string type_name() const override { return "Replicate"; }
  std::vector<PortType> InputTypes() const override { return {PortType::Relation()}; }
  std::vector<PortType> OutputTypes() const override { return {PortType::GroupT()}; }
  Result<std::vector<BoxValue>> Fire(const std::vector<BoxValue>& inputs,
                                     const ExecContext& ctx) const override;
  std::map<std::string, std::string> Params() const override;
  std::unique_ptr<Box> Clone() const override {
    return std::make_unique<ReplicateBox>(row_predicates_, column_predicates_);
  }

 private:
  std::vector<std::string> row_predicates_;
  std::vector<std::string> column_predicates_;
};

/// Lifts an R → R box to composites or groups, implementing the §2
/// operator overloading: "given a group G input, Tioga-2 asks the user for
/// the composite within the group, and the relation within that composite,
/// to which the operation applies ... Tioga-2 reassembles the composite and
/// the group in the obvious way". The user's selections become the
/// `group_member` index and `member` relation name.
class LiftBox : public Box {
 public:
  /// `inner` must be a single-R-input, single-R-output box.
  LiftBox(BoxPtr inner, PortType lifted_type, size_t group_member, std::string member);

  std::string type_name() const override { return "Lift"; }
  std::vector<PortType> InputTypes() const override { return {lifted_type_}; }
  std::vector<PortType> OutputTypes() const override { return {lifted_type_}; }
  Result<std::vector<BoxValue>> Fire(const std::vector<BoxValue>& inputs,
                                     const ExecContext& ctx) const override;
  std::map<std::string, std::string> Params() const override;
  std::unique_ptr<Box> Clone() const override;

  const Box& inner() const { return *inner_; }

 private:
  BoxPtr inner_;
  PortType lifted_type_;
  size_t group_member_;
  std::string member_;
};

}  // namespace tioga2::boxes

#endif  // TIOGA2_BOXES_COMPOSITE_BOXES_H_
