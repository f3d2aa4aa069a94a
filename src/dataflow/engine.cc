#include "dataflow/engine.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <set>
#include <unordered_map>

#include "dataflow/stamp.h"

namespace tioga2::dataflow {

/// One evaluation's demanded closure: every box once, in DFS post-order, so
/// each node's inputs precede it. Box ids live once, as keys of `index`.
struct Engine::Plan {
  static constexpr size_t kVisiting = std::numeric_limits<size_t>::max();

  struct Input {
    size_t node;       // upstream plan node
    size_t from_port;  // its output feeding this input
  };
  struct Node {
    const std::string* id = nullptr;  // key in `index`
    const Box* box = nullptr;
    std::vector<PortType> input_types;
    std::vector<Input> inputs;  // port order
    MemoCache::EntryPtr entry;  // set by Resolve
  };

  /// Plans `id` after its unplanned inputs, depth first in port order — the
  /// order the errors below are found in. Returns the node's index.
  Result<size_t> Add(const Graph& graph, std::string id);

  std::unordered_map<std::string, size_t> index;  // kVisiting while on the DFS stack
  std::vector<Node> nodes;
};

Result<size_t> Engine::Plan::Add(const Graph& graph, std::string id) {
  auto [it, inserted] = index.try_emplace(std::move(id), kVisiting);
  const std::string& key = it->first;  // element references survive rehashing
  if (!inserted) {
    if (it->second == kVisiting) {
      return Status::Internal("cycle through box '" + key + "' during evaluation");
    }
    return it->second;
  }
  size_t* slot = &it->second;
  TIOGA2_ASSIGN_OR_RETURN(const Box* box, graph.GetBox(key));
  Node node;
  node.id = &key;
  node.box = box;
  node.input_types = box->InputTypes();
  node.inputs.reserve(node.input_types.size());
  for (size_t port = 0; port < node.input_types.size(); ++port) {
    std::optional<Edge> edge = graph.IncomingEdge(key, port);
    if (!edge.has_value()) {
      return Status::FailedPrecondition("box '" + key + "' (" + box->type_name() +
                                        ") input " + std::to_string(port) +
                                        " is not connected");
    }
    TIOGA2_ASSIGN_OR_RETURN(size_t from, Add(graph, std::move(edge->from_box)));
    node.inputs.push_back(Input{from, edge->from_port});
  }
  *slot = nodes.size();
  nodes.push_back(std::move(node));
  return *slot;
}

Status Engine::Resolve(Plan* plan, size_t index, const db::ExecPolicy& policy) {
  Plan::Node& node = plan->nodes[index];
  ExecContext ctx;
  ctx.catalog = catalog_;
  ctx.encap_inputs = encap_inputs_;
  ctx.policy = policy;

  uint64_t stamp = BoxSignature(*node.box, ctx);
  for (size_t port = 0; port < node.inputs.size(); ++port) {
    const Plan::Input& in = node.inputs[port];
    const Plan::Node& up = plan->nodes[in.node];
    if (in.from_port >= up.entry->outputs.size()) {
      return Status::Internal("box '" + *up.id + "' produced no output " +
                              std::to_string(in.from_port));
    }
    stamp = FoldInputStamp(stamp, up.entry->stamp, in.from_port, port);
  }

  // Counts the node and reports it to the observer as it resolves, so both
  // see the plan's post-order.
  auto resolved = [this, &node](BoxOutcome outcome, double fire_micros) {
    if (outcome == BoxOutcome::kFired) {
      ++stats_.boxes_fired;
    } else {
      ++stats_.cache_hits;
      if (outcome == BoxOutcome::kAdopted) ++stats_.shared_hits;
    }
    if (observer_ != nullptr) observer_->OnBoxResolved(*node.box, outcome, fire_micros);
    return Status::OK();
  };

  if ((node.entry = cache_->Lookup(*node.id, stamp)) != nullptr) {
    return resolved(BoxOutcome::kHit, 0);
  }
  // Local miss: another session may have evaluated an identical subgraph —
  // stamps are content-addressed, so a shared-tier entry under this stamp is
  // byte-identical to what firing would produce. Adopt it into the local
  // cache (sharing the allocation) instead of firing.
  if (shared_cache_ != nullptr) {
    if (MemoCache::EntryPtr shared = shared_cache_->Lookup(stamp)) {
      node.entry = cache_->InsertEntry(*node.id, std::move(shared));
      return resolved(BoxOutcome::kAdopted, 0);
    }
  }

  // Cache miss: coerce the inputs and fire.
  std::vector<BoxValue> inputs;
  inputs.reserve(node.inputs.size());
  for (size_t port = 0; port < node.inputs.size(); ++port) {
    const Plan::Input& in = node.inputs[port];
    TIOGA2_ASSIGN_OR_RETURN(
        BoxValue coerced,
        CoerceBoxValue(plan->nodes[in.node].entry->outputs[in.from_port],
                       node.input_types[port]));
    inputs.push_back(std::move(coerced));
  }
  const auto start = std::chrono::steady_clock::now();
  Result<std::vector<BoxValue>> outputs = node.box->Fire(inputs, ctx);
  const double fire_micros = std::chrono::duration<double, std::micro>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
  for (std::string& warning : ctx.warnings) warnings_.push_back(std::move(warning));
  TIOGA2_RETURN_IF_ERROR(outputs.status());
  const size_t declared = node.box->OutputTypes().size();
  if (outputs->size() != declared) {
    return Status::Internal("box '" + *node.id + "' (" + node.box->type_name() +
                            ") fired " + std::to_string(outputs->size()) +
                            " outputs, declared " + std::to_string(declared));
  }
  node.entry = cache_->Insert(*node.id, stamp, std::move(outputs).value());
  if (shared_cache_ != nullptr) shared_cache_->Insert(node.entry);
  return resolved(BoxOutcome::kFired, fire_micros);
}

Status Engine::Run(Plan* plan) {
  const db::ExecPolicy policy = policy_.value_or(db::DefaultExecPolicy());
  for (size_t i = 0; i < plan->nodes.size(); ++i) {
    TIOGA2_RETURN_IF_ERROR(Resolve(plan, i, policy));
  }
  return Status::OK();
}

Result<BoxValue> Engine::Evaluate(const Graph& graph, const std::string& box_id,
                                  size_t output_port) {
  ++stats_.evaluations;
  warnings_.clear();
  Plan plan;
  TIOGA2_RETURN_IF_ERROR(plan.Add(graph, box_id).status());
  TIOGA2_RETURN_IF_ERROR(Run(&plan));
  const MemoCache::EntryPtr& entry = plan.nodes.back().entry;  // the target
  if (output_port >= entry->outputs.size()) {
    return Status::OutOfRange("box '" + box_id + "' has no output " +
                              std::to_string(output_port));
  }
  return entry->outputs[output_port];
}

Status Engine::EvaluateAll(const Graph& graph) {
  ++stats_.evaluations;
  warnings_.clear();
  TIOGA2_ASSIGN_OR_RETURN(std::vector<std::string> order, graph.TopologicalOrder());
  // Skip boxes that transitively depend on a dangling input — reported via
  // stats().boxes_skipped and a warning per box, not silently dropped.
  std::vector<std::string> blocked = graph.BoxesWithDanglingInputs();
  auto is_blocked = [&blocked](const std::string& id) {
    return std::find(blocked.begin(), blocked.end(), id) != blocked.end();
  };
  Plan plan;
  for (std::string& id : order) {
    const char* skipped = nullptr;
    if (is_blocked(id)) {
      skipped = "dangling input, cannot fire";
    } else {
      TIOGA2_ASSIGN_OR_RETURN(const Box* box, graph.GetBox(id));
      const size_t num_inputs = box->InputTypes().size();
      for (size_t port = 0; port < num_inputs && skipped == nullptr; ++port) {
        std::optional<Edge> edge = graph.IncomingEdge(id, port);
        if (edge.has_value() && is_blocked(edge->from_box)) {
          skipped = "upstream of it has a dangling input";
          blocked.push_back(id);
        }
      }
    }
    if (skipped != nullptr) {
      ++stats_.boxes_skipped;
      warnings_.push_back("EvaluateAll: skipped box '" + id + "' (" + skipped + ")");
      continue;
    }
    TIOGA2_RETURN_IF_ERROR(plan.Add(graph, std::move(id)).status());
  }
  return Run(&plan);
}

std::vector<std::string> BoxesDownstreamOfTable(const Graph& graph,
                                                const std::string& table) {
  // Source boxes reading `table`, then the transitive downstream closure.
  std::set<std::string> affected;
  std::vector<std::string> frontier;
  for (const std::string& id : graph.BoxIds()) {
    Result<const Box*> box = graph.GetBox(id);
    if (!box.ok()) continue;
    if (box.value()->type_name() != "Table") continue;
    auto params = box.value()->Params();
    auto it = params.find("table");
    if (it != params.end() && it->second == table) {
      affected.insert(id);
      frontier.push_back(id);
    }
  }
  while (!frontier.empty()) {
    std::string id = std::move(frontier.back());
    frontier.pop_back();
    for (const Edge& edge : graph.OutgoingEdges(id)) {
      if (affected.insert(edge.to_box).second) frontier.push_back(edge.to_box);
    }
  }
  return std::vector<std::string>(affected.begin(), affected.end());
}

Result<InvalidationResult> Engine::Invalidate(const Graph& graph,
                                              const Invalidation& inv) {
  InvalidationResult result;
  switch (inv.scope()) {
    case Invalidation::Scope::kAll:
      result.entries_evicted = cache_->size();
      cache_->Clear();
      return result;
    case Invalidation::Scope::kDownstreamOf:
      // Only dependent entries go; the rest of the memo cache stays warm.
      for (const std::string& id : BoxesDownstreamOfTable(graph, inv.table())) {
        if (cache_->Erase(id)) ++result.entries_evicted;
      }
      return result;
    case Invalidation::Scope::kDelta: {
      TIOGA2_ASSIGN_OR_RETURN(
          result, PropagateDelta(graph, catalog_, inv.delta(), *cache_,
                                 policy_.value_or(db::DefaultExecPolicy()),
                                 encap_inputs_));
      stats_.deltas_applied += result.deltas_applied;
      stats_.delta_fallbacks += result.delta_fallbacks;
      for (const std::string& warning : result.warnings)
        warnings_.push_back(warning);
      return result;
    }
  }
  return Status::Internal("unknown invalidation scope");
}

}  // namespace tioga2::dataflow
