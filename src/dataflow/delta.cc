#include "dataflow/delta.h"

#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dataflow/engine.h"
#include "dataflow/stamp.h"

namespace tioga2::dataflow {
namespace {

// Per-box bookkeeping for the propagation walk. States are keyed by box id
// and filled in topological order, so a box's upstream states are always
// complete when it is visited.
struct BoxState {
  // True once s_old/s_new are valid. False for boxes with dangling inputs
  // (or downstream of one) — such boxes can never have fired, so there is
  // nothing to maintain, but their stamps cannot be trusted either.
  bool known = false;
  // The box's stamp against the pre-update program (old table version) and
  // against the post-update program. Equal for boxes outside the affected
  // closure.
  uint64_t s_old = 0;
  uint64_t s_new = 0;
  bool affected = false;
  // Affected boxes only: maintained means old_entry/new_entry/deltas are
  // valid and the cache holds the post-update outputs under s_new. A box
  // that is affected but neither maintained nor clean is broken — its
  // downstream affected consumers must fall back because no (old, new)
  // input pair exists for them.
  bool maintained = false;
  MemoCache::EntryPtr old_entry;   // pre-update outputs (kept alive here —
                                   // the cache slot now holds new_entry)
  MemoCache::EntryPtr new_entry;   // post-update outputs
  std::vector<ValueDelta> deltas;  // parallel to new_entry->outputs
};

}  // namespace

Result<InvalidationResult> PropagateDelta(
    const Graph& graph, const db::Catalog* catalog, const db::TableDelta& delta,
    MemoCache& cache, const db::ExecPolicy& policy,
    const std::vector<BoxValue>* encap_inputs) {
  InvalidationResult result;
  if (catalog == nullptr) {
    return Status::FailedPrecondition(
        "delta propagation requires a catalog (the delta's table must be "
        "readable at its new version)");
  }

  std::vector<std::string> affected_list =
      BoxesDownstreamOfTable(graph, delta.table);
  std::set<std::string> affected(affected_list.begin(), affected_list.end());
  if (affected.empty()) return result;  // no box reads the table

  TIOGA2_ASSIGN_OR_RETURN(std::vector<std::string> order,
                          graph.TopologicalOrder());

  ExecContext ctx;
  ctx.catalog = catalog;
  ctx.encap_inputs = encap_inputs;
  ctx.policy = policy;
  ctx.pending_delta = &delta;

  const ValueDelta kUnchangedInput;  // empty delta shared by clean inputs
  std::map<std::string, BoxState> states;

  for (const std::string& id : order) {
    BoxState& st = states[id];
    st.affected = affected.count(id) > 0;

    Result<const Box*> box_or = graph.GetBox(id);
    if (!box_or.ok()) return box_or.status();
    const Box* box = box_or.value();

    // Evicts this box's entry (if any) and marks it broken, which makes
    // every downstream affected box fall back in turn.
    auto fall_back = [&]() {
      if (cache.Erase(id)) {
        ++result.entries_evicted;
        ++result.delta_fallbacks;
      }
      st.maintained = false;
    };

    // The box's own signature, before and after the update. Only source
    // boxes reading the edited table see a different pre-update signature:
    // their CacheSalt is the table version, which the update bumped.
    uint64_t sig_new = BoxSignature(*box, ctx);
    uint64_t sig_old = sig_new;
    if (st.affected && box->type_name() == "Table") {
      auto params = box->Params();
      auto it = params.find("table");
      if (it != params.end() && it->second == delta.table) {
        sig_old =
            BoxSignatureWithSalt(*box, std::to_string(delta.old_version));
      }
    }

    uint64_t s_old = sig_old;
    uint64_t s_new = sig_new;
    bool known = true;
    std::vector<PortType> input_types = box->InputTypes();
    struct InRef {
      const BoxState* upstream = nullptr;
      std::string from_box;
      size_t from_port = 0;
    };
    std::vector<InRef> in_refs;
    in_refs.reserve(input_types.size());
    for (size_t port = 0; port < input_types.size(); ++port) {
      std::optional<Edge> edge = graph.IncomingEdge(id, port);
      if (!edge.has_value()) {
        known = false;
        break;
      }
      auto up = states.find(edge->from_box);
      if (up == states.end() || !up->second.known) {
        known = false;
        break;
      }
      s_old = FoldInputStamp(s_old, up->second.s_old, edge->from_port, port);
      s_new = FoldInputStamp(s_new, up->second.s_new, edge->from_port, port);
      in_refs.push_back(InRef{&up->second, edge->from_box, edge->from_port});
    }
    st.known = known;
    st.s_old = s_old;
    st.s_new = s_new;

    if (!st.affected) continue;  // entry untouched; validated by consumers
    if (!known) {
      // Dangling input somewhere upstream: the box cannot have a live
      // entry, but evict defensively if one is lingering.
      fall_back();
      continue;
    }

    MemoCache::EntryPtr entry = cache.Get(id);
    if (entry == nullptr) {
      // Nothing cached: nothing to maintain and nothing to evict. Counted
      // neither as applied nor as fallback; downstream boxes with entries
      // will fall back because no (old, new) pair exists here.
      continue;
    }
    if (entry->stamp != s_old) {
      // The cached entry predates some *other* change too — it does not
      // match the pre-update program, so the delta cannot bridge it.
      fall_back();
      continue;
    }

    // Gather (old, new, delta) for every input, coerced to the input port
    // types exactly as Fire's inputs are. Identity coercions (the value's
    // kind already matches the port) are skipped and the cached value is
    // passed by pointer — copying a BoxValue duplicates its attribute
    // metadata, which would dominate the whole walk.
    bool inputs_ok = true;
    bool any_changed = false;
    std::vector<MemoCache::EntryPtr> holds;  // keep clean entries alive
    std::vector<std::optional<BoxValue>> old_store(in_refs.size());
    std::vector<std::optional<BoxValue>> new_store(in_refs.size());
    std::vector<const BoxValue*> old_vals(in_refs.size(), nullptr);
    std::vector<const BoxValue*> new_vals(in_refs.size(), nullptr);
    std::vector<const ValueDelta*> in_deltas(in_refs.size(), &kUnchangedInput);
    holds.reserve(in_refs.size());
    for (size_t port = 0; port < in_refs.size(); ++port) {
      const InRef& in = in_refs[port];
      const BoxState& up = *in.upstream;
      const BoxValue* old_raw = nullptr;
      const BoxValue* new_raw = nullptr;
      if (!up.affected) {
        MemoCache::EntryPtr hold = cache.Get(in.from_box);
        if (hold == nullptr || hold->stamp != up.s_new ||
            in.from_port >= hold->outputs.size()) {
          inputs_ok = false;  // clean input not cached: cannot maintain
          break;
        }
        old_raw = new_raw = &hold->outputs[in.from_port];
        holds.push_back(std::move(hold));
      } else if (up.maintained &&
                 in.from_port < up.old_entry->outputs.size() &&
                 in.from_port < up.new_entry->outputs.size() &&
                 in.from_port < up.deltas.size()) {
        old_raw = &up.old_entry->outputs[in.from_port];
        new_raw = &up.new_entry->outputs[in.from_port];
        in_deltas[port] = &up.deltas[in.from_port];
      } else {
        inputs_ok = false;  // upstream fell back (or was never cached)
        break;
      }
      if (BoxValueType(*old_raw) == input_types[port]) {
        old_vals[port] = old_raw;
      } else {
        Result<BoxValue> oc = CoerceBoxValue(*old_raw, input_types[port]);
        if (!oc.ok()) {
          inputs_ok = false;
          break;
        }
        old_store[port] = std::move(oc).value();
        old_vals[port] = &*old_store[port];
      }
      if (new_raw == old_raw) {
        new_vals[port] = old_vals[port];
      } else if (BoxValueType(*new_raw) == input_types[port]) {
        new_vals[port] = new_raw;
      } else {
        Result<BoxValue> nc = CoerceBoxValue(*new_raw, input_types[port]);
        if (!nc.ok()) {
          inputs_ok = false;
          break;
        }
        new_store[port] = std::move(nc).value();
        new_vals[port] = &*new_store[port];
      }
      if (!in_deltas[port]->unchanged()) any_changed = true;
    }
    if (!inputs_ok) {
      fall_back();
      continue;
    }

    size_t num_outputs = box->OutputTypes().size();

    // Short-circuit: every input is byte-identical, so the outputs are too
    // (Fire is a pure function of the inputs). Re-key the old outputs under
    // the post-update stamp without consulting the box. Source boxes (no
    // inputs) never take this path — their signature change is the delta.
    if (!in_refs.empty() && !any_changed) {
      st.old_entry = entry;
      st.deltas.assign(num_outputs, ValueDelta{});
      st.new_entry = cache.Insert(id, s_new, entry->outputs);
      st.maintained = true;
      ++result.deltas_applied;
      result.box_deltas[id] = st.deltas;
      continue;
    }

    // Offer the box its incremental fast path.
    std::vector<DeltaInput> dinputs(in_refs.size());
    for (size_t i = 0; i < dinputs.size(); ++i) {
      dinputs[i].old_value = old_vals[i];
      dinputs[i].new_value = new_vals[i];
      dinputs[i].delta = in_deltas[i];
    }
    ctx.warnings.clear();
    Result<std::optional<DeltaFire>> fired =
        box->ApplyDelta(dinputs, entry->outputs, ctx);
    for (std::string& warning : ctx.warnings)
      result.warnings.push_back(std::move(warning));
    ctx.warnings.clear();
    if (!fired.ok()) {
      // A failing fast path degrades to a full recompute; it must not fail
      // the whole invalidation.
      result.warnings.push_back("delta: box '" + id + "' (" +
                                box->type_name() + ") ApplyDelta failed: " +
                                fired.status().ToString() +
                                "; falling back to recompute");
      fall_back();
      continue;
    }
    if (!fired.value().has_value()) {
      fall_back();  // box declined
      continue;
    }
    DeltaFire df = std::move(fired).value().value();
    if (df.outputs.size() != num_outputs ||
        df.deltas.size() != df.outputs.size()) {
      result.warnings.push_back("delta: box '" + id + "' (" +
                                box->type_name() +
                                ") returned a malformed DeltaFire; falling "
                                "back to recompute");
      fall_back();
      continue;
    }
    st.old_entry = entry;
    st.deltas = std::move(df.deltas);
    st.new_entry = cache.Insert(id, s_new, std::move(df.outputs));
    st.maintained = true;
    ++result.deltas_applied;
    result.box_deltas[id] = st.deltas;
  }

  return result;
}

}  // namespace tioga2::dataflow
