#include "workload.h"

#include <optional>

#include "expr/batch.h"

namespace ibench {

namespace {

/// True for the seeded ~1/64 of interactions whose output is checked.
bool Sampled(uint64_t seed, uint64_t k) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + k + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return ((z ^ (z >> 31)) & 63) == 0;
}

double PerUnit(double value, double units) { return units > 0 ? value / units : 0; }

}  // namespace

Phase RunLoop(Script& script, double seconds, uint64_t seed, uint64_t* next,
              Tracer* tracer, int captures) {
  Phase phase;
  int captured = 0;
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  while (NowNs() < end) {
    const uint64_t k = (*next)++;
    const int cls = script.ClassOf(k);
    std::optional<InteractionTrace> trace;
    if (tracer != nullptr) trace.emplace(k, cls);
    InteractionTrace* t = trace.has_value() ? &*trace : nullptr;
    const int64_t t0 = NowNs();
    bool ok = false;
    {
      ScopedSpan root(t, "interaction");
      ok = script.Step(k, t);
    }
    const int64_t t1 = NowNs();
    ++phase.attempted;
    if (ok) {
      phase.samples.push_back(Sample{NsToMs(t1 - t0), cls});
    } else {
      ++phase.failed;
    }
    if (t != nullptr) tracer->Fold(*t);
    if (ok && captured < captures && Sampled(seed, k)) {
      script.Capture(k);
      ++captured;
    }
  }
  phase.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  return phase;
}

BatchCounters BatchCounters::Read() {
  const tioga2::expr::BatchMetrics& m = tioga2::expr::BatchMetrics::Global();
  BatchCounters c;
  c.restrict_rows = m.restrict_rows.load();
  c.join_build_rows = m.join_hash_build_rows.load();
  c.join_probe_rows = m.join_hash_probe_rows.load();
  c.morsels_executed = m.morsels_executed.load();
  c.dict_columns_built = m.dict_columns_built.load();
  c.nodes_vectorized = m.nodes_vectorized.load();
  c.nodes_fallback = m.nodes_fallback.load();
  c.simd_rows = m.simd_rows.load();
  c.dict_simd_batches = m.dict_simd_batches.load();
  c.render_location_batches = m.render_location_batches.load();
  c.render_scalar_fallbacks = m.render_scalar_fallbacks.load();
  return c;
}

BatchCounters BatchCounters::operator-(const BatchCounters& base) const {
  BatchCounters d;
  d.restrict_rows = restrict_rows - base.restrict_rows;
  d.join_build_rows = join_build_rows - base.join_build_rows;
  d.join_probe_rows = join_probe_rows - base.join_probe_rows;
  d.morsels_executed = morsels_executed - base.morsels_executed;
  d.dict_columns_built = dict_columns_built - base.dict_columns_built;
  d.nodes_vectorized = nodes_vectorized - base.nodes_vectorized;
  d.nodes_fallback = nodes_fallback - base.nodes_fallback;
  d.simd_rows = simd_rows - base.simd_rows;
  d.dict_simd_batches = dict_simd_batches - base.dict_simd_batches;
  d.render_location_batches = render_location_batches - base.render_location_batches;
  d.render_scalar_fallbacks = render_scalar_fallbacks - base.render_scalar_fallbacks;
  return d;
}

void PutBatchLayers(const BatchCounters& d, double n, std::map<std::string, double>* l) {
  auto put = [&](const char* name, uint64_t value) {
    (*l)[name] = PerUnit(static_cast<double>(value), n);
  };
  put("db.restrict_rows", d.restrict_rows);
  put("db.join_build_rows", d.join_build_rows);
  put("db.join_probe_rows", d.join_probe_rows);
  put("db.morsels_executed", d.morsels_executed);
  put("db.dict_columns_built", d.dict_columns_built);
  put("expr.nodes_vectorized", d.nodes_vectorized);
  put("expr.nodes_fallback", d.nodes_fallback);
  put("expr.simd_rows", d.simd_rows);
  put("expr.dict_simd_batches", d.dict_simd_batches);
  put("expr.render_location_batches", d.render_location_batches);
  put("expr.render_scalar_fallbacks", d.render_scalar_fallbacks);
  (*l)["expr.vectorized_ratio"] =
      PerUnit(static_cast<double>(d.nodes_vectorized),
              static_cast<double>(d.nodes_vectorized + d.nodes_fallback));
}

tioga2::Result<tioga2::viewer::RenderStats> RenderFrame(tioga2::viewer::Viewer* viewer,
                                                        FrameTarget* target,
                                                        InteractionTrace* trace) {
  {
    ScopedSpan span(trace, "viewer.Refresh");
    TIOGA2_RETURN_IF_ERROR(viewer->Refresh());
  }
  tioga2::render::Surface* surface = target->Acquire(trace);
  {
    ScopedSpan span(trace, "render.Clear");
    surface->Clear(tioga2::draw::kWhite);
  }
  tioga2::Result<tioga2::viewer::RenderStats> stats = tioga2::viewer::RenderStats{};
  {
    ScopedSpan span(trace, "viewer.RenderTo");
    stats = viewer->RenderTo(surface);
  }
  target->Release();
  if (stats.ok() && trace != nullptr) target->tally.Add(*stats);
  return stats;
}

void PutViewerSpans(const Tracer& tracer, std::map<std::string, double>* l) {
  (*l)["viewer.render_ms.p50"] = tracer.QuantileMs("viewer.RenderTo", 0.5);
  (*l)["viewer.render_ms.p99"] = tracer.QuantileMs("viewer.RenderTo", 0.99);
  (*l)["viewer.self_ms"] = tracer.MeanSelfMs("viewer.RenderTo");
  (*l)["viewer.refresh_ms"] = tracer.MeanMs("viewer.Refresh");
}

void PutRenderLayers(const std::vector<const FrameTarget*>& targets,
                     std::map<std::string, double>* l) {
  RenderTally tally;
  int64_t raster_ns = 0;
  int64_t clear_ns = 0;
  uint64_t calls[TracingSurface::kNumKinds] = {};
  for (const FrameTarget* target : targets) {
    tally.stats += target->tally.stats;
    tally.frames += target->tally.frames;
    raster_ns += target->tracing.raster_ns();
    clear_ns += target->tracing.clear_ns();
    for (int k = 0; k < TracingSurface::kNumKinds; ++k) {
      calls[k] += target->tracing.calls(k);
    }
  }
  const double frames = static_cast<double>(tally.frames);
  const tioga2::viewer::RenderStats& s = tally.stats;
  (*l)["viewer.tuples_total"] = PerUnit(static_cast<double>(s.tuples_total), frames);
  (*l)["viewer.tuples_drawn"] = PerUnit(static_cast<double>(s.tuples_drawn), frames);
  (*l)["viewer.drawn_ratio"] =
      PerUnit(static_cast<double>(s.tuples_drawn), static_cast<double>(s.tuples_total));
  (*l)["viewer.culled_viewport"] =
      PerUnit(static_cast<double>(s.tuples_culled_viewport), frames);
  (*l)["viewer.culled_slider"] =
      PerUnit(static_cast<double>(s.tuples_culled_slider), frames);
  (*l)["viewer.relations_skipped"] =
      PerUnit(static_cast<double>(s.relations_skipped), frames);
  (*l)["viewer.wormholes_rendered"] =
      PerUnit(static_cast<double>(s.wormholes_rendered), frames);
  (*l)["render.raster_ms"] = PerUnit(NsToMs(raster_ns), frames);
  (*l)["render.clear_ms"] = PerUnit(NsToMs(clear_ns), frames);
  for (int k = 0; k < TracingSurface::kNumKinds; ++k) {
    (*l)[std::string("render.calls.") + TracingSurface::KindName(k)] =
        PerUnit(static_cast<double>(calls[k]), frames);
  }
}

}  // namespace ibench
