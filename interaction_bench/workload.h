#ifndef TIOGA2_INTERACTION_BENCH_WORKLOAD_H_
#define TIOGA2_INTERACTION_BENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "render/framebuffer.h"
#include "render/raster_surface.h"
#include "trace.h"
#include "viewer/canvas_renderer.h"
#include "viewer/viewer.h"

namespace ibench {

/// Command-line options of one run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Set-up is repeated this many times per run and the median reported, so
/// one slow set-up does not decide `setup_s`.
inline constexpr int kSetupRepeats = 9;

/// What a workload hands back to main.
struct WorkloadResult {
  std::vector<std::string> classes;
  std::vector<double> setup_s;  // one per set-up repetition
  Phase timed;                  // untraced: the end-to-end metrics
  /// Process peak RSS (VmHWM) read as the untraced phase ends, before the
  /// traced half and the output checks can raise it.
  double peak_rss_mb = 0;
  Phase traced;                 // trace mode only: the per-layer metrics
  std::map<std::string, double> layers;
  /// Failed output checks and self-checks; any entry makes the run incorrect.
  std::vector<std::string> problems;
};

WorkloadResult RunNavigate(const Options& options);
WorkloadResult RunDrill(const Options& options);
WorkloadResult RunServe(const Options& options);

/// Builds a workload's state `kSetupRepeats` times, each from scratch, and
/// appends each set-up's duration to `setup_s`; returns the last one.
template <typename State>
std::unique_ptr<State> SetUp(const Options& options, std::vector<double>* setup_s) {
  std::unique_ptr<State> state;
  for (int r = 0; r < kSetupRepeats; ++r) {
    state.reset();
    const int64_t t0 = NowNs();
    state = std::make_unique<State>(options);
    setup_s->push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  return state;
}

/// A single-analyst workload: a deterministic script of interactions.
class Script {
 public:
  virtual ~Script() = default;
  /// Class of interaction `k`, known before it runs.
  virtual int ClassOf(uint64_t k) const = 0;
  /// Runs interaction `k` from gesture to last pixel. Returns false when it
  /// failed (error status or a violated per-interaction self-check).
  virtual bool Step(uint64_t k, InteractionTrace* trace) = 0;
  /// Called after a successful interaction `k`'s timer stopped, for the
  /// seeded sample of interactions whose output is checked after the phase.
  virtual void Capture(uint64_t k) = 0;
};

/// Runs `script` back to back for `seconds`, continuing the interaction
/// numbering at `*next`. With a tracer, every interaction is traced and
/// folded into it.
Phase RunLoop(Script& script, double seconds, uint64_t seed, uint64_t* next,
              Tracer* tracer, int captures);

/// Counter deltas of the process-wide batch metrics over a phase.
struct BatchCounters {
  uint64_t restrict_rows = 0, join_build_rows = 0, join_probe_rows = 0,
           morsels_executed = 0, dict_columns_built = 0, nodes_vectorized = 0,
           nodes_fallback = 0, simd_rows = 0, dict_simd_batches = 0,
           render_location_batches = 0, render_scalar_fallbacks = 0;
  static BatchCounters Read();
  BatchCounters operator-(const BatchCounters& base) const;
};

/// Fills the `db.` and `expr.` per-layer metrics, per interaction.
void PutBatchLayers(const BatchCounters& delta, double interactions,
                    std::map<std::string, double>* layers);

/// Accumulated render statistics of a phase.
struct RenderTally {
  tioga2::viewer::RenderStats stats;
  uint64_t frames = 0;
  void Add(const tioga2::viewer::RenderStats& s) {
    stats += s;
    ++frames;
  }
};

/// A framebuffer and the surfaces that draw into it: the raster surface for
/// untraced frames, and the tracing decorator around it for traced ones.
struct FrameTarget {
  FrameTarget(int width, int height) : fb(width, height) {}
  FrameTarget(const FrameTarget&) = delete;
  FrameTarget& operator=(const FrameTarget&) = delete;

  /// The surface an interaction draws on; a traced one (non-null `trace`)
  /// draws through the decorator, which charges its time to `trace` until
  /// Release().
  tioga2::render::Surface* Acquire(InteractionTrace* trace) {
    tracing.set_trace(trace);
    return trace != nullptr ? static_cast<tioga2::render::Surface*>(&tracing) : &raster;
  }
  void Release() { tracing.set_trace(nullptr); }

  tioga2::render::Framebuffer fb;
  tioga2::render::RasterSurface raster{&fb};
  TracingSurface tracing{&raster};
  RenderTally tally;  // traced frames only
};

/// The end of every interaction: Viewer::Refresh, Clear and RenderTo, each
/// in its own span. Traced frames are added to the target's tally.
tioga2::Result<tioga2::viewer::RenderStats> RenderFrame(tioga2::viewer::Viewer* viewer,
                                                        FrameTarget* target,
                                                        InteractionTrace* trace);

/// Fills the `viewer.` metrics timed by spans: RenderTo p50/p99 and self
/// time, and Refresh.
void PutViewerSpans(const Tracer& tracer, std::map<std::string, double>* layers);

/// Fills the per-frame `viewer.` statistics and the `render.` metrics from
/// the traced frames of `targets`.
void PutRenderLayers(const std::vector<const FrameTarget*>& targets,
                     std::map<std::string, double>* layers);

}  // namespace ibench

#endif  // TIOGA2_INTERACTION_BENCH_WORKLOAD_H_
