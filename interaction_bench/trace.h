#ifndef TIOGA2_INTERACTION_BENCH_TRACE_H_
#define TIOGA2_INTERACTION_BENCH_TRACE_H_

// Spans recorded from benchmark code around the calls into each layer's
// public functions. The traced run records a span at every layer boundary
// (name, start, end, parent, interaction id); spans stay in memory, are
// folded into per-name histograms as each interaction ends, and one full
// interaction per class is kept for a Chrome trace-event export at exit.
// End-to-end metrics never come from a traced run.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bench_util.h"
#include "render/surface.h"

namespace ibench {

/// One timed region. `inner_ns` is time spent in nested calls that are
/// counted rather than spanned (Surface draw calls inside RenderTo); a
/// span's self time is its duration minus its children and its inner time.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int64_t inner_ns = 0;
  uint32_t tid = 0;
};

/// The spans of one interaction. Only one thread writes it at a time; a
/// request handed to a server worker hands its trace over with it.
class InteractionTrace {
 public:
  InteractionTrace(uint64_t id, int cls) : id_(id), cls_(cls) {}

  uint64_t id() const { return id_; }
  int cls() const { return cls_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Opens a span under the innermost open span; `start_ns` defaults to now.
  int Open(const char* name, int64_t start_ns = -1);
  void Close(int index);
  /// Records an already-measured span under the innermost open span (or at
  /// the root); used for intervals that cross threads, like queue wait.
  int Add(const char* name, int64_t start_ns, int64_t end_ns);
  /// Charges counted-not-spanned time to the innermost open span.
  void AddInner(int64_t ns);

 private:
  uint64_t id_;
  int cls_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null trace (the untraced run) records nothing.
class ScopedSpan {
 public:
  ScopedSpan(InteractionTrace* trace, const char* name)
      : trace_(trace), index_(trace != nullptr ? trace->Open(name) : -1) {}
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  InteractionTrace* trace_;
  int index_;
};

/// Interns a span name built at run time ("boxes.Restrict") so spans can
/// hold a plain pointer.
const char* InternName(const std::string& name);

/// Per-name fold of many interactions: for each span name, the sum of its
/// durations (and self times) within each interaction that contained it.
class Tracer {
 public:
  explicit Tracer(std::vector<std::string> class_names);

  /// Folds a finished interaction. Thread-safe.
  void Fold(const InteractionTrace& trace);

  /// Mean over interactions containing `name` of its per-interaction total.
  double MeanMs(const std::string& name) const;
  /// Same for self time.
  double MeanSelfMs(const std::string& name) const;
  /// Quantile of the per-interaction totals of `name`.
  double QuantileMs(const std::string& name, double q) const;

  /// Writes the kept interactions as Chrome trace-event JSON, with the
  /// folded histograms summarized under "otherData".
  void WriteChromeTrace(const std::string& path) const;

 private:
  struct NameFold {
    std::vector<double> total_ms;
    std::vector<double> self_ms;
  };
  std::vector<std::string> class_names_;
  mutable std::mutex mu_;
  std::map<std::string, NameFold> folds_;
  std::vector<InteractionTrace> kept_;  // first interaction of each class
  int64_t epoch_ns_;
};

/// A forwarding Surface that times and counts every draw call of the
/// surface it wraps, charging the time to the current interaction's
/// innermost span. Clear is timed separately.
class TracingSurface : public tioga2::render::Surface {
 public:
  enum Kind { kPoint, kLine, kRect, kCircle, kPolygon, kText, kNumKinds };
  static const char* KindName(int kind);

  explicit TracingSurface(tioga2::render::Surface* inner) : inner_(inner) {}

  void set_trace(InteractionTrace* trace) { trace_ = trace; }

  int64_t raster_ns() const { return raster_ns_; }
  int64_t clear_ns() const { return clear_ns_; }
  uint64_t calls(int kind) const { return calls_[kind]; }

  int width() const override { return inner_->width(); }
  int height() const override { return inner_->height(); }
  void Clear(const tioga2::draw::Color& color) override;
  void DrawPoint(double x, double y, int thickness,
                 const tioga2::draw::Color& color) override;
  void DrawLine(double x1, double y1, double x2, double y2,
                const tioga2::draw::Style& style,
                const tioga2::draw::Color& color) override;
  void DrawRect(double x, double y, double w, double h,
                const tioga2::draw::Style& style,
                const tioga2::draw::Color& color) override;
  void DrawCircle(double cx, double cy, double radius,
                  const tioga2::draw::Style& style,
                  const tioga2::draw::Color& color) override;
  void DrawPolygon(const std::vector<tioga2::draw::Point>& points,
                   const tioga2::draw::Style& style,
                   const tioga2::draw::Color& color) override;
  void DrawText(const std::string& text, double x, double y, double height,
                const tioga2::draw::Color& color) override;
  void PushViewport(const tioga2::render::DeviceRect& target, double source_width,
                    double source_height) override {
    inner_->PushViewport(target, source_width, source_height);
  }
  void PopViewport() override { inner_->PopViewport(); }
  void PushClip(const tioga2::render::DeviceRect& rect) override {
    inner_->PushClip(rect);
  }
  void PopClip() override { inner_->PopClip(); }

 private:
  void Charge(int kind, int64_t start_ns);

  tioga2::render::Surface* inner_;
  InteractionTrace* trace_ = nullptr;
  int64_t raster_ns_ = 0;
  int64_t clear_ns_ = 0;
  uint64_t calls_[kNumKinds] = {};
};

}  // namespace ibench

#endif  // TIOGA2_INTERACTION_BENCH_TRACE_H_
