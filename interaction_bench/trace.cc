#include "trace.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <numeric>
#include <set>
#include <thread>

namespace ibench {

namespace {

uint32_t ThreadTag() {
  return static_cast<uint32_t>(std::hash<std::thread::id>{}(std::this_thread::get_id()) %
                               100000);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int InteractionTrace::Open(const char* name, int64_t start_ns) {
  Span span;
  span.name = name;
  span.start_ns = start_ns >= 0 ? start_ns : NowNs();
  span.parent = open_.empty() ? -1 : open_.back();
  span.tid = ThreadTag();
  spans_.push_back(span);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void InteractionTrace::Close(int index) {
  spans_[index].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

int InteractionTrace::Add(const char* name, int64_t start_ns, int64_t end_ns) {
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.parent = open_.empty() ? -1 : open_.back();
  span.tid = ThreadTag();
  spans_.push_back(span);
  return static_cast<int>(spans_.size()) - 1;
}

void InteractionTrace::AddInner(int64_t ns) {
  if (!open_.empty()) spans_[open_.back()].inner_ns += ns;
}

const char* InternName(const std::string& name) {
  static std::mutex mu;
  static std::set<std::string>* names = new std::set<std::string>();
  std::lock_guard<std::mutex> lock(mu);
  return names->insert(name).first->c_str();
}

Tracer::Tracer(std::vector<std::string> class_names)
    : class_names_(std::move(class_names)), epoch_ns_(NowNs()) {}

void Tracer::Fold(const InteractionTrace& trace) {
  const std::vector<Span>& spans = trace.spans();
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& span : spans) {
    if (span.parent >= 0) child_ns[span.parent] += span.end_ns - span.start_ns;
  }
  std::map<std::string, std::pair<double, double>> totals;  // name -> (total, self)
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    int64_t duration = span.end_ns - span.start_ns;
    auto& [total, self] = totals[span.name];
    total += NsToMs(duration);
    self += NsToMs(duration - child_ns[i] - span.inner_ns);
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, value] : totals) {
    NameFold& fold = folds_[name];
    fold.total_ms.push_back(value.first);
    fold.self_ms.push_back(value.second);
  }
  bool kept = false;
  for (const InteractionTrace& k : kept_) kept = kept || k.cls() == trace.cls();
  if (!kept) kept_.push_back(trace);
}

double Tracer::MeanMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = folds_.find(name);
  if (it == folds_.end() || it->second.total_ms.empty()) return 0;
  const std::vector<double>& v = it->second.total_ms;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double Tracer::MeanSelfMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = folds_.find(name);
  if (it == folds_.end() || it->second.self_ms.empty()) return 0;
  const std::vector<double>& v = it->second.self_ms;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double Tracer::QuantileMs(const std::string& name, double q) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = folds_.find(name);
  return it == folds_.end() ? 0 : Quantile(it->second.total_ms, q);
}

void Tracer::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::error_code ec;
  std::filesystem::create_directories(std::filesystem::path(path).parent_path(), ec);
  std::ofstream out(path);
  char buffer[512];
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const InteractionTrace& trace : kept_) {
    const std::string& cls = class_names_[trace.cls()];
    for (size_t i = 0; i < trace.spans().size(); ++i) {
      const Span& span = trace.spans()[i];
      std::snprintf(buffer, sizeof(buffer),
                    "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                    "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"interaction\":%llu,"
                    "\"parent\":%d,\"inner_ms\":%.6f}}",
                    first ? "" : ",", JsonEscape(span.name).c_str(),
                    JsonEscape(cls).c_str(), span.tid,
                    static_cast<double>(span.start_ns - epoch_ns_) / 1e3,
                    static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                    static_cast<unsigned long long>(trace.id()), span.parent,
                    NsToMs(span.inner_ns));
      out << buffer;
      first = false;
    }
  }
  out << "],\"otherData\":{\"histograms\":{";
  first = true;
  for (const auto& [name, fold] : folds_) {
    std::snprintf(buffer, sizeof(buffer),
                  "%s\"%s\":{\"interactions\":%zu,\"p50_ms\":%.6f,\"p99_ms\":%.6f,"
                  "\"mean_self_ms\":%.6f}",
                  first ? "" : ",", JsonEscape(name).c_str(), fold.total_ms.size(),
                  Quantile(fold.total_ms, 0.5), Quantile(fold.total_ms, 0.99),
                  std::accumulate(fold.self_ms.begin(), fold.self_ms.end(), 0.0) /
                      static_cast<double>(std::max<size_t>(1, fold.self_ms.size())));
    out << buffer;
    first = false;
  }
  out << "}}}\n";
}

const char* TracingSurface::KindName(int kind) {
  static const char* kNames[kNumKinds] = {"point", "line", "rect",
                                          "circle", "polygon", "text"};
  return kNames[kind];
}

void TracingSurface::Charge(int kind, int64_t start_ns) {
  int64_t ns = NowNs() - start_ns;
  raster_ns_ += ns;
  ++calls_[kind];
  if (trace_ != nullptr) trace_->AddInner(ns);
}

void TracingSurface::Clear(const tioga2::draw::Color& color) {
  int64_t start = NowNs();
  inner_->Clear(color);
  int64_t ns = NowNs() - start;
  clear_ns_ += ns;
  if (trace_ != nullptr) trace_->AddInner(ns);
}

void TracingSurface::DrawPoint(double x, double y, int thickness,
                               const tioga2::draw::Color& color) {
  int64_t start = NowNs();
  inner_->DrawPoint(x, y, thickness, color);
  Charge(kPoint, start);
}

void TracingSurface::DrawLine(double x1, double y1, double x2, double y2,
                              const tioga2::draw::Style& style,
                              const tioga2::draw::Color& color) {
  int64_t start = NowNs();
  inner_->DrawLine(x1, y1, x2, y2, style, color);
  Charge(kLine, start);
}

void TracingSurface::DrawRect(double x, double y, double w, double h,
                              const tioga2::draw::Style& style,
                              const tioga2::draw::Color& color) {
  int64_t start = NowNs();
  inner_->DrawRect(x, y, w, h, style, color);
  Charge(kRect, start);
}

void TracingSurface::DrawCircle(double cx, double cy, double radius,
                                const tioga2::draw::Style& style,
                                const tioga2::draw::Color& color) {
  int64_t start = NowNs();
  inner_->DrawCircle(cx, cy, radius, style, color);
  Charge(kCircle, start);
}

void TracingSurface::DrawPolygon(const std::vector<tioga2::draw::Point>& points,
                                 const tioga2::draw::Style& style,
                                 const tioga2::draw::Color& color) {
  int64_t start = NowNs();
  inner_->DrawPolygon(points, style, color);
  Charge(kPolygon, start);
}

void TracingSurface::DrawText(const std::string& text, double x, double y, double height,
                              const tioga2::draw::Color& color) {
  int64_t start = NowNs();
  inner_->DrawText(text, x, y, height, color);
  Charge(kText, start);
}

}  // namespace ibench
