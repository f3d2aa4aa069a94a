#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>

#include "boxes/relational_boxes.h"

namespace ibench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double PhaseP99(const Phase& phase, std::vector<double>* window_p99s) {
  window_p99s->clear();
  const size_t n = phase.samples.size();
  std::vector<double> ms;
  ms.reserve(n);
  for (const Sample& s : phase.samples) ms.push_back(s.ms);
  if (n < kP99Windows * kMinWindowSamples) return Quantile(std::move(ms), 0.99);
  for (size_t w = 0; w < kP99Windows; ++w) {
    window_p99s->push_back(Quantile(
        std::vector<double>(ms.begin() + w * n / kP99Windows,
                            ms.begin() + (w + 1) * n / kP99Windows),
        0.99));
  }
  return Median(*window_p99s);
}

void PrintClassBreakdown(const std::string& label, const Phase& phase,
                         const std::vector<std::string>& classes) {
  std::vector<Sample> sorted = phase.samples;
  if (sorted.empty()) return;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Sample& a, const Sample& b) { return a.ms < b.ms; });
  auto class_at = [&](double q) {
    size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
    rank = std::clamp<size_t>(rank, 1, sorted.size());
    return sorted[rank - 1].cls;
  };
  std::printf("  %s per-class latency (n=%zu):\n", label.c_str(), sorted.size());
  for (size_t c = 0; c < classes.size(); ++c) {
    std::vector<double> ms;
    for (const Sample& s : phase.samples) {
      if (s.cls == static_cast<int>(c)) ms.push_back(s.ms);
    }
    if (ms.empty()) continue;
    std::printf("    %-18s share %5.1f%%  p50 %8.3f ms  p99 %8.3f ms  (n=%zu)\n",
                classes[c].c_str(),
                100.0 * static_cast<double>(ms.size()) /
                    static_cast<double>(sorted.size()),
                Quantile(ms, 0.5), Quantile(ms, 0.99), ms.size());
  }
  std::printf("    overall p50 falls in '%s', p99 falls in '%s'\n",
              classes[class_at(0.5)].c_str(), classes[class_at(0.99)].c_str());
}

std::string Chain::Table(const std::string& table) {
  return Must(session_->AddTable(table), "add table " + table);
}

std::string Chain::Extend(std::string from, const std::vector<Spec>& boxes) {
  for (const auto& [type, params] : boxes) {
    std::string id = Must(session_->AddBox(type, params), "add box " + type);
    MustOk(session_->Connect(from, 0, id, 0), "connect " + type);
    from = id;
  }
  return from;
}

std::string Chain::Join2(const std::string& type,
                         const std::map<std::string, std::string>& params,
                         const std::string& left, const std::string& right) {
  std::string id = Must(session_->AddBox(type, params), "add box " + type);
  MustOk(session_->Connect(left, 0, id, 0), "connect " + type + " left");
  MustOk(session_->Connect(right, 0, id, 1), "connect " + type + " right");
  return id;
}

void Chain::View(const std::string& from, const std::string& canvas) {
  Must(session_->AddViewer(from, 0, canvas), "viewer " + canvas);
}

std::string FindBox(const tioga2::ui::Session& session, const std::string& type_name) {
  std::string found;
  for (const std::string& id : session.graph().BoxIds()) {
    const tioga2::dataflow::Box* box = Must(session.graph().GetBox(id), "box " + id);
    if (box->type_name() != type_name) continue;
    if (!found.empty()) throw SetupError("program has several " + type_name + " boxes");
    found = id;
  }
  if (found.empty()) throw SetupError("program has no " + type_name + " box");
  return found;
}

std::vector<std::string> UpstreamOfCanvas(const tioga2::ui::Session& session,
                                          const std::string& canvas) {
  const tioga2::dataflow::Graph& graph = session.graph();
  std::vector<std::string> pending;
  for (const std::string& id : graph.BoxIds()) {
    const auto* viewer = dynamic_cast<const tioga2::boxes::ViewerBox*>(
        Must(graph.GetBox(id), "box " + id));
    if (viewer != nullptr && viewer->canvas() == canvas) pending.push_back(id);
  }
  if (pending.size() != 1) throw SetupError("no single viewer for canvas " + canvas);
  std::set<std::string> upstream;
  while (!pending.empty()) {
    std::string id = pending.back();
    pending.pop_back();
    const tioga2::dataflow::Box* box = Must(graph.GetBox(id), "box " + id);
    for (size_t port = 0; port < box->InputTypes().size(); ++port) {
      std::optional<tioga2::dataflow::Edge> edge = graph.IncomingEdge(id, port);
      if (edge.has_value() && upstream.insert(edge->from_box).second) {
        pending.push_back(edge->from_box);
      }
    }
  }
  std::vector<std::string> ordered;
  for (const std::string& id : Must(graph.TopologicalOrder(), "topological order")) {
    if (upstream.count(id) != 0) ordered.push_back(id);
  }
  return ordered;
}

}  // namespace ibench
