// Figure 11: a replicated viewer — partitioning a relation by predicates
// into a stitched group (§7.4).
//
// Reproduction: replicates observations by year and employees by
// salary x department (the paper's own example predicates). Benchmarks:
// replicate cost vs partition count and grid size, plus partition
// completeness checks.

#include "bench/bench_common.h"

namespace tioga2::bench {
namespace {

void Report() {
  ReportHeader("Figure 11", "a replicated viewer (years; salary x department)");
  Environment env;
  MustOk(env.LoadDemoData(10, 730), "load");
  ui::Session& session = env.session();

  // Observations replicated into 1985 / 1986.
  std::string obs = Must(session.AddTable("Observations"), "obs");
  std::string one =
      Must(session.AddBox("Restrict", {{"predicate", "station_id = 1"}}), "one");
  std::string by_year = Must(
      session.AddBox("Replicate",
                     {{"rows", "year(obs_date) = 1985;year(obs_date) = 1986"},
                      {"columns", ""}}),
      "replicate");
  MustOk(session.Connect(obs, 0, one, 0), "w");
  MustOk(session.Connect(one, 0, by_year, 0), "w");
  Must(session.AddViewer(by_year, 0, "years"), "viewer");
  auto years = display::AsGroup(Must(session.EvaluateCanvas("years"), "eval"));
  std::printf("  observations by year: %zu panes of %zu + %zu rows\n", years.size(),
              years.members()[0].entries()[0].relation.num_rows(),
              years.members()[1].entries()[0].relation.num_rows());

  // Employees replicated salary x department — the §7.4 example:
  // "replication is tabular, with predicates salary <= 5000 and
  // salary > 5000 in the horizontal dimension and the enumerated type
  // department in the vertical dimension".
  std::string employees = Must(session.AddTable("Employees"), "employees");
  std::string grid = Must(
      session.AddBox(
          "Replicate",
          {{"rows", "department = \"shoe\";department = \"toy\";department = "
                    "\"candy\";department = \"hardware\""},
           {"columns", "salary <= 5000;salary > 5000"}}),
      "replicate");
  MustOk(session.Connect(employees, 0, grid, 0), "w");
  Must(session.AddViewer(grid, 0, "salaries"), "viewer");
  auto salary_grid = display::AsGroup(Must(session.EvaluateCanvas("salaries"), "eval"));
  auto shape = salary_grid.GridShape();
  size_t total = 0;
  for (const display::Composite& member : salary_grid.members()) {
    total += member.entries()[0].relation.num_rows();
  }
  std::printf("  employees grid: %zux%zu panes covering %zu employees\n",
              shape.first, shape.second, total);
  auto viewer = Must(env.GetViewer("salaries"), "viewer");
  MustOk(viewer->FitContent(800, 600), "fit");
  Must(env.RenderViewer(viewer, 800, 600, OutDir() + "/fig11.ppm"), "render");
  std::printf("  rendered -> %s/fig11.ppm\n", OutDir().c_str());
}

void BM_ReplicateByPartitionCount(benchmark::State& state) {
  Environment env;
  MustOk(env.LoadDemoData(10, 60), "load");
  ui::Session& session = env.session();
  std::string employees = Must(session.AddTable("Employees"), "employees");
  // n salary bands.
  int64_t n = state.range(0);
  std::vector<std::string> bands;
  for (int64_t i = 0; i < n; ++i) {
    double lo = 2000.0 + 8000.0 * static_cast<double>(i) / static_cast<double>(n);
    double hi = 2000.0 + 8000.0 * static_cast<double>(i + 1) / static_cast<double>(n);
    bands.push_back("salary > " + std::to_string(lo) + " and salary <= " +
                    std::to_string(hi));
  }
  std::string rows;
  for (size_t i = 0; i < bands.size(); ++i) {
    if (i > 0) rows += ";";
    rows += bands[i];
  }
  std::string replicate =
      Must(session.AddBox("Replicate", {{"rows", rows}, {"columns", ""}}), "rep");
  MustOk(session.Connect(employees, 0, replicate, 0), "w");
  Must(session.AddViewer(replicate, 0, "bands"), "viewer");
  for (auto _ : state) {
    ClearMemo(session.engine(), session.graph());
    benchmark::DoNotOptimize(session.EvaluateCanvas("bands"));
  }
  state.counters["partitions"] = static_cast<double>(n);
}
BENCHMARK(BM_ReplicateByPartitionCount)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_ReplicateTabularGrid(benchmark::State& state) {
  Environment env;
  MustOk(env.LoadDemoData(10, 60), "load");
  ui::Session& session = env.session();
  std::string employees = Must(session.AddTable("Employees"), "employees");
  std::string replicate = Must(
      session.AddBox(
          "Replicate",
          {{"rows", "department = \"shoe\";department = \"toy\";department = "
                    "\"candy\";department = \"hardware\""},
           {"columns", "salary <= 5000;salary > 5000"}}),
      "rep");
  MustOk(session.Connect(employees, 0, replicate, 0), "w");
  Must(session.AddViewer(replicate, 0, "grid"), "viewer");
  for (auto _ : state) {
    ClearMemo(session.engine(), session.graph());
    benchmark::DoNotOptimize(session.EvaluateCanvas("grid"));
  }
}
BENCHMARK(BM_ReplicateTabularGrid);

void BM_RenderReplicatedGroup(benchmark::State& state) {
  Environment env;
  MustOk(env.LoadDemoData(10, 60), "load");
  ui::Session& session = env.session();
  std::string employees = Must(session.AddTable("Employees"), "employees");
  std::string replicate = Must(
      session.AddBox("Replicate", {{"rows", "salary <= 5000;salary > 5000"},
                                   {"columns", ""}}),
      "rep");
  MustOk(session.Connect(employees, 0, replicate, 0), "w");
  Must(session.AddViewer(replicate, 0, "grid"), "viewer");
  auto viewer = Must(env.GetViewer("grid"), "viewer");
  MustOk(viewer->FitContent(640, 480), "fit");
  render::Framebuffer fb(640, 480);
  render::RasterSurface surface(&fb);
  for (auto _ : state) {
    fb.Clear(draw::kWhite);
    benchmark::DoNotOptimize(viewer->RenderTo(&surface));
  }
}
BENCHMARK(BM_RenderReplicatedGroup);

}  // namespace
}  // namespace tioga2::bench

int main(int argc, char** argv) {
  tioga2::bench::Report();
  return tioga2::bench::RunBenchmarks(argc, argv);
}
