#ifndef TIOGA2_TESTING_FIG_PROGRAMS_H_
#define TIOGA2_TESTING_FIG_PROGRAMS_H_

#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "dataflow/port_type.h"
#include "display/displayable.h"
#include "tioga2/environment.h"

namespace tioga2::testing {

/// One figure-reproduction program, buildable on demand into a fresh
/// Environment. Mirrors the programs the bench/bench_fig* binaries
/// construct, packaged so runtime_determinism_test can evaluate every one of
/// them under every execution policy.
struct FigProgram {
  std::string name;
  /// LoadDemoData sizing (kept small: these run in tests).
  size_t extra_stations = 100;
  size_t num_days = 10;
  /// Builds the program into env's session; demo data is already loaded.
  std::function<Status(Environment*)> build;
  /// The canvases the program registers — the evaluation targets.
  std::vector<std::string> canvases;
};

/// Every figure program (fig01 through fig11).
std::vector<FigProgram> AllFigPrograms();

/// A deterministic textual fingerprint of a box output, stable across
/// evaluation strategies: base rows and schema, attribute metadata
/// (hexfloat scale/translate — bit-exact), location and display
/// designations, elevation ranges, composite offsets, and group layout.
/// Two BoxValues with equal fingerprints are the same visualization.
std::string FingerprintBoxValue(const dataflow::BoxValue& value);
std::string FingerprintDisplayable(const display::Displayable& displayable);

}  // namespace tioga2::testing

#endif  // TIOGA2_TESTING_FIG_PROGRAMS_H_
