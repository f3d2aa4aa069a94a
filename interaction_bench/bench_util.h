#ifndef TIOGA2_INTERACTION_BENCH_BENCH_UTIL_H_
#define TIOGA2_INTERACTION_BENCH_BENCH_UTIL_H_

// Shared plumbing of the interaction benchmark: clocks, fatal set-up errors,
// latency statistics, the per-class breakdown, and the program-building
// helper every workload uses.

#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "db/exec_policy.h"
#include "ui/session.h"

namespace ibench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// A set-up failure: the run cannot measure anything and exits non-zero
/// without printing a result.
struct SetupError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

template <typename T>
T Must(tioga2::Result<T> result, const std::string& what) {
  if (!result.ok()) throw SetupError(what + ": " + result.status().ToString());
  return std::move(result).value();
}

inline void MustOk(const tioga2::Status& status, const std::string& what) {
  if (!status.ok()) throw SetupError(what + ": " + status.ToString());
}

/// The scalar oracle every output check renders against: no vectorized
/// operators, no SIMD kernels. Byte-identity to it is the repository's
/// central invariant.
inline tioga2::db::ExecPolicy OraclePolicy() {
  tioga2::db::ExecPolicy policy;
  policy.vectorized = false;
  policy.simd = tioga2::db::SimdLevel::kScalar;
  return policy;
}

/// Nearest-rank quantile of `values` (q in [0, 1]); 0 for an empty list.
double Quantile(std::vector<double> values, double q);

/// Median of a small list (set-up repetitions).
double Median(std::vector<double> values);

/// Peak resident set of this process in MiB (VmHWM).
double PeakRssMb();

/// One timed interaction as the workload loop saw it.
struct Sample {
  double ms = 0;
  int cls = 0;
};

/// The outcome of one timed phase.
struct Phase {
  std::vector<Sample> samples;  // completed interactions, in completion order
  double wall_s = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Interactions a window must hold before p99 is taken per window.
inline constexpr size_t kMinWindowSamples = 1000;
inline constexpr size_t kP99Windows = 10;

/// The phase's p99 latency, the `p99_ms` metric. When each of ten
/// consecutive windows of the phase (in completion order, equal counts)
/// holds at least kMinWindowSamples interactions, it is the median of the
/// windows' p99s, so a burst of host load that covers a few windows does
/// not decide it; otherwise it is the p99 of the whole phase. Fills
/// `window_p99s` with the per-window values (empty without windows).
double PhaseP99(const Phase& phase, std::vector<double>* window_p99s);

/// Prints share, p50 and p99 per interaction class and names the class in
/// which the phase's overall p50 and p99 samples fall (reported, not gated).
void PrintClassBreakdown(const std::string& label, const Phase& phase,
                         const std::vector<std::string>& classes);

/// Appends boxes one after another to a session program; each box's input 0
/// is wired to the previous box's output 0.
class Chain {
 public:
  explicit Chain(tioga2::ui::Session* session) : session_(session) {}

  using Spec = std::pair<std::string, std::map<std::string, std::string>>;

  std::string Table(const std::string& table);
  std::string Extend(std::string from, const std::vector<Spec>& boxes);
  /// A two-input box fed by `left` and `right`.
  std::string Join2(const std::string& type,
                    const std::map<std::string, std::string>& params,
                    const std::string& left, const std::string& right);
  void View(const std::string& from, const std::string& canvas);

 private:
  tioga2::ui::Session* session_;
};

/// Id of the only box of `type_name` in the session's program.
std::string FindBox(const tioga2::ui::Session& session, const std::string& type_name);

/// Box ids feeding the viewer box of `canvas` (transitively), in the
/// program's topological order; the viewer box itself is excluded.
std::vector<std::string> UpstreamOfCanvas(const tioga2::ui::Session& session,
                                          const std::string& canvas);

}  // namespace ibench

#endif  // TIOGA2_INTERACTION_BENCH_BENCH_UTIL_H_
