#ifndef TIOGA2_DB_EXEC_POLICY_H_
#define TIOGA2_DB_EXEC_POLICY_H_

#include <cstddef>

namespace tioga2::db {

/// Which SIMD instruction tier the batch-evaluator kernels may use.
/// `kAuto` resolves to the best level the build and the running CPU support
/// (see expr/simd/simd.h); the pinned levels exist so equivalence tests can
/// exercise every tier on one machine. Requesting a level the machine cannot
/// run is safe — resolution clamps to the best available.
enum class SimdLevel : int {
  kAuto = -1,
  kScalar = 0,  // no explicit SIMD: the existing typed loops
  kSSE2 = 1,    // 128-bit lanes (2×double / 2×int64)
  kAVX2 = 2,    // 256-bit lanes (4×double / 4×int64)
};

/// Execution-strategy knobs threaded through the query operators, the
/// display layer, and the renderer. A policy never changes output bytes —
/// scalar, vectorized, and SIMD paths are bit-identical (property-tested) —
/// it only selects how a value is computed, so it deliberately stays out of
/// the memo stamps (see dataflow/stamp.h, point 2).
///
/// Policies are plain values carried by an evaluation context (the dataflow
/// ExecContext, a render::RenderOptions, or an explicit operator argument),
/// which makes them per-engine / per-session and safe to vary across
/// concurrently running evaluations. `SetDefaultExecPolicy` sets the
/// process-wide default used when no explicit policy is threaded in.
struct ExecPolicy {
  /// Run the vectorized operator paths (Restrict, Sort key comparison,
  /// display-attribute batches, renderer location columns). Both settings
  /// produce bit-identical results; the toggle exists for benchmarking and
  /// equivalence tests.
  bool vectorized = true;

  /// SIMD tier for the typed batch kernels. Only consulted on the
  /// vectorized paths; all tiers produce bit-identical results.
  SimdLevel simd = SimdLevel::kAuto;
};

/// The process-wide default policy, used whenever no explicit policy is
/// threaded in (default operator arguments, engines without an override).
/// Reads and writes are individually atomic.
ExecPolicy DefaultExecPolicy();
void SetDefaultExecPolicy(const ExecPolicy& policy);

}  // namespace tioga2::db

#endif  // TIOGA2_DB_EXEC_POLICY_H_
