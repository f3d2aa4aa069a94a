#include "db/exec_policy.h"

#include <atomic>

namespace tioga2::db {

namespace {
std::atomic<bool> g_default_vectorized{true};
std::atomic<int> g_default_simd{static_cast<int>(SimdLevel::kAuto)};
}  // namespace

ExecPolicy DefaultExecPolicy() {
  ExecPolicy policy;
  policy.vectorized = g_default_vectorized.load(std::memory_order_relaxed);
  policy.simd =
      static_cast<SimdLevel>(g_default_simd.load(std::memory_order_relaxed));
  return policy;
}

void SetDefaultExecPolicy(const ExecPolicy& policy) {
  g_default_vectorized.store(policy.vectorized, std::memory_order_relaxed);
  g_default_simd.store(static_cast<int>(policy.simd), std::memory_order_relaxed);
}

}  // namespace tioga2::db
