#ifndef TIOGA2_DATAFLOW_STAMP_H_
#define TIOGA2_DATAFLOW_STAMP_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "dataflow/box.h"

namespace tioga2::dataflow {

// The stamp algebra shared by the Engine and delta propagation. Both paths
// MUST key memo-cache entries with the exact same stamps so that a cache
// populated by one is valid for the other, and so that engines under any
// execution policy are bit-identical (asserted by
// runtime_determinism_test).
//
// The stamp/memoization contract (see also DESIGN.md "The stamp contract"):
//
//   stamp(box) = FoldInputStamp(... FoldInputStamp(BoxSignature(box, ctx),
//                                                   input_1 ...) ...,
//                               input_n ...)
//   with inputs folded in port order.
//
// 1. A stamp is a pure function of the *program*: box type, parameters,
//    catalog state the box declares via CacheSalt (e.g. table versions),
//    and the stamps of its inputs. It never inspects the produced values.
// 2. Consequently a stamp is independent of *how* a value was computed or
//    represented: scalar vs vectorized evaluation, row vs columnar access,
//    and every SIMD tier must all yield byte-identical outputs
//    for the same stamp (enforced by determinism_test and
//    runtime_determinism_test over every figure program). An optimization
//    that changes output bytes is a correctness bug, not a new cache key.
// 3. Any new source of nondeterminism a box depends on (a table version, a
//    random seed, a file mtime) must be folded into CacheSalt — never read
//    out-of-band — or stale cache entries will be served after it changes.

/// 64-bit variant of boost::hash_combine.
inline uint64_t HashCombine(uint64_t seed, uint64_t value) {
  return seed ^ (value + 0x9E3779B97F4A7C15ULL + (seed << 12) + (seed >> 4));
}

/// Folds one input into a box's stamp: the upstream box's stamp, the
/// upstream output port the value leaves from, and the input port it enters.
/// The engine and PropagateDelta both fold through this one definition, so
/// their stamps agree by construction.
inline uint64_t FoldInputStamp(uint64_t stamp, uint64_t input_stamp,
                               size_t from_port, size_t to_port) {
  stamp = HashCombine(stamp, input_stamp);
  stamp = HashCombine(stamp, from_port);
  return HashCombine(stamp, to_port);
}

/// FNV-1a.
inline uint64_t HashString(const std::string& text) {
  uint64_t hash = 1469598103934665603ULL;
  for (char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// BoxSignature with an explicitly supplied salt. The delta-propagation
/// path uses this to reconstruct what a Table box's signature *was* before
/// a version bump (substituting the pre-update version for the current
/// CacheSalt) so it can validate memoized entries against the pre-update
/// program.
inline uint64_t BoxSignatureWithSalt(const Box& box, const std::string& salt) {
  uint64_t hash = HashString(box.type_name());
  for (const auto& [key, value] : box.Params()) {
    hash = HashCombine(hash, HashString(key));
    hash = HashCombine(hash, HashString(value));
  }
  hash = HashCombine(hash, HashString(salt));
  return hash;
}

/// The box's own contribution to its stamp: type, parameters, and any
/// catalog state it reads (CacheSalt — e.g. the version of the table a
/// source box scans).
inline uint64_t BoxSignature(const Box& box, const ExecContext& ctx) {
  return BoxSignatureWithSalt(box, box.CacheSalt(ctx));
}

}  // namespace tioga2::dataflow

#endif  // TIOGA2_DATAFLOW_STAMP_H_
