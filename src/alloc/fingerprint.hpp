#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "alloc/problem.hpp"

/// \file fingerprint.hpp
/// Canonical-form instance fingerprinting. Production allocation traffic
/// is repetitive — the same kernels resubmitted with renamed variables
/// and jittered costs — so the allocation cache (engine/alloc_cache.hpp)
/// keys on a *canonical form* of the problem: variables are renamed into
/// a deterministic order (lifetime shape first, then access/activity
/// signature, then declaration index as the tiebreak) and every semantic
/// field is hashed in that order. Two instances that differ only by a
/// variable permutation therefore collide on purpose, and the recorded
/// permutations let a cached assignment be remapped onto the new
/// declaration order in O(segments).
///
/// The `canonical` hash is 128 bits over the canonical form: the cache
/// key.
///
/// Everything that can change the optimal allocation is hashed:
/// num_steps, num_registers, the access model, every EnergyParams field
/// (including the register model and supply voltages), lifetime shapes
/// (width, write/read times, live_out), segment structure (boundaries,
/// cut kinds, forced/forbidden pins) and the activity matrix (pairwise
/// Hamming fractions plus initial activities). Names and ValueIds are
/// deliberately NOT hashed — they never reach the solver.
///
/// Ties in the canonical order are broken by declaration index, so two
/// *distinct* variables with identical sort keys may canonicalise
/// differently across permutations. That direction of error is safe: a
/// missed collision is a cache miss, never a wrong answer (and the
/// audit-sampled recheck in the cache guards the other direction).

namespace lera::alloc {

/// 128-bit canonical-form hash, printable and map-keyable.
struct Fingerprint {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  bool operator==(const Fingerprint& o) const {
    return hi == o.hi && lo == o.lo;
  }
  bool operator!=(const Fingerprint& o) const { return !(*this == o); }
  bool operator<(const Fingerprint& o) const {
    return hi != o.hi ? hi < o.hi : lo < o.lo;
  }

  /// 32 lowercase hex digits (hi then lo), for logs and machine lines.
  std::string hex() const;
};

/// The fingerprinting outcome: the canonical hash plus the canonical
/// permutations needed to remap cached answers.
struct FingerprintResult {
  Fingerprint canonical;  ///< Permutation-invariant cache key.

  /// var_order[c] = declaration index of the variable at canonical
  /// position c. A permutation of 0..num_vars-1.
  std::vector<int> var_order;
  /// seg_order[c] = declaration index (into problem.segments) of the
  /// segment at canonical position c. A permutation of 0..num_segs-1.
  std::vector<int> seg_order;
};

/// Computes the canonical hash and permutations. Pure function;
/// O(V log V + S + V^2) for the activity section.
FingerprintResult fingerprint_problem(const AllocationProblem& p);

}  // namespace lera::alloc
