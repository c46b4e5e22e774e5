#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "audit/audit.hpp"
#include "audit/shrink.hpp"

/// \file fuzz.hpp
/// Differential fuzzing of the whole allocation stack. Each seed
/// deterministically generates a random problem (workloads/random_gen),
/// pushes it through the flow allocator, the two-phase baseline and —
/// when the instance is small — the exhaustive optimum, audits every
/// result with audit_allocation/audit_result, and cross-checks the
/// solvers against each other (flow <= baseline, flow == optimum, and
/// the sparse flow graph's cost == the dense graph's when the problem
/// takes the sparse encoding).
/// Any finding is serialised through workloads/problem_io into an
/// artifact directory and delta-debug-shrunk to a minimal reproducer
/// that replays with `allocate_tool -l <artifact> --audit full`.

namespace lera::audit {

struct DiffFuzzOptions {
  /// Seed range [seed_begin, seed_end); each seed is one problem.
  std::uint64_t seed_begin = 1;
  std::uint64_t seed_end = 201;
  /// Where reproducers are written ("" = keep findings in memory only).
  std::string artifact_dir;
  /// Delta-debug failing instances down to minimal reproducers.
  bool shrink = true;
  /// Instance size caps (the differential value is in *coverage*, not
  /// in individual instance size; small instances keep the exhaustive
  /// ground truth in play).
  int max_vars = 9;
  int max_steps = 12;
  AuditOptions audit;
};

struct DiffFuzzFailure {
  std::uint64_t seed = 0;
  /// What went wrong, one line per independent check that failed.
  std::vector<std::string> diffs;
  /// Serialised artifact paths (empty when artifact_dir is unset).
  std::string artifact_path;
  std::string shrunk_path;
  int original_size = 0;
  int shrunk_size = 0;
};

struct DiffFuzzReport {
  int problems = 0;
  std::vector<DiffFuzzFailure> failures;
  bool clean() const { return failures.empty(); }
};

/// The deterministic per-seed instance (exposed so tests and the CI
/// driver agree on what a seed means).
alloc::AllocationProblem fuzz_problem(std::uint64_t seed,
                                      const DiffFuzzOptions& opts = {});

/// Runs the full differential check battery on one problem; returns one
/// line per failed check (empty = all solvers agree and audit clean).
std::vector<std::string> differential_check(
    const alloc::AllocationProblem& p, const AuditOptions& audit = {});

/// The fuzz loop: generate, check, capture, shrink.
DiffFuzzReport run_differential_fuzz(const DiffFuzzOptions& opts = {});

}  // namespace lera::audit
