#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "alloc/allocator.hpp"
#include "inputs.hpp"

/// \file expected.hpp
/// Expected objectives: the answer every run compares each result with.
/// They are produced once, by an oracle run that cross-checks the
/// default solve path against independent ones, and filed by the input's
/// content key so a run can look them up without re-deriving anything.

namespace perfbench {

struct Expected {
  std::int64_t flow_cost = 0;  ///< Optimal quantised flow cost.
  double energy = 0;           ///< Energy under the problem's model.
  double layout_energy = 0;    ///< Relayout energy (pipeline-kernels only).
};

using ExpectedMap = std::unordered_map<std::uint64_t, Expected>;

/// Reads `<key-hex> <flow_cost> <energy> <layout_energy> [label...]`
/// lines ('#' starts a comment) into \p out. False with \p error set on
/// an unreadable file or a malformed line.
bool read_expected(const std::string& path, ExpectedMap& out,
                   std::string& error);

/// One input the oracle must have an objective for.
struct OracleItem {
  std::uint64_t key = 0;
  std::string label;
  lera::alloc::AllocationProblem problem;
  lera::alloc::AllocatorOptions options;
  bool layout = false;  ///< Also derive the memory relayout energy.
};

/// Every distinct input of a run of \p w with \p seed and \p seconds
/// (duplicates by key removed), solved the way the workload solves it.
std::vector<OracleItem> oracle_items(Workload w, std::uint64_t seed,
                                     double seconds);

/// Solves \p item on the default path and cross-checks the objective:
/// network simplex on the same flow graph must reach the same cost, the
/// exhaustive optimum must agree where it applies (at most 14 segments;
/// static model or one register), and audit::audit_result at full cost
/// must be clean. Returns nullopt with \p error set on any disagreement.
std::optional<Expected> compute_expected(const OracleItem& item,
                                         std::string& error);

void write_expected_line(std::ostream& os, const OracleItem& item,
                         const Expected& e);

/// Same objective? Flow costs exactly; energies to a relative 1e-9.
bool matches(const Expected& want, std::int64_t flow_cost, double energy);

}  // namespace perfbench
