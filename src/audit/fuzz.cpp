#include "audit/fuzz.hpp"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

#include "alloc/exhaustive.hpp"
#include "alloc/two_phase.hpp"
#include "workloads/problem_io.hpp"
#include "workloads/random_gen.hpp"

namespace lera::audit {

namespace {

using alloc::AllocationProblem;
using alloc::AllocationResult;

bool has_forced(const AllocationProblem& p) {
  for (const lifetime::Segment& s : p.segments) {
    if (s.forced_register) return true;
  }
  return false;
}

bool has_forbidden(const AllocationProblem& p) {
  for (const lifetime::Segment& s : p.segments) {
    if (s.forbidden_register) return true;
  }
  return false;
}

bool exhaustive_in_reach(const AllocationProblem& p,
                         const AuditOptions& audit) {
  return static_cast<int>(p.segments.size()) <=
             audit.exhaustive_max_segments &&
         (p.params.register_model == energy::RegisterModel::kStatic ||
          p.num_registers <= 1) &&
         !has_forbidden(p);
}

std::string num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

}  // namespace

AllocationProblem fuzz_problem(std::uint64_t seed,
                               const DiffFuzzOptions& opts) {
  // Shape parameters come from their own stream so they never correlate
  // with the lifetime generator's draws.
  std::mt19937_64 shape(seed * 0x9e3779b97f4a7c15ull + 1);
  workloads::RandomLifetimeOptions lopts;
  lopts.num_vars =
      2 + static_cast<int>(shape() % static_cast<std::uint64_t>(
                                         std::max(1, opts.max_vars - 1)));
  lopts.num_steps =
      4 + static_cast<int>(shape() % static_cast<std::uint64_t>(
                                         std::max(1, opts.max_steps - 3)));
  lopts.max_reads = 1 + static_cast<int>(shape() % 2);
  lopts.live_out_prob = 0.2;

  energy::EnergyParams params;
  params.register_model = shape() % 2 == 0
                              ? energy::RegisterModel::kStatic
                              : energy::RegisterModel::kActivity;
  lifetime::SplitOptions split;
  split.access.period = shape() % 3 == 0 ? 2 : 1;
  if (split.access.period > 1) {
    split.access.phase =
        static_cast<int>(shape() % static_cast<std::uint64_t>(
                                       split.access.period));
  }

  std::vector<lifetime::Lifetime> lifetimes =
      workloads::random_lifetimes(seed, lopts);
  const std::size_t n = lifetimes.size();
  AllocationProblem p = alloc::make_problem(
      std::move(lifetimes), lopts.num_steps, 1, params,
      workloads::random_activity(seed + 1, n), split);
  // Register budget relative to the instance's actual pressure, from
  // starved to roomy.
  const int peak = std::max(1, p.max_density());
  p.num_registers =
      1 + static_cast<int>(shape() % static_cast<std::uint64_t>(peak + 1));
  return p;
}

std::vector<std::string> differential_check(const AllocationProblem& p,
                                            const AuditOptions& audit) {
  std::vector<std::string> diffs;
  auto fail = [&](std::string line) { diffs.push_back(std::move(line)); };

  // LERA, the paper's simultaneous allocator. kAllPairs keeps the
  // search space identical to the two-phase baseline's phase 1, so the
  // energies below are directly comparable.
  alloc::AllocatorOptions flow_opts;
  flow_opts.style = alloc::GraphStyle::kAllPairs;
  flow_opts.certify = true;
  const AllocationResult flow = alloc::allocate(p, flow_opts);

  const AuditReport flow_audit = audit_result(p, flow, audit);
  for (const AuditFinding& f : flow_audit.findings) {
    fail("flow: " + f.to_string());
  }

  // The sparse hub encoding against the paper's dense graph in the same
  // style: they must agree on feasibility and, bit for bit, on the
  // optimal flow cost.
  if (p.verify().empty() &&
      alloc::uses_sparse_encoding(p, flow_opts.quantizer)) {
    const AllocationResult dense = alloc::allocate_with_spec(
        p,
        alloc::build_dense_flow_graph(p, flow_opts.style,
                                      flow_opts.quantizer),
        flow_opts);
    if (dense.feasible != flow.feasible) {
      fail(std::string("differential: sparse graph ") +
           (flow.feasible ? "feasible" : "infeasible") + ", dense graph " +
           (dense.feasible ? "feasible" : "infeasible"));
    } else if (flow.feasible && dense.flow_cost != flow.flow_cost) {
      fail("differential: sparse flow cost " + std::to_string(flow.flow_cost) +
           " != dense flow cost " + std::to_string(dense.flow_cost));
    }
  }

  // The two-phase baseline [8] (legal but not optimal). Its phase 2
  // ignores §5.2 pins, so only unforced instances are in its domain.
  if (!has_forced(p)) {
    const AllocationResult two = alloc::two_phase_allocate(p);
    if (two.feasible) {
      AuditOptions baseline_audit = audit;
      baseline_audit.check_optimality = false;
      const AuditReport rep = audit_result(p, two, baseline_audit);
      for (const AuditFinding& f : rep.findings) {
        fail("two-phase: " + f.to_string());
      }
      if (flow.feasible) {
        const double ours = flow.energy(p);
        const double theirs = two.energy(p);
        if (ours > theirs + 1e-6 * std::max(1.0, std::abs(theirs))) {
          fail("differential: flow energy " + num(ours) +
               " exceeds two-phase baseline " + num(theirs));
        }
      }
    }
  }

  // Exhaustive ground truth on small instances: the flow optimum must
  // match it exactly (above = not optimal, below = illegal/mispriced).
  if (flow.feasible && exhaustive_in_reach(p, audit)) {
    const auto truth =
        alloc::exhaustive_allocate(p, p.params.register_model);
    if (!truth.has_value()) {
      fail("differential: flow feasible but exhaustive found no valid "
           "assignment");
    } else {
      const double ours = flow.energy(p);
      if (std::abs(ours - truth->energy) >
          1e-3 + 1e-6 * std::abs(truth->energy)) {
        fail("differential: flow energy " + num(ours) +
             " != exhaustive optimum " + num(truth->energy));
      }
    }
  }
  return diffs;
}

DiffFuzzReport run_differential_fuzz(const DiffFuzzOptions& opts) {
  DiffFuzzReport report;
  const bool capture = !opts.artifact_dir.empty();
  if (capture) {
    std::filesystem::create_directories(opts.artifact_dir);
  }

  for (std::uint64_t seed = opts.seed_begin; seed < opts.seed_end; ++seed) {
    const AllocationProblem p = fuzz_problem(seed, opts);
    ++report.problems;
    std::vector<std::string> diffs = differential_check(p, opts.audit);
    if (diffs.empty()) continue;

    DiffFuzzFailure failure;
    failure.seed = seed;
    failure.diffs = std::move(diffs);
    failure.original_size = problem_size(p);
    failure.shrunk_size = failure.original_size;

    AllocationProblem minimal = p;
    if (opts.shrink) {
      const ShrinkResult shrunk = shrink_problem(
          p, [&](const AllocationProblem& candidate) {
            return !differential_check(candidate, opts.audit).empty();
          });
      minimal = shrunk.problem;
      failure.shrunk_size = shrunk.shrunk_size;
    }

    if (capture) {
      auto write_artifact = [&](const std::string& path,
                                const AllocationProblem& instance,
                                const std::vector<std::string>& lines) {
        std::ofstream out(path);
        out << "# lera differential-fuzz reproducer\n"
            << "# seed " << seed << "\n"
            << "# replay: allocate_tool -l " << path << " --audit full\n";
        for (const std::string& line : lines) {
          out << "# check failed: " << line << "\n";
        }
        workloads::write_problem(out, instance);
      };
      failure.artifact_path = opts.artifact_dir + "/repro_seed" +
                              std::to_string(seed) + ".lt";
      write_artifact(failure.artifact_path, p, failure.diffs);
      if (opts.shrink) {
        failure.shrunk_path = opts.artifact_dir + "/repro_seed" +
                              std::to_string(seed) + ".min.lt";
        write_artifact(failure.shrunk_path, minimal,
                       differential_check(minimal, opts.audit));
      }
    }
    report.failures.push_back(std::move(failure));
  }
  return report;
}

}  // namespace lera::audit
