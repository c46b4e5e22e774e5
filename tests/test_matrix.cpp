#include <gtest/gtest.h>

#include <tuple>

#include "alloc/allocator.hpp"
#include "energy/voltage.hpp"
#include "sched/schedule.hpp"
#include "workloads/kernels.hpp"

/// Cross-configuration matrix: every solver x graph style x register
/// model x memory-access period must produce a feasible, structurally
/// valid, model-consistent allocation on a representative kernel, and
/// all solvers must agree on the optimal objective for each remaining
/// configuration.

namespace lera::alloc {
namespace {

using Config = std::tuple<netflow::SolverKind, GraphStyle,
                          energy::RegisterModel, int /*access period*/>;

class MatrixTest : public ::testing::TestWithParam<Config> {};

TEST_P(MatrixTest, EllipticWaveFilterEndToEnd) {
  const auto [solver, style, model, period] = GetParam();

  const ir::BasicBlock bb = workloads::make_elliptic_wave_filter();
  const sched::Schedule s = sched::list_schedule(bb, {2, 1});
  energy::EnergyParams params;
  params.register_model = model;
  if (period > 1) {
    params.v_mem = energy::voltage_for_slowdown(period);
  }
  lifetime::SplitOptions split;
  split.access.period = period;

  AllocationProblem p = make_problem_from_block(
      bb, s, 1, params, workloads::random_inputs(bb, 16, 5), split);
  p.num_registers = std::max(2, p.max_density() / 2);

  AllocatorOptions opts;
  opts.solver = solver;
  opts.style = style;
  opts.certify = true;
  const AllocationResult r = allocate(p, opts);
  ASSERT_TRUE(r.feasible) << r.message;
  EXPECT_TRUE(validate_assignment(p, r.assignment).empty())
      << validate_assignment(p, r.assignment);

  const double replayed = r.energy(p);
  EXPECT_NEAR(r.model_energy, replayed, 1e-3 + 1e-9 * std::abs(replayed));

  // Reference objective from the default solver must agree.
  AllocatorOptions ref = opts;
  ref.solver = netflow::SolverKind::kSuccessiveShortestPaths;
  const AllocationResult reference = allocate(p, ref);
  ASSERT_TRUE(reference.feasible);
  EXPECT_NEAR(r.model_energy, reference.model_energy, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, MatrixTest,
    ::testing::Combine(
        ::testing::Values(netflow::SolverKind::kSuccessiveShortestPaths,
                          netflow::SolverKind::kNetworkSimplex),
        ::testing::Values(GraphStyle::kDensityRegions,
                          GraphStyle::kAllPairs),
        ::testing::Values(energy::RegisterModel::kStatic,
                          energy::RegisterModel::kActivity),
        ::testing::Values(1, 2, 3)),
    [](const ::testing::TestParamInfo<Config>& info) {
      std::string name;
      switch (std::get<0>(info.param)) {
        case netflow::SolverKind::kSuccessiveShortestPaths:
          name += "Ssp";
          break;
        case netflow::SolverKind::kNetworkSimplex:
          name += "NetSimplex";
          break;
        default:
          name += "Other";
          break;
      }
      name += std::get<1>(info.param) == GraphStyle::kDensityRegions
                  ? "Density"
                  : "AllPairs";
      name += std::get<2>(info.param) == energy::RegisterModel::kStatic
                  ? "Static"
                  : "Activity";
      name += "Period" + std::to_string(std::get<3>(info.param));
      return name;
    });

}  // namespace
}  // namespace lera::alloc
