#include <gtest/gtest.h>

#include "alloc/allocator.hpp"
#include "alloc/banking.hpp"
#include "alloc/coloring.hpp"
#include "alloc/memory_layout.hpp"
#include "alloc/offset_assignment.hpp"
#include "alloc/two_phase.hpp"
#include "engine/engine.hpp"
#include "report/ascii_chart.hpp"
#include "sched/schedule.hpp"

#include <sstream>

/// Degenerate and boundary inputs: empty problems, empty blocks,
/// single-variable blocks, zero registers. Nothing here should crash
/// or produce an invalid result.

namespace lera::alloc {
namespace {

AllocationProblem empty_problem() {
  energy::EnergyParams params;
  return make_problem({}, 0, 2, params, energy::ActivityMatrix(0));
}

TEST(Degenerate, EmptyProblemAllocates) {
  const AllocationProblem p = empty_problem();
  const AllocationResult r = allocate(p);
  ASSERT_TRUE(r.feasible) << r.message;
  EXPECT_EQ(r.stats.mem_accesses(), 0);
  EXPECT_EQ(r.stats.reg_accesses(), 0);
  EXPECT_DOUBLE_EQ(r.static_energy.total(), 0);
}

TEST(Degenerate, EmptyProblemBaselinesAndStages) {
  const AllocationProblem p = empty_problem();
  EXPECT_TRUE(two_phase_allocate(p).feasible);
  EXPECT_TRUE(coloring_allocate(p).feasible);
  const Assignment a(0);
  EXPECT_TRUE(optimize_memory_layout(p, a).feasible);
  EXPECT_TRUE(assign_offsets(p, a, {}).feasible);
  EXPECT_TRUE(assign_banks(p, a, {}, 2).feasible);
}

TEST(Degenerate, EmptyBlockThroughThePipeline) {
  ir::BasicBlock bb("empty");
  EXPECT_TRUE(bb.verify().empty());
  const sched::Schedule s = sched::list_schedule(bb, {2, 1});
  EXPECT_EQ(s.length(bb), 0);
  energy::EnergyParams params;
  const AllocationProblem p = make_problem_from_block(bb, s, 3, params);
  EXPECT_TRUE(p.lifetimes.empty());
  EXPECT_TRUE(allocate(p).feasible);

  ir::TaskGraph app;
  app.add_task("empty", bb);
  const engine::PipelineReport report = engine::Engine().run(app);
  ASSERT_EQ(report.tasks.size(), 1u);
  EXPECT_TRUE(report.all_feasible) << report.tasks[0].failure_reason;
}

TEST(Degenerate, InputOnlyBlock) {
  // A block that only forwards a value: input -> output.
  ir::BasicBlock bb("forward");
  const ir::ValueId x = bb.input("x");
  bb.output(x);
  const sched::Schedule s = sched::asap(bb);
  energy::EnergyParams params;
  const AllocationProblem p = make_problem_from_block(bb, s, 1, params);
  ASSERT_EQ(p.lifetimes.size(), 1u);
  EXPECT_EQ(p.lifetimes[0].write_time, 0);
  EXPECT_TRUE(p.lifetimes[0].live_out);
  const AllocationResult r = allocate(p);
  ASSERT_TRUE(r.feasible);
}

TEST(Degenerate, DrawingEmptyProblemsIsSafe) {
  const AllocationProblem p = empty_problem();
  std::ostringstream os;
  report::draw_lifetimes(os, p);
  EXPECT_FALSE(os.str().empty());
}

TEST(Degenerate, ZeroStepProblemWithLiveInOut) {
  // A value that is live-in and live-out of a block with no real ops.
  lifetime::Lifetime lt;
  lt.value = 0;
  lt.name = "pass";
  lt.write_time = 0;
  lt.read_times = {1};  // x + 1 with x = 0.
  lt.live_out = true;
  energy::EnergyParams params;
  const AllocationProblem p =
      make_problem({lt}, 0, 1, params, energy::ActivityMatrix(1));
  const AllocationResult r = allocate(p);
  ASSERT_TRUE(r.feasible) << r.message;
  EXPECT_TRUE(validate_assignment(p, r.assignment).empty());
}

}  // namespace
}  // namespace lera::alloc
