#include <gtest/gtest.h>

#include "alloc/coloring.hpp"
#include "pipeline/global_alloc.hpp"
#include "sched/schedule.hpp"
#include "workloads/kernels.hpp"

namespace lera::pipeline {
namespace {

/// producer computes "mid" (live-out); consumer inputs "mid".
ir::TaskGraph two_stage_chain() {
  ir::TaskGraph tg;
  ir::BasicBlock producer("producer");
  {
    const ir::ValueId a = producer.input("a");
    const ir::ValueId b = producer.input("b");
    const ir::ValueId mid = producer.emit(ir::Opcode::kAdd, {a, b}, "mid");
    producer.output(mid);
  }
  ir::BasicBlock consumer("consumer");
  {
    const ir::ValueId mid = consumer.input("mid");
    const ir::ValueId c = consumer.input("c");
    const ir::ValueId out = consumer.emit(ir::Opcode::kMul, {mid, c}, "out");
    consumer.output(out);
  }
  const ir::TaskId p = tg.add_task("producer", std::move(producer));
  tg.add_task("consumer", std::move(consumer), {p});
  return tg;
}

TEST(GlobalAlloc, StitchesNamedValuesAcrossTasks) {
  const ir::TaskGraph tg = two_stage_chain();
  engine::EngineOptions opts;
  opts.num_registers = 4;
  const GlobalReport report = global_allocate(tg, opts);
  ASSERT_TRUE(report.feasible) << report.message;
  EXPECT_EQ(report.stitched_values, 1);

  // "mid" is one lifetime spanning both tasks.
  bool found = false;
  for (const lifetime::Lifetime& lt : report.problem.lifetimes) {
    if (lt.name == "mid") {
      found = true;
      EXPECT_FALSE(lt.live_out);
      // Written at the producer's step 1, read at the consumer's mul
      // (global step 2): one continuous lifetime, not two plus a
      // provisional end-of-block read.
      EXPECT_EQ(lt.write_time, 1);
      EXPECT_EQ(lt.last_read(), 2);
      EXPECT_EQ(lt.read_times.size(), 1u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(GlobalAlloc, IntermediateRidesARegisterAcrossTheBoundary) {
  const ir::TaskGraph tg = two_stage_chain();
  engine::EngineOptions opts;
  opts.num_registers = 4;

  const GlobalReport global = global_allocate(tg, opts);
  ASSERT_TRUE(global.feasible);
  // With 4 registers everything fits: no memory traffic at all, the
  // intermediate included.
  EXPECT_EQ(global.result.stats.mem_accesses(), 0);

  // Per-block allocation cannot express that: "mid" is charged its base
  // memory write+read as a live-out/live-in pair.
  const engine::PipelineReport per_block = engine::Engine(opts).run(tg);
  ASSERT_TRUE(per_block.all_feasible);
  EXPECT_LT(global.result.static_energy.total(),
            per_block.total_static_energy);
}

TEST(GlobalAlloc, TimelineConcatenatesSchedules) {
  const ir::TaskGraph tg = two_stage_chain();
  engine::EngineOptions opts;
  const GlobalReport report = global_allocate(tg, opts);
  ASSERT_TRUE(report.feasible);
  EXPECT_EQ(report.total_steps, 3);  // add (1 step) + mul (2 steps).
  EXPECT_EQ(report.problem.num_steps, 3);
}

TEST(GlobalAlloc, UnmatchedInputsStayIndependent) {
  ir::TaskGraph tg;
  ir::BasicBlock a("a");
  a.output(a.emit(ir::Opcode::kAdd, {a.input("x"), a.input("y")}, "u"));
  ir::BasicBlock b("b");
  b.output(b.emit(ir::Opcode::kAdd, {b.input("p"), b.input("q")}, "v"));
  const ir::TaskId ta = tg.add_task("a", std::move(a));
  tg.add_task("b", std::move(b), {ta});

  engine::EngineOptions opts;
  const GlobalReport report = global_allocate(tg, opts);
  ASSERT_TRUE(report.feasible);
  EXPECT_EQ(report.stitched_values, 0);
  EXPECT_EQ(report.problem.lifetimes.size(), 6u);  // x,y,u,p,q,v.
}

TEST(GlobalAlloc, ChainedKernelsStayValid) {
  ir::TaskGraph tg;
  const ir::TaskId f = tg.add_task("fir", workloads::make_fir(6));
  const ir::TaskId g =
      tg.add_task("biquad", workloads::make_iir_biquad(), {f});
  tg.add_task("detect", workloads::make_rsp(3), {g});

  engine::EngineOptions opts;
  opts.num_registers = 8;
  const GlobalReport report = global_allocate(tg, opts);
  ASSERT_TRUE(report.feasible) << report.message;
  EXPECT_TRUE(
      alloc::validate_assignment(report.problem, report.result.assignment)
          .empty());
  // Merged timeline is the sum of the individual schedules.
  EXPECT_GT(report.total_steps, 20);
}

TEST(GlobalAlloc, RestrictedAccessAppliesGlobally) {
  const ir::TaskGraph tg = two_stage_chain();
  engine::EngineOptions opts;
  opts.num_registers = 4;
  opts.split.access.period = 2;
  const GlobalReport report = global_allocate(tg, opts);
  ASSERT_TRUE(report.feasible) << report.message;
  bool any_forced = false;
  for (const auto& seg : report.problem.segments) {
    any_forced |= seg.forced_register;
  }
  EXPECT_TRUE(any_forced);
}

TEST(ColoringBaseline, SimultaneousBeatsColoring) {
  // The energy-blind priority-coloring baseline ([6,7]) never beats the
  // optimal flow under either model.
  for (const ir::BasicBlock& bb :
       {workloads::make_fir(8), workloads::make_elliptic_wave_filter(),
        workloads::make_rsp(4)}) {
    const sched::Schedule s = sched::list_schedule(bb, {2, 1});
    energy::EnergyParams params;
    params.register_model = energy::RegisterModel::kActivity;
    alloc::AllocationProblem p = alloc::make_problem_from_block(
        bb, s, 1, params, workloads::random_inputs(bb, 16, 9));
    p.num_registers = std::max(1, p.max_density() / 3);

    const alloc::AllocationResult flow = alloc::allocate(p);
    const alloc::AllocationResult coloring = alloc::coloring_allocate(p);
    ASSERT_TRUE(flow.feasible);
    ASSERT_TRUE(coloring.feasible) << coloring.message;
    EXPECT_TRUE(
        alloc::validate_assignment(p, coloring.assignment).empty());
    EXPECT_LE(flow.activity_energy.total(),
              coloring.activity_energy.total() + 1e-9)
        << bb.name();
    EXPECT_LE(flow.static_energy.total(),
              coloring.static_energy.total() + 1e-9)
        << bb.name();
  }
}

TEST(ColoringBaseline, PriorityVariantsDiffer) {
  const ir::BasicBlock bb = workloads::make_elliptic_wave_filter();
  const sched::Schedule s = sched::list_schedule(bb, {2, 1});
  energy::EnergyParams params;
  alloc::AllocationProblem p =
      alloc::make_problem_from_block(bb, s, 4, params);
  alloc::ColoringOptions by_count;
  alloc::ColoringOptions by_density;
  by_density.priority_per_step = true;
  const alloc::AllocationResult a = alloc::coloring_allocate(p, by_count);
  const alloc::AllocationResult b =
      alloc::coloring_allocate(p, by_density);
  ASSERT_TRUE(a.feasible && b.feasible);
  // Both valid; they need not agree, but both must respect R.
  EXPECT_LE(a.registers_used, p.num_registers);
  EXPECT_LE(b.registers_used, p.num_registers);
}

}  // namespace
}  // namespace lera::pipeline
