#include <gtest/gtest.h>

#include "engine/engine.hpp"
#include "workloads/kernels.hpp"

namespace lera::engine {
namespace {

ir::TaskGraph radar_app() {
  ir::TaskGraph tg;
  const ir::TaskId filter = tg.add_task("filter", workloads::make_fir(6));
  const ir::TaskId mix =
      tg.add_task("mix", workloads::make_fft_butterfly(), {filter});
  tg.add_task("detect", workloads::make_rsp(3), {mix});
  return tg;
}

TEST(Pipeline, RunsAllTasks) {
  const ir::TaskGraph tg = radar_app();
  EngineOptions opts;
  opts.num_registers = 6;
  const PipelineReport report = Engine(opts).run(tg);
  ASSERT_EQ(report.tasks.size(), 3u);
  EXPECT_TRUE(report.all_feasible);
  for (const TaskReport& tr : report.tasks) {
    EXPECT_TRUE(tr.result.feasible) << tr.name << ": " << tr.result.message;
    EXPECT_GT(tr.schedule_length, 0);
    EXPECT_GT(tr.max_density, 0);
  }
  EXPECT_EQ(report.tasks[0].name, "filter");
  EXPECT_EQ(report.tasks[2].name, "detect");
}

TEST(Pipeline, AggregatesMatchPerTaskNumbers) {
  const ir::TaskGraph tg = radar_app();
  EngineOptions opts;
  opts.num_registers = 4;
  const PipelineReport report = Engine(opts).run(tg);
  ASSERT_TRUE(report.all_feasible);
  double stat = 0;
  double act = 0;
  int mem = 0;
  int reg = 0;
  int peak_locs = 0;
  for (const TaskReport& tr : report.tasks) {
    stat += tr.result.static_energy.total();
    act += tr.result.activity_energy.total();
    mem += tr.result.stats.mem_accesses();
    reg += tr.result.stats.reg_accesses();
    peak_locs = std::max(peak_locs, tr.result.stats.mem_locations);
  }
  EXPECT_DOUBLE_EQ(report.total_static_energy, stat);
  EXPECT_DOUBLE_EQ(report.total_activity_energy, act);
  EXPECT_EQ(report.total_mem_accesses, mem);
  EXPECT_EQ(report.total_reg_accesses, reg);
  EXPECT_EQ(report.peak_mem_locations, peak_locs);
}

TEST(Pipeline, MemoryRelayoutOptional) {
  const ir::TaskGraph tg = radar_app();
  EngineOptions with;
  with.num_registers = 2;  // Keep some traffic in memory.
  with.relayout_memory = true;
  EngineOptions without = with;
  without.relayout_memory = false;

  const PipelineReport a = Engine(with).run(tg);
  const PipelineReport b = Engine(without).run(tg);
  ASSERT_TRUE(a.all_feasible && b.all_feasible);
  bool any_layout = false;
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    if (a.tasks[i].result.stats.mem_locations > 0) {
      EXPECT_TRUE(a.tasks[i].layout.feasible);
      EXPECT_LE(a.tasks[i].layout.optimized_activity,
                a.tasks[i].layout.naive_activity + 1e-9);
      any_layout = true;
    }
    EXPECT_FALSE(b.tasks[i].layout.feasible &&
                 b.tasks[i].layout.locations > 0);
  }
  EXPECT_TRUE(any_layout);
}

TEST(Pipeline, MoreRegistersReduceMemoryTraffic) {
  const ir::TaskGraph tg = radar_app();
  EngineOptions small;
  small.num_registers = 1;
  EngineOptions large;
  large.num_registers = 12;
  const PipelineReport rs = Engine(small).run(tg);
  const PipelineReport rl = Engine(large).run(tg);
  ASSERT_TRUE(rs.all_feasible && rl.all_feasible);
  EXPECT_LT(rl.total_mem_accesses, rs.total_mem_accesses);
  EXPECT_LE(rl.total_static_energy, rs.total_static_energy);
}

TEST(Pipeline, RestrictedMemorySupported) {
  const ir::TaskGraph tg = radar_app();
  EngineOptions opts;
  opts.num_registers = 10;
  opts.split.access.period = 2;
  opts.params.v_mem = 3.0;
  const PipelineReport report = Engine(opts).run(tg);
  EXPECT_TRUE(report.all_feasible);
  for (const TaskReport& tr : report.tasks) {
    EXPECT_TRUE(tr.result.feasible) << tr.name;
  }
}

TEST(Pipeline, DefaultActivityWhenNoTrace) {
  const ir::TaskGraph tg = radar_app();
  EngineOptions opts;
  opts.trace_samples = 0;
  const PipelineReport report = Engine(opts).run(tg);
  EXPECT_TRUE(report.all_feasible);
}

}  // namespace
}  // namespace lera::engine
