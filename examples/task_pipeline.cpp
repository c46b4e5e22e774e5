// Whole-application storage optimisation (paper §5 methodology).
//
// A small radar application as a task flow graph — front-end filter,
// spectral mixing, detection — pushed through the complete pipeline:
// per-task list scheduling, trace-measured switching activities, the
// simultaneous min-cost-flow allocation, and the second-stage memory
// re-layout. The report aggregates storage energy across the whole
// application and sizes the memory/ports for the worst task.
//
// Build & run:  ./build/examples/task_pipeline

#include <iostream>

#include "engine/engine.hpp"
#include "report/table.hpp"
#include "workloads/kernels.hpp"

int main() {
  using namespace lera;

  ir::TaskGraph app;
  const ir::TaskId fe = app.add_task("front_end_fir", workloads::make_fir(8));
  const ir::TaskId eq =
      app.add_task("equalise_iir", workloads::make_iir_biquad(), {fe});
  const ir::TaskId mix =
      app.add_task("mix_butterfly", workloads::make_fft_butterfly(), {eq});
  app.add_task("detect_rsp", workloads::make_rsp(4), {mix});

  engine::EngineOptions opts;
  opts.resources = {2, 1};
  opts.num_registers = 6;
  opts.params.register_model = energy::RegisterModel::kActivity;

  const engine::PipelineReport report = engine::Engine(opts).run(app);

  report::Table table({"task", "steps", "peak density", "mem/reg accesses",
                       "mem locs", "addr switching (opt/naive)",
                       "E static", "E activity"});
  for (const engine::TaskReport& tr : report.tasks) {
    if (!tr.result.feasible) {
      table.add_row({tr.name, "-", "-", "infeasible: " + tr.result.message});
      continue;
    }
    table.add_row(
        {tr.name, report::Table::num(tr.schedule_length),
         report::Table::num(tr.max_density),
         report::Table::num(tr.result.stats.mem_accesses()) + "/" +
             report::Table::num(tr.result.stats.reg_accesses()),
         report::Table::num(tr.result.stats.mem_locations),
         report::Table::num(tr.layout.optimized_activity) + "/" +
             report::Table::num(tr.layout.naive_activity),
         report::Table::num(tr.result.static_energy.total()),
         report::Table::num(tr.result.activity_energy.total())});
  }
  table.print(std::cout);

  std::cout << "\napplication totals: "
            << report.total_mem_accesses << " memory accesses, "
            << report.total_reg_accesses << " register accesses\n"
            << "memory image: " << report.peak_mem_locations
            << " words; ports needed: " << report.peak_mem_read_ports
            << "R/" << report.peak_mem_write_ports << "W\n"
            << "storage energy: "
            << report::Table::num(report.total_static_energy)
            << " (static) / "
            << report::Table::num(report.total_activity_energy)
            << " (activity) add-units\n";
  return report.all_feasible ? 0 : 1;
}
