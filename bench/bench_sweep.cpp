// Experiment SWEEP (DESIGN.md): the paper's §7 claim that simultaneous
// memory partitioning + register allocation improves energy "1.4 to 2.5
// times" over the previous two-phase techniques. We sweep the DSP kernel
// suite and random DFGs across register budgets and report the
// improvement factor of the simultaneous flow over the two-phase [8]
// baseline under both energy models.

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "alloc/allocator.hpp"
#include "alloc/coloring.hpp"
#include "alloc/incremental.hpp"
#include "alloc/two_phase.hpp"
#include "engine/engine.hpp"
#include "report/table.hpp"
#include "sched/schedule.hpp"
#include "workloads/kernels.hpp"
#include "workloads/random_gen.hpp"

using namespace lera;

namespace {

struct Sample {
  std::string name;
  int registers;
  double static_improvement = 0;
  double activity_improvement = 0;
  double coloring_improvement = 0;
};

/// Best-of-3 wall time for solving \p problems on \p threads threads
/// through the engine, in milliseconds.
double time_batch_ms(const std::vector<alloc::AllocationProblem>& problems,
                     int threads,
                     audit::AuditLevel audit = audit::AuditLevel::kOff,
                     double task_deadline_seconds = 0) {
  lera::engine::EngineOptions eopts;
  eopts.threads = threads;
  eopts.audit_level = audit;
  eopts.task_deadline_seconds = task_deadline_seconds;
  const lera::engine::Engine engine(eopts);
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto results = engine.allocate_batch(problems);
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (rep == 0 || ms < best) best = ms;
    if (results.size() != problems.size()) std::abort();
  }
  return best;
}

Sample measure(const std::string& name, const alloc::AllocationProblem& p) {
  Sample s;
  s.name = name;
  s.registers = p.num_registers;
  const alloc::AllocationResult ours = alloc::allocate(p);
  const alloc::AllocationResult baseline = alloc::two_phase_allocate(p);
  const alloc::AllocationResult coloring = alloc::coloring_allocate(p);
  if (ours.feasible && baseline.feasible) {
    s.static_improvement =
        baseline.static_energy.total() / ours.static_energy.total();
    s.activity_improvement =
        baseline.activity_energy.total() / ours.activity_energy.total();
  }
  if (ours.feasible && coloring.feasible) {
    s.coloring_improvement =
        coloring.activity_energy.total() / ours.activity_energy.total();
  }
  return s;
}

}  // namespace

int main() {
  std::cout << "=== SWEEP: simultaneous vs two-phase across workloads ===\n";
  std::cout << "[paper: improvements of 1.4x to 2.5x over previous "
               "research]\n\n";

  std::vector<Sample> samples;
  // Every measured instance also joins the parallel-speedup batch below.
  std::vector<alloc::AllocationProblem> batch;

  const std::vector<ir::BasicBlock> kernels = {
      workloads::make_fir(8),
      workloads::make_iir_biquad(),
      workloads::make_elliptic_wave_filter(),
      workloads::make_fft_butterfly(),
      workloads::make_fft(8),
      workloads::make_dct4(),
      workloads::make_matmul(3),
      workloads::make_conv3x3(),
      workloads::make_lattice(4),
      workloads::make_rsp(4),
  };
  for (const ir::BasicBlock& bb : kernels) {
    const sched::Schedule sched = sched::list_schedule(bb, {2, 1});
    const auto inputs = workloads::random_inputs(bb, 48, 7);
    energy::EnergyParams params;
    params.register_model = energy::RegisterModel::kActivity;
    const alloc::AllocationProblem probe = alloc::make_problem_from_block(
        bb, sched, 1, params, inputs);
    const int peak = probe.max_density();
    for (int r : {peak / 4, peak / 2}) {
      if (r < 1) continue;
      alloc::AllocationProblem p = probe;
      p.num_registers = r;
      samples.push_back(measure(bb.name(), p));
      batch.push_back(std::move(p));
    }
  }

  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    workloads::RandomDfgOptions dopts;
    dopts.num_ops = 30;
    const ir::BasicBlock bb = workloads::random_dfg(seed, dopts);
    const sched::Schedule sched = sched::list_schedule(bb, {2, 1});
    energy::EnergyParams params;
    params.register_model = energy::RegisterModel::kActivity;
    const alloc::AllocationProblem probe = alloc::make_problem_from_block(
        bb, sched, 1, params, workloads::random_inputs(bb, 48, seed));
    alloc::AllocationProblem p = probe;
    p.num_registers = std::max(1, probe.max_density() / 3);
    samples.push_back(measure(bb.name(), p));
    batch.push_back(std::move(p));
  }

  report::Table table({"workload", "R", "improvement E(static)",
                       "improvement E(activity)", "vs coloring [6,7]"});
  double log_static = 0;
  double log_activity = 0;
  double log_coloring = 0;
  int n = 0;
  int n_coloring = 0;
  for (const Sample& s : samples) {
    if (s.static_improvement <= 0) continue;
    table.add_row({s.name, report::Table::num(s.registers),
                   report::Table::num(s.static_improvement),
                   report::Table::num(s.activity_improvement),
                   s.coloring_improvement > 0
                       ? report::Table::num(s.coloring_improvement)
                       : "-"});
    log_static += std::log(s.static_improvement);
    log_activity += std::log(s.activity_improvement);
    ++n;
    if (s.coloring_improvement > 0) {
      log_coloring += std::log(s.coloring_improvement);
      ++n_coloring;
    }
  }
  table.print(std::cout);
  if (n > 0) {
    std::cout << "geometric mean improvement: static "
              << report::Table::num(std::exp(log_static / n)) << "x, activity "
              << report::Table::num(std::exp(log_activity / n))
              << "x   [paper: 1.4x - 2.5x]\n";
    if (n_coloring > 0) {
      std::cout << "vs performance-oriented coloring [6,7]: "
                << report::Table::num(std::exp(log_coloring / n_coloring))
                << "x geomean\n";
    }
  }

  // Parallel engine: the same batch of independent solves, single-thread
  // vs multi-thread, plus a machine-readable line so the speedup
  // trajectory can be tracked across PRs.
  const int threads = 4;
  const double t1_ms = time_batch_ms(batch, 1);
  const double tn_ms = time_batch_ms(batch, threads);
  const double speedup = tn_ms > 0 ? t1_ms / tn_ms : 0;
  std::cout << "\n=== parallel engine: " << batch.size()
            << " batched solves ===\n"
            << "1 thread:  " << report::Table::num(t1_ms) << " ms\n"
            << threads << " threads: " << report::Table::num(tn_ms)
            << " ms  (speedup " << report::Table::num(speedup) << "x, "
            << std::thread::hardware_concurrency() << " hardware threads)\n";
  std::cout << "LERA_METRIC bench=sweep metric=parallel_speedup threads="
            << threads << " batch=" << batch.size() << " t1_ms=" << t1_ms
            << " tn_ms=" << tn_ms << " speedup=" << speedup << "\n";

  // Audit overhead: the same batch with the full-cost independent audit
  // on every result vs audit off. The audit re-derives legality and the
  // complete energy accounting per solve, so this prices the "trust but
  // verify" mode for production batches.
  const double off_ms = time_batch_ms(batch, threads);
  const double full_ms =
      time_batch_ms(batch, threads, audit::AuditLevel::kFullCost);
  const double overhead = off_ms > 0 ? full_ms / off_ms : 0;
  std::cout << "\n=== audit overhead: full-cost audit vs off ===\n"
            << "audit off:  " << report::Table::num(off_ms) << " ms\n"
            << "audit full: " << report::Table::num(full_ms) << " ms  ("
            << report::Table::num(overhead) << "x)\n";
  std::cout << "LERA_METRIC bench=sweep metric=audit_overhead threads="
            << threads << " batch=" << batch.size() << " off_ms=" << off_ms
            << " full_ms=" << full_ms << " overhead=" << overhead << "\n";

  // Deadline supervision overhead: the same batch with a generous
  // per-solve deadline (nothing actually times out) vs none. This
  // prices the supervision machinery itself — deadline arithmetic plus
  // the guards' adaptive clock polling — which should stay within noise
  // of the unsupervised run.
  const double plain_ms = time_batch_ms(batch, threads);
  const double deadline_ms =
      time_batch_ms(batch, threads, audit::AuditLevel::kOff, 60.0);
  const double deadline_overhead = plain_ms > 0 ? deadline_ms / plain_ms : 0;
  std::cout << "\n=== deadline overhead: 60 s per-solve deadline vs none ===\n"
            << "no deadline:   " << report::Table::num(plain_ms) << " ms\n"
            << "with deadline: " << report::Table::num(deadline_ms)
            << " ms  (" << report::Table::num(deadline_overhead) << "x)\n";
  std::cout << "LERA_METRIC bench=sweep metric=deadline_overhead threads="
            << threads << " batch=" << batch.size()
            << " plain_ms=" << plain_ms << " deadline_ms=" << deadline_ms
            << " overhead=" << deadline_overhead << "\n";

  // Incremental repair: an editing client's stream — 8 edits of a
  // 256-variable block, each shifting one lifetime a step later — solved
  // by IncrementalAllocator (repaired from the previous optimum and
  // certified) vs a cold certified allocate() per edit. The block has
  // perfbench compile-large's shape (steps = vars/2, R = vars/8). Every
  // edit's objective must agree exactly; repairs is how many edits a
  // certified repair answered.
  {
    workloads::RandomLifetimeOptions lopts;
    lopts.num_vars = 256;
    lopts.num_steps = lopts.num_vars / 2;
    const int registers = lopts.num_vars / 8;
    std::vector<lifetime::Lifetime> lts =
        workloads::random_lifetimes(11, lopts);
    for (std::size_t v = 0; v < lts.size(); ++v) {
      lts[v].name = "v" + std::to_string(v);  // Matched by name.
    }
    constexpr int kEdits = 8;
    std::vector<alloc::AllocationProblem> stream;
    for (int edit = 0; edit <= kEdits; ++edit) {
      if (edit > 0) {
        lifetime::Lifetime& lt =
            lts[static_cast<std::size_t>(edit) * 37 % lts.size()];
        if (lt.read_times.back() < lopts.num_steps) {
          lt.write_time += 1;
          for (int& r : lt.read_times) r += 1;
        }
      }
      stream.push_back(alloc::make_problem(
          lts, lopts.num_steps, registers, energy::EnergyParams{},
          energy::ActivityMatrix(lts.size())));
    }
    alloc::AllocatorOptions certified;
    certified.certify = true;
    double cold_ms = 0;
    double repair_ms = 0;
    std::int64_t repairs = 0;
    for (int rep = 0; rep < 3; ++rep) {
      alloc::IncrementalAllocator inc(certified);
      inc.solve(stream.front());  // The baseline; not timed.
      double cold = 0;
      double repair = 0;
      for (std::size_t i = 1; i < stream.size(); ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        const alloc::AllocationResult r = inc.solve(stream[i]);
        const auto t1 = std::chrono::steady_clock::now();
        const alloc::AllocationResult c = alloc::allocate(stream[i], certified);
        const auto t2 = std::chrono::steady_clock::now();
        repair += std::chrono::duration<double, std::milli>(t1 - t0).count();
        cold += std::chrono::duration<double, std::milli>(t2 - t1).count();
        if (!r.feasible || !c.feasible || r.flow_cost != c.flow_cost) {
          std::cerr << "incremental repair diverged from the cold solve at "
                       "edit "
                    << i << "\n";
          std::abort();
        }
      }
      if (rep == 0 || cold < cold_ms) cold_ms = cold;
      if (rep == 0 || repair < repair_ms) repair_ms = repair;
      repairs = inc.stats().repairs_succeeded;
    }
    cold_ms /= kEdits;
    repair_ms /= kEdits;
    const double repair_speedup = repair_ms > 0 ? cold_ms / repair_ms : 0;
    std::cout << "\n=== incremental repair: " << kEdits
              << " shifted-lifetime edits of a " << lopts.num_vars
              << "-variable block ===\n"
              << "cold:   " << report::Table::num(cold_ms) << " ms per edit\n"
              << "repair: " << report::Table::num(repair_ms)
              << " ms per edit  (" << report::Table::num(repair_speedup)
              << "x, " << repairs << " certified repairs)\n";
    std::cout << "LERA_METRIC bench=sweep metric=incremental_repair threads=1"
              << " vars=" << lopts.num_vars << " edits=" << kEdits
              << " cold_ms=" << cold_ms << " repair_ms=" << repair_ms
              << " repairs=" << repairs << " speedup=" << repair_speedup
              << "\n";
  }
  return 0;
}
