// Experiment SCALE (DESIGN.md): the paper's polynomial-time claim
// ("globally optimal solution ... in polynomial time using very
// efficient algorithms"). Google-benchmark sweep of the full allocation
// pipeline (graph construction + min-cost flow + extraction) over
// growing random lifetime sets, on the dense graph (activity model, or
// forced) and on the sparse hub graph (static model); complexity is
// reported against the instance's variable count.

#include <benchmark/benchmark.h>

#include "alloc/allocator.hpp"
#include "engine/engine.hpp"
#include "workloads/random_gen.hpp"

using namespace lera;

namespace {

alloc::AllocationProblem make_instance(int num_vars, std::uint64_t seed,
                                       energy::RegisterModel model) {
  workloads::RandomLifetimeOptions lopts;
  lopts.num_vars = num_vars;
  // Keep density proportional to size: time axis grows with the count.
  lopts.num_steps = std::max(10, num_vars / 2);
  lopts.max_reads = 2;
  energy::EnergyParams params;
  params.register_model = model;
  return alloc::make_problem(
      workloads::random_lifetimes(seed, lopts), lopts.num_steps,
      std::max(2, num_vars / 8), params,
      workloads::random_activity(seed + 1,
                                 static_cast<std::size_t>(num_vars)));
}

void BM_AllocateDensityGraph(benchmark::State& state) {
  const alloc::AllocationProblem p = make_instance(
      static_cast<int>(state.range(0)), 42,
      energy::RegisterModel::kActivity);
  for (auto _ : state) {
    alloc::AllocationResult r = alloc::allocate(p);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_AllocateDensityGraph)
    ->RangeMultiplier(2)
    ->Range(16, 1024)
    ->Complexity()
    ->Unit(benchmark::kMillisecond);

void BM_AllocateAllPairsGraph(benchmark::State& state) {
  const alloc::AllocationProblem p = make_instance(
      static_cast<int>(state.range(0)), 43,
      energy::RegisterModel::kActivity);
  alloc::AllocatorOptions opts;
  opts.style = alloc::GraphStyle::kAllPairs;
  for (auto _ : state) {
    alloc::AllocationResult r = alloc::allocate(p, opts);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_AllocateAllPairsGraph)
    ->RangeMultiplier(2)
    ->Range(16, 512)
    ->Complexity()
    ->Unit(benchmark::kMillisecond);

// The static model separates (alloc::uses_sparse_encoding), so
// allocate() builds the hub encoding: O(s) arcs where the activity
// model's density graph above has O(s^2).
void BM_AllocateStaticSparse(benchmark::State& state) {
  const alloc::AllocationProblem p = make_instance(
      static_cast<int>(state.range(0)), 45, energy::RegisterModel::kStatic);
  for (auto _ : state) {
    alloc::AllocationResult r = alloc::allocate(p);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_AllocateStaticSparse)
    ->RangeMultiplier(2)
    ->Range(64, 4096)
    ->Complexity()
    ->Unit(benchmark::kMillisecond);

// The same static instances on the paper's dense graph: the per-encoding
// comparison for EXPERIMENTS.md SCALE.
void BM_AllocateStaticDense(benchmark::State& state) {
  const alloc::AllocationProblem p = make_instance(
      static_cast<int>(state.range(0)), 45, energy::RegisterModel::kStatic);
  for (auto _ : state) {
    const alloc::FlowGraphSpec spec =
        alloc::build_dense_flow_graph(p, alloc::GraphStyle::kDensityRegions);
    alloc::AllocationResult r = alloc::allocate_with_spec(p, spec, {});
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_AllocateStaticDense)
    ->RangeMultiplier(2)
    ->Range(64, 1024)
    ->Complexity()
    ->Unit(benchmark::kMillisecond);

void BM_BuildFlowGraphOnly(benchmark::State& state) {
  const alloc::AllocationProblem p = make_instance(
      static_cast<int>(state.range(0)), 44, energy::RegisterModel::kStatic);
  for (auto _ : state) {
    alloc::FlowGraphSpec spec =
        alloc::build_flow_graph(p, alloc::GraphStyle::kDensityRegions);
    benchmark::DoNotOptimize(spec);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BuildFlowGraphOnly)
    ->RangeMultiplier(2)
    ->Range(16, 1024)
    ->Complexity()
    ->Unit(benchmark::kMillisecond);

// Parallel engine scalability: a fixed batch of independent instances
// through engine::Engine::allocate_batch, swept over the thread count.
// Real time is what parallelism buys, so measure wall clock.
void BM_EngineAllocateBatch(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  std::vector<alloc::AllocationProblem> batch;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    batch.push_back(
        make_instance(64, 1000 + seed, energy::RegisterModel::kActivity));
  }
  engine::EngineOptions eopts;
  eopts.threads = threads;
  const engine::Engine eng(eopts);
  for (auto _ : state) {
    std::vector<alloc::AllocationResult> r = eng.allocate_batch(batch);
    benchmark::DoNotOptimize(r);
  }
  state.counters["threads"] = threads;
  state.counters["solves_per_s"] = benchmark::Counter(
      static_cast<double>(batch.size()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EngineAllocateBatch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The whole-application driver at 1 vs N threads (bit-identical
// reports; only the wall clock moves).
void BM_EngineRunTaskGraph(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  ir::TaskGraph tg;
  workloads::RandomDfgOptions dopts;
  dopts.num_ops = 24;
  for (int i = 0; i < 12; ++i) {
    tg.add_task("t" + std::to_string(i),
                workloads::random_dfg(static_cast<std::uint64_t>(i), dopts));
  }
  engine::EngineOptions eopts;
  eopts.threads = threads;
  const engine::Engine eng(eopts);
  for (auto _ : state) {
    engine::PipelineReport r = eng.run(tg);
    benchmark::DoNotOptimize(r);
  }
  state.counters["threads"] = threads;
}
BENCHMARK(BM_EngineRunTaskGraph)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
