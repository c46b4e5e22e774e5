#include "inputs.hpp"

#include <algorithm>
#include <array>
#include <iterator>
#include <cmath>
#include <initializer_list>
#include <numeric>
#include <random>
#include <set>
#include <sstream>

#include "common.hpp"
#include "sched/schedule.hpp"
#include "workloads/kernels.hpp"
#include "workloads/problem_io.hpp"
#include "workloads/random_gen.hpp"

namespace perfbench {

namespace alloc = lera::alloc;
namespace engine = lera::engine;
namespace ir = lera::ir;
namespace wl = lera::workloads;

std::optional<Workload> parse_workload(const std::string& name) {
  if (name == "compile-large") return Workload::kCompileLarge;
  if (name == "pipeline-kernels") return Workload::kPipelineKernels;
  if (name == "serve-repeat") return Workload::kServeRepeat;
  if (name == "serve-hits") return Workload::kServeHits;
  return std::nullopt;
}

const char* to_string(Workload w) {
  switch (w) {
    case Workload::kCompileLarge: return "compile-large";
    case Workload::kPipelineKernels: return "pipeline-kernels";
    case Workload::kServeRepeat: return "serve-repeat";
    case Workload::kServeHits: return "serve-hits";
  }
  return "?";
}

std::string lt_text(const alloc::AllocationProblem& p) {
  std::ostringstream os;
  os << "steps " << p.num_steps << "\nregisters " << p.num_registers << "\n";
  for (std::size_t v = 0; v < p.lifetimes.size(); ++v) {
    const lera::lifetime::Lifetime& lt = p.lifetimes[v];
    os << "var v" << v << " width " << lt.width << " write " << lt.write_time
       << " reads";
    for (int r : lt.read_times) {
      if (!(lt.live_out && r == p.num_steps + 1)) os << " " << r;
    }
    if (lt.live_out) os << " liveout";
    os << "\n";
  }
  return os.str();
}

std::uint64_t problem_key(const alloc::AllocationProblem& p) {
  std::ostringstream os;
  os << "model " << static_cast<int>(p.params.register_model) << "\n";
  if (p.activity.is_uniform()) {
    os << lt_text(p) << "activity uniform " << p.activity.uniform_h() << " "
       << p.activity.uniform_initial() << "\n";
  } else {
    wl::write_problem(os, p);
  }
  return content_key(os.str());
}

// --- compile-large ------------------------------------------------------

namespace {

/// Distinct blocks per size, and the rounds of one cycle (a size each;
/// a round sends the next two blocks of that size, one per caller).
/// 1024-variable solves are more than half the requests, so sorted by
/// latency the median and the tail both fall inside the 1024 class, far
/// from its gap to the 512s. That class spread least from run to run on
/// a shared host (per-size medians over five or six seeds: 0.06-0.2 for
/// the 1024s, 0.16-0.32 for the 512s, whose working sets are about the
/// size of the shared last-level cache, 0.15-0.27 for the short 128s).
/// The smaller sizes stay in the mix, as the request count the tail
/// percentile needs.
constexpr int kCompileSizes[] = {128, 256, 512, 1024};
constexpr int kCompilePerSize[] = {2, 2, 4, 4};
constexpr int kCompileRounds[] = {3, 2, 3, 1, 3, 0, 3, 2, 3, 1, 3};  // Sizes.

}  // namespace

CompileInputs make_compile_inputs(std::uint64_t seed) {
  // The blocks, and which two share a round, are the same for every
  // seed: solve times vary so much from block to block, and with the
  // block solved beside them, that runs over other blocks or pairings
  // spread wider than a regression bound. The seed picks the round the
  // request order starts at.
  constexpr std::uint64_t kBlockSeed = 1;
  CompileInputs in;
  std::vector<int> first_of_size;
  for (int s = 0; s < 4; ++s) {
    first_of_size.push_back(static_cast<int>(in.pool.size()));
    for (int k = 0; k < kCompilePerSize[s]; ++k) {
      const int vars = kCompileSizes[s];
      wl::RandomLifetimeOptions lopts;
      lopts.num_vars = vars;
      lopts.num_steps = vars / 2;
      const std::uint64_t s_seed =
          mix_seed(kBlockSeed * 64 + static_cast<std::uint64_t>(s * 16 + k));
      CompileInput ci;
      ci.vars = vars;
      ci.batch.push_back(alloc::make_problem(
          wl::random_lifetimes(s_seed, lopts), lopts.num_steps, vars / 8,
          lera::energy::EnergyParams{},
          lera::energy::ActivityMatrix(static_cast<std::size_t>(vars))));
      ci.key = problem_key(ci.batch.front());
      in.pool.push_back(std::move(ci));
    }
  }
  // Cycles repeat until every block of every size has been taken equally
  // often: that is one pass (here one cycle).
  std::vector<int> used(4, 0);
  const auto balanced = [&used] {
    for (int s = 0; s < 4; ++s) {
      if (used[static_cast<std::size_t>(s)] % kCompilePerSize[s] != 0) {
        return false;
      }
    }
    return true;
  };
  do {
    for (int s : kCompileRounds) {
      const auto u = static_cast<std::size_t>(s);
      for (int t = 0; t < 2; ++t) {
        in.order.push_back(first_of_size[u] + used[u]++ % kCompilePerSize[s]);
      }
    }
  } while (!balanced());
  const std::size_t rounds = in.order.size() / 2;
  std::rotate(in.order.begin(),
              in.order.begin() + static_cast<std::ptrdiff_t>(
                                     2 * (mix_seed(seed) % rounds)),
              in.order.end());
  return in;
}

int compile_passes(double seconds) {
  return std::max(1,
                  static_cast<int>(std::lround(seconds / kCompilePassSeconds)));
}

engine::EngineOptions compile_engine_options() {
  engine::EngineOptions o;
  o.threads = 2;
  return o;
}

// --- pipeline-kernels ---------------------------------------------------

PipelineInputs make_pipeline_inputs(std::uint64_t seed) {
  // The task graph is the same for every seed (kernels at a few small
  // sizes, so no task dominates: fft(8) alone was 40% of a pass and set
  // every run's latency) and so are the work per run and its split over
  // the threads; the seed picks the input samples activities are
  // measured on, which changes every task's costs and optimum.
  PipelineInputs in;
  std::vector<std::pair<std::string, ir::BasicBlock>> kernels;
  const auto add = [&kernels](std::string name, ir::BasicBlock bb) {
    kernels.emplace_back(std::move(name), std::move(bb));
  };
  const auto sized = [&add](const char* name, auto make,
                           std::initializer_list<int> sizes) {
    for (int n : sizes) add(name + std::to_string(n), make(n));
  };
  sized("fir", wl::make_fir, {6, 8, 10, 12});
  add("iir", wl::make_iir_biquad());
  add("ewf", wl::make_elliptic_wave_filter());
  add("fft_bfly", wl::make_fft_butterfly());
  add("fft4", wl::make_fft(4));
  add("dct4", wl::make_dct4());
  sized("matmul", wl::make_matmul, {2, 3});
  add("conv3x3", wl::make_conv3x3());
  sized("lattice", wl::make_lattice, {3, 4, 5, 6});
  sized("lms", wl::make_lms, {3, 4, 5, 6});
  add("viterbi", wl::make_viterbi_acs());
  sized("goertzel", wl::make_goertzel, {4, 6, 8});
  sized("rsp", wl::make_rsp, {2, 3, 4});

  // Largest first (by segment count): Engine::run's threads claim tasks
  // in graph order, so the big solves start at once and the small ones
  // even out the threads' finishing times, whichever thread wakes first.
  std::vector<std::size_t> segments;
  for (const auto& [name, bb] : kernels) {
    segments.push_back(
        alloc::make_problem_from_block(
            bb, lera::sched::list_schedule(bb, in.options.resources),
            in.options.num_registers, in.options.params)
            .segments.size());
  }
  std::vector<std::size_t> order(kernels.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t x, std::size_t y) {
                     return segments[x] > segments[y];
                   });
  for (std::size_t i : order) {
    in.graph.add_task(kernels[i].first, std::move(kernels[i].second));
  }

  in.options.threads = 2;
  in.options.params.register_model = lera::energy::RegisterModel::kActivity;
  in.options.trace_seed = 1 + (mix_seed(seed) % 100000);
  return in;
}

std::vector<std::vector<std::int64_t>> engine_trace(const ir::BasicBlock& bb,
                                                    int samples,
                                                    std::uint64_t seed) {
  int inputs = 0;
  for (const ir::Operation& op : bb.ops()) {
    if (op.opcode == ir::Opcode::kInput) ++inputs;
  }
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::int64_t> dist(-32768, 32767);
  std::vector<std::vector<std::int64_t>> rows(
      static_cast<std::size_t>(samples));
  for (auto& row : rows) {
    row.resize(static_cast<std::size_t>(inputs));
    for (auto& v : row) v = dist(rng);
  }
  return rows;
}

alloc::AllocationProblem pipeline_task_problem(
    const ir::Task& task, const engine::EngineOptions& o) {
  const lera::sched::Schedule schedule =
      lera::sched::list_schedule(task.block, o.resources);
  const auto trace =
      o.trace_samples > 0
          ? engine_trace(task.block, o.trace_samples,
                         o.trace_seed + static_cast<std::uint64_t>(task.id))
          : std::vector<std::vector<std::int64_t>>{};
  return alloc::make_problem_from_block(task.block, schedule,
                                        o.num_registers, o.params, trace,
                                        o.split);
}

// --- serve-repeat -------------------------------------------------------

namespace {

std::string random_lt_sized(std::mt19937_64& rng, int vars) {
  wl::RandomLifetimeOptions lopts;
  lopts.num_vars = vars;
  lopts.num_steps = std::max(10, vars / 2);
  const alloc::AllocationProblem p = alloc::make_problem(
      wl::random_lifetimes(rng(), lopts), lopts.num_steps,
      std::max(2, vars / 8), lera::energy::EnergyParams{},
      lera::energy::ActivityMatrix(static_cast<std::size_t>(vars)));
  return lt_text(p);
}

std::string random_lt(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const int vars = 40 + static_cast<int>(rng() % 111);  // 40..150
  return random_lt_sized(rng, vars);
}

std::string kernel_lt(int which, std::mt19937_64& rng) {
  static const lera::sched::Resources kRes[] = {{1, 1}, {2, 1}, {2, 2}};
  ir::BasicBlock bb = [&] {
    switch (which % 10) {
      case 0: return wl::make_fir(6 + static_cast<int>(rng() % 11));
      case 1: return wl::make_elliptic_wave_filter();
      case 2: return wl::make_fft(8);
      case 3: return wl::make_matmul(3 + static_cast<int>(rng() % 2));
      case 4: return wl::make_lattice(4 + static_cast<int>(rng() % 5));
      case 5: return wl::make_lms(4 + static_cast<int>(rng() % 6));
      case 6: return wl::make_goertzel(6 + static_cast<int>(rng() % 7));
      case 7: return wl::make_rsp(3 + static_cast<int>(rng() % 4));
      case 8: return wl::make_conv3x3();
      default: return wl::make_iir_biquad();
    }
  }();
  const lera::sched::Schedule schedule =
      lera::sched::list_schedule(bb, kRes[rng() % 3]);
  alloc::AllocationProblem p = alloc::make_problem_from_block(
      bb, schedule, 1, lera::energy::EnergyParams{});
  const int density = std::max(1, p.max_density());
  p.num_registers = 1 + static_cast<int>(rng() % static_cast<std::uint64_t>(
                                             std::max(1, density / 2)));
  return lt_text(p);
}

/// Header lines plus the var lines in sorted order: equal for a payload
/// and any permutation of it.
std::string canonical_lt(const std::string& lt) {
  std::istringstream is(lt);
  std::string line, out;
  std::vector<std::string> vars;
  while (std::getline(is, line)) {
    if (line.rfind("var ", 0) == 0) {
      vars.push_back(line);
    } else if (!line.empty()) {
      out += line + "\n";
    }
  }
  std::sort(vars.begin(), vars.end());
  for (const std::string& v : vars) out += v + "\n";
  return out;
}

std::string permute_lt(const std::string& lt, std::mt19937_64& rng) {
  std::istringstream is(lt);
  std::string line, out;
  std::vector<std::string> vars;
  while (std::getline(is, line)) {
    if (line.rfind("var ", 0) == 0) {
      vars.push_back(line);
    } else if (!line.empty()) {
      out += line + "\n";
    }
  }
  std::shuffle(vars.begin(), vars.end(), rng);
  for (const std::string& v : vars) out += v + "\n";
  return out;
}

std::string jitter_lt(const std::string& lt, int extra) {
  const std::size_t pos = lt.find("registers ");
  const std::size_t num = pos + 10;
  const std::size_t end = lt.find('\n', num);
  const int regs = std::stoi(lt.substr(num, end - num));
  return lt.substr(0, num) + std::to_string(regs + extra) + lt.substr(end);
}

/// The pool both server workloads draw from: kernel-derived and random
/// 40-150 variable problems, shuffled so popularity rank does not follow
/// the kind, with normalised Zipf 1/(k+1) weights by rank.
struct ServePool {
  std::vector<const std::string*> items;
  std::vector<double> weight, cdf;

  void set_zipf_weights() {
    double z = 0;
    for (int k = 0; k < kServePool; ++k) {
      weight.push_back(1.0 / (k + 1));
      z += weight.back();
    }
    double acc = 0;
    for (double& w : weight) {
      w /= z;
      acc += w;
      cdf.push_back(acc);
    }
  }

  /// The rank a uniform draw \p u in [0, 1) picks.
  int draw(double u) const {
    const auto k = std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin();
    return std::min(static_cast<int>(k), kServePool - 1);
  }
};

ServePool make_pool(std::uint64_t seed, std::mt19937_64& rng,
                    std::deque<std::string>& texts) {
  ServePool pool;
  for (int k = 0; k < kServePool; ++k) {
    texts.push_back(k % 2 == 0 ? kernel_lt(k / 2, rng)
                               : random_lt(mix_seed(seed * 1000003 + k)));
    pool.items.push_back(&texts.back());
  }
  std::shuffle(pool.items.begin(), pool.items.end(), rng);
  pool.set_zipf_weights();
  return pool;
}

/// serve-hits' pool: the same kinds and size range, but each rank's kind
/// and size are fixed (kernels keep fixed parameters too), so the work
/// behind the popular ranks is the same for every seed; the seed picks
/// the random items' lifetimes and the stream.
ServePool make_hits_pool(std::uint64_t seed, std::deque<std::string>& texts) {
  ServePool pool;
  for (int k = 0; k < kServePool; ++k) {
    if (k % 2 == 0) {
      std::mt19937_64 fixed(mix_seed(0x6b65726eULL + static_cast<unsigned>(k)));
      texts.push_back(kernel_lt(k / 2, fixed));
    } else {
      // Odd ranks walk the 40..150 range in a fixed scrambled order.
      const int step = (k / 2) * 13 % (kServePool / 2);
      std::mt19937_64 rng(mix_seed(seed * 1000003 + static_cast<unsigned>(k)));
      texts.push_back(
          random_lt_sized(rng, 40 + step * 110 / (kServePool / 2 - 1)));
    }
    pool.items.push_back(&texts.back());
  }
  pool.set_zipf_weights();
  return pool;
}

}  // namespace

ServeInputs make_serve_inputs(std::uint64_t seed, double seconds) {
  ServeInputs in;
  std::mt19937_64 rng(mix_seed(seed ^ 0x73657276ULL));
  const ServePool pool = make_pool(seed, rng, in.texts);
  in.pool = pool.items;
  in.zipf_weight = pool.weight;

  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  const auto n = static_cast<std::size_t>(std::ceil(kServeRate * seconds));
  std::set<std::string> seen;
  std::uint64_t cold = 0;
  in.stream.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ServeRequest r;
    const double roll = uniform(rng);
    const int k = pool.draw(uniform(rng));
    const std::string* item = in.pool[static_cast<std::size_t>(k)];
    r.pool_index = k;
    if (roll < 0.50) {
      r.cls = RequestClass::kExact;
      r.payload = item;
    } else if (roll < 0.70) {
      r.cls = RequestClass::kPermuted;
      in.texts.push_back(permute_lt(*item, rng));
    } else if (roll < 0.85) {
      r.cls = RequestClass::kJittered;
      in.texts.push_back(jitter_lt(*item, 1 + static_cast<int>(rng() % 3)));
    } else {
      r.cls = RequestClass::kCold;
      r.pool_index = -1;
      in.texts.push_back(
          random_lt(mix_seed(seed * 7919 + 0x636f6c64ULL + cold++)));
    }
    if (r.payload == nullptr) r.payload = &in.texts.back();
    const std::string canon = canonical_lt(*r.payload);
    r.expect_key = content_key(canon);
    r.first_occurrence = seen.insert(canon).second;
    in.stream.push_back(std::move(r));
  }
  return in;
}

HitsInputs make_hits_inputs(std::uint64_t seed) {
  HitsInputs in;
  std::mt19937_64 rng(mix_seed(seed ^ 0x68697473ULL));
  const ServePool pool = make_hits_pool(seed, in.texts);
  // Every problem the cycle asks for, once: each pool item and its
  // variants with one, two and three more registers.
  std::vector<std::array<ServeRequest, 4>> variants(pool.items.size());
  std::set<std::uint64_t> seen;
  for (std::size_t k = 0; k < pool.items.size(); ++k) {
    for (int extra = 0; extra < 4; ++extra) {
      ServeRequest& r = variants[k][static_cast<std::size_t>(extra)];
      r.pool_index = static_cast<int>(k);
      if (extra == 0) {
        r.cls = RequestClass::kExact;
        r.payload = pool.items[k];
      } else {
        r.cls = RequestClass::kJittered;
        in.texts.push_back(jitter_lt(*pool.items[k], extra));
        r.payload = &in.texts.back();
      }
      r.expect_key = content_key(canonical_lt(*r.payload));
      r.first_occurrence = seen.insert(r.expect_key).second;
      if (r.first_occurrence) in.warmup.push_back(r);
    }
  }
  // serve-repeat's mix without its cold share: 50/20/15 exact, permuted
  // and jittered, renormalised.
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  in.cycle.reserve(kHitsCycle);
  for (std::size_t i = 0; i < kHitsCycle; ++i) {
    const double roll = 0.85 * uniform(rng);
    const auto k = static_cast<std::size_t>(pool.draw(uniform(rng)));
    ServeRequest r;
    if (roll < 0.50) {
      r = variants[k][0];
    } else if (roll < 0.70) {
      r = variants[k][0];
      r.cls = RequestClass::kPermuted;
      in.texts.push_back(permute_lt(*r.payload, rng));
      r.payload = &in.texts.back();
    } else {
      r = variants[k][1 + rng() % 3];
    }
    r.first_occurrence = false;
    in.cycle.push_back(r);
  }
  return in;
}

lera::server::ServerOptions serve_server_options() {
  lera::server::ServerOptions o;
  o.engine.cache_entries = kServeCacheEntries;
  o.isolation.workers = 0;
  return o;
}

std::string input_bytes(Workload w, std::uint64_t seed, double seconds) {
  std::string out;
  switch (w) {
    case Workload::kCompileLarge: {
      const CompileInputs in = make_compile_inputs(seed);
      for (const CompileInput& ci : in.pool) out += lt_text(ci.batch.front());
      for (int i : in.order) out += std::to_string(i) + ",";
      break;
    }
    case Workload::kPipelineKernels: {
      const PipelineInputs in = make_pipeline_inputs(seed);
      for (const ir::Task& t : in.graph.tasks()) {
        std::ostringstream os;
        wl::write_problem(os, pipeline_task_problem(t, in.options));
        out += t.name + "\n" + os.str();
      }
      break;
    }
    case Workload::kServeRepeat: {
      const ServeInputs in = make_serve_inputs(seed, seconds);
      for (const ServeRequest& r : in.stream) {
        out += static_cast<char>(r.cls);
        out += *r.payload;
      }
      break;
    }
    case Workload::kServeHits: {
      const HitsInputs in = make_hits_inputs(seed);
      for (const auto* list : {&in.warmup, &in.cycle}) {
        for (const ServeRequest& r : *list) {
          out += static_cast<char>(r.cls);
          out += *r.payload;
        }
      }
      break;
    }
  }
  return out;
}

}  // namespace perfbench
