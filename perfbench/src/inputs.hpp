#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "alloc/problem.hpp"
#include "engine/engine.hpp"
#include "ir/task_graph.hpp"
#include "server/server.hpp"

/// \file inputs.hpp
/// Seeded input generation for the workloads. Every input is a
/// pure function of the run seed (and, for the open-loop stream, of the
/// run length), so a seed names the exact bytes a run sends.

namespace perfbench {

enum class Workload {
  kCompileLarge,
  kPipelineKernels,
  kServeRepeat,
  kServeHits,
};

std::optional<Workload> parse_workload(const std::string& name);
const char* to_string(Workload w);

/// Compact `.lt` text of \p p: steps, registers and one var line per
/// lifetime (variables renamed v0, v1, ...). No activity lines, so the
/// parser's uniform 0.5 defaults apply.
std::string lt_text(const lera::alloc::AllocationProblem& p);

/// Content key of a problem: what expected objectives are filed under.
std::uint64_t problem_key(const lera::alloc::AllocationProblem& p);

// --- compile-large ------------------------------------------------------

struct CompileInput {
  int vars = 0;
  /// The allocate_batch argument: exactly one problem.
  std::vector<lera::alloc::AllocationProblem> batch;
  std::uint64_t key = 0;
};

struct CompileInputs {
  std::vector<CompileInput> pool;
  /// Request i solves pool[order[i % order.size()]]. Requests 2r and
  /// 2r+1 form round r: two blocks of one size, one per caller.
  std::vector<int> order;
};

/// One pass of compile-large is the whole of CompileInputs::order: every
/// block equally often, so runs over whole passes solve the same multiset
/// of blocks whatever round the seed starts at. A pass (11 rounds, 22
/// solves, 12 of them 1024-variable) took about this long on a shared
/// 4-core x86-64 container.
inline constexpr double kCompilePassSeconds = 16;

/// Whole passes a compile-large run of \p seconds measures: as many as
/// fit at kCompilePassSeconds, at least one. A fixed number, not "until
/// the time is up", so every run has the same sample count and reports
/// the same tail percentile.
int compile_passes(double seconds);

CompileInputs make_compile_inputs(std::uint64_t seed);
lera::engine::EngineOptions compile_engine_options();

// --- pipeline-kernels ---------------------------------------------------

struct PipelineInputs {
  lera::ir::TaskGraph graph;
  lera::engine::EngineOptions options;
};

PipelineInputs make_pipeline_inputs(std::uint64_t seed);

/// The per-task input rows Engine::run measures activities on: uniform
/// 16-bit samples from mt19937_64(seed), one column per kInput.
std::vector<std::vector<std::int64_t>> engine_trace(
    const lera::ir::BasicBlock& bb, int samples, std::uint64_t seed);

/// The problem Engine::run builds for \p task under \p options.
lera::alloc::AllocationProblem pipeline_task_problem(
    const lera::ir::Task& task, const lera::engine::EngineOptions& options);

// --- serve-repeat -------------------------------------------------------

/// Fixed open-loop send rate (requests per second): half the capacity
/// measured at the commit that defined the benchmark, on a shared 4-core
/// x86-64 container. Capacity is the highest rate whose p99 stayed
/// within 10 ms without a growing backlog: 1200 req/s (p99 7-12 ms;
/// 2400 req/s still kept up but p99 reached 23 ms and requests were
/// shed). Never re-derived: later commits are measured at this rate.
inline constexpr double kServeRate = 600;
inline constexpr int kServePool = 64;
inline constexpr std::size_t kServeCacheEntries = 512;

enum class RequestClass : char {
  kExact = 'e',     ///< Byte-identical repeat of a pool item.
  kPermuted = 'p',  ///< Pool item with its var lines shuffled.
  kJittered = 'j',  ///< Pool item with one to three more registers.
  kCold = 'c',      ///< A fresh problem never sent before.
};

struct ServeRequest {
  RequestClass cls = RequestClass::kExact;
  int pool_index = -1;  ///< -1 for cold requests.
  /// Into ServeInputs::texts (exact repeats share their pool item's).
  const std::string* payload = nullptr;
  /// problem_key of the parsed payload; permuted repeats share it.
  std::uint64_t expect_key = 0;
  /// No earlier request carried the same problem (in any order).
  bool first_occurrence = false;
};

struct ServeInputs {
  /// Owns every payload text; a deque keeps their addresses stable.
  std::deque<std::string> texts;
  std::vector<const std::string*> pool;
  std::vector<double> zipf_weight;  ///< Normalised draw weight per item.
  std::vector<ServeRequest> stream;

  ServeInputs() = default;
  ServeInputs(ServeInputs&&) = default;
  ServeInputs(const ServeInputs&) = delete;
  ServeInputs& operator=(const ServeInputs&) = delete;
};

ServeInputs make_serve_inputs(std::uint64_t seed, double seconds);
/// Both server workloads: cache_entries = kServeCacheEntries, in-process
/// solving (workers = 0), defaults otherwise.
lera::server::ServerOptions serve_server_options();

// --- serve-hits ---------------------------------------------------------

/// Requests each of the two serve-hits connections keeps outstanding.
/// Two connections' worth fits the default per-tenant admission quota
/// (16), so the warm-up's misses are never shed.
inline constexpr int kHitsInFlight = 8;
/// Length of the serve-hits request cycle. Far more permuted texts than
/// the text front holds (kServeCacheEntries), so a permuted repeat takes
/// the parse-and-fingerprint path as in serve-repeat.
inline constexpr std::size_t kHitsCycle = 16384;

struct HitsInputs {
  std::deque<std::string> texts;
  /// Every distinct problem of the cycle once (the pool items and their
  /// +1, +2 and +3 register variants): the warm-up that fills the cache.
  std::vector<ServeRequest> warmup;
  /// The timed requests, sent in order and repeated: a pool like
  /// serve-repeat's (but with each rank's kind and size fixed) under the
  /// same Zipf weights, 50/20/15 exact, permuted and jittered repeats, no
  /// cold requests.
  std::vector<ServeRequest> cycle;

  HitsInputs() = default;
  HitsInputs(HitsInputs&&) = default;
  HitsInputs(const HitsInputs&) = delete;
  HitsInputs& operator=(const HitsInputs&) = delete;
};

HitsInputs make_hits_inputs(std::uint64_t seed);

/// Concatenation of every generated input, for the same-seed test.
std::string input_bytes(Workload w, std::uint64_t seed, double seconds);

}  // namespace perfbench
