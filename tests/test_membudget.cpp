#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "alloc/allocator.hpp"
#include "alloc/flow_graph.hpp"
#include "audit/fuzz.hpp"
#include "engine/engine.hpp"
#include "netflow/fault_injection.hpp"
#include "netflow/membudget.hpp"
#include "netflow/netflow.hpp"
#include "server/server.hpp"
#include "server/stream.hpp"
#include "workloads/problem_io.hpp"
#include "workloads/random_gen.hpp"

/// Memory-budgeted solving, end to end: the MemoryBudget ledger
/// (chaining, all-or-nothing charges, peak tracking), the charge/release
/// identity across the robust solve path, the O(1) footprint estimator's
/// calibration against measured workspace bytes, the seeded OOM
/// failpoint (every allocation-failure path must unwind into a typed
/// kMemoryExceeded verdict with balanced accounting), and the
/// degradation contract through the Engine and the server's typed
/// memory_infeasible shed.

namespace lera::netflow {
namespace {

using workloads::RandomFlowOptions;
using workloads::random_flow_problem;

// ---------------------------------------------------------------------
// MemoryBudget ledger mechanics

TEST(MemoryBudget, InertDefaultChargesFreely) {
  MemoryBudget b;
  EXPECT_FALSE(b.valid());
  EXPECT_TRUE(b.try_charge(1 << 30));
  EXPECT_EQ(b.used(), 0);
  EXPECT_EQ(b.peak(), 0);
  EXPECT_FALSE(b.would_deny(1 << 30));
}

TEST(MemoryBudget, ChargeReleasePeakAndDenials) {
  MemoryBudget b = MemoryBudget::make(1000);
  ASSERT_TRUE(b.valid());
  EXPECT_TRUE(b.try_charge(400));
  EXPECT_EQ(b.used(), 400);
  EXPECT_EQ(b.peak(), 400);
  EXPECT_EQ(b.remaining(), 600);
  EXPECT_TRUE(b.would_deny(700));
  EXPECT_FALSE(b.try_charge(700));  // 400 + 700 > 1000.
  EXPECT_EQ(b.used(), 400);        // Refused charge fully rolled back.
  EXPECT_EQ(b.denials(), 1);
  EXPECT_TRUE(b.try_charge(600));
  EXPECT_EQ(b.used(), 1000);
  b.release(1000);
  EXPECT_EQ(b.used(), 0);
  EXPECT_EQ(b.peak(), 1000);  // High-water mark survives the release.
}

TEST(MemoryBudget, TrackOnlyNeverRefuses) {
  MemoryBudget b = MemoryBudget::make(0);
  EXPECT_TRUE(b.try_charge(1 << 30));
  EXPECT_TRUE(b.try_charge(1 << 30));
  EXPECT_EQ(b.used(), std::int64_t{2} << 30);
  EXPECT_EQ(b.denials(), 0);
  EXPECT_FALSE(b.would_deny(1 << 30));
  b.release(std::int64_t{2} << 30);
  EXPECT_EQ(b.used(), 0);
}

TEST(MemoryBudget, ChildChargesChainAllOrNothing) {
  MemoryBudget parent = MemoryBudget::make(1000);
  MemoryBudget tight = parent.child(500);

  // Refused at the child level: nothing sticks anywhere.
  EXPECT_FALSE(tight.try_charge(600));
  EXPECT_EQ(tight.used(), 0);
  EXPECT_EQ(parent.used(), 0);
  EXPECT_EQ(tight.denials(), 1);
  EXPECT_EQ(parent.denials(), 0);

  // Accepted charges show up at every level.
  EXPECT_TRUE(tight.try_charge(400));
  EXPECT_EQ(tight.used(), 400);
  EXPECT_EQ(parent.used(), 400);

  // Refused at the *parent* level: the child's provisional charge is
  // rolled back and the refusing level's denial counter ticks.
  MemoryBudget sibling = parent.child(0);
  EXPECT_FALSE(sibling.try_charge(700));  // 400 + 700 > 1000 at parent.
  EXPECT_EQ(sibling.used(), 0);
  EXPECT_EQ(parent.used(), 400);
  EXPECT_EQ(parent.denials(), 1);

  // remaining() reports the tightest headroom across the chain.
  EXPECT_EQ(tight.remaining(), 100);    // min(500-400, 1000-400).
  EXPECT_EQ(sibling.remaining(), 600);  // Only the parent caps it.

  tight.release(400);
  EXPECT_EQ(parent.used(), 0);
}

TEST(MemoryBudget, BudgetChargeIsRaii) {
  MemoryBudget b = MemoryBudget::make(1000);
  {
    BudgetCharge c(b, 800);
    ASSERT_TRUE(c.ok());
    EXPECT_EQ(c.bytes(), 800);
    EXPECT_EQ(b.used(), 800);

    BudgetCharge denied(b, 800);
    EXPECT_FALSE(denied.ok());
    EXPECT_EQ(denied.bytes(), 0);
    EXPECT_EQ(b.used(), 800);

    BudgetCharge moved = std::move(c);
    EXPECT_TRUE(moved.ok());
    EXPECT_FALSE(c.ok());  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(b.used(), 800);
  }
  EXPECT_EQ(b.used(), 0);  // Scope exit released exactly once.
  EXPECT_EQ(b.peak(), 800);
}

// ---------------------------------------------------------------------
// Charge/release identity across the robust solve path

// Budgeted solves must leave no residual charge behind: every byte
// charged before an attempt is released when the attempt ends, success
// or failure, and the high-water mark only ever rises.
TEST(MemBudgetSolve, TwoHundredSeedSweepBalancesTheLedger) {
  MemoryBudget root = MemoryBudget::make(0);  // Track-only: never denies.
  std::int64_t last_peak = 0;
  int optimal = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    RandomFlowOptions opts;
    opts.min_cost = -20;
    opts.lower_bound_prob = seed % 3 == 0 ? 0.3 : 0.0;
    const Graph g = random_flow_problem(seed, opts);

    SolveOptions solve_opts;
    solve_opts.memory_budget = root;
    SolveDiagnostics diag;
    const FlowSolution sol = solve_robust(g, solve_opts, &diag);
    if (sol.optimal()) ++optimal;

    ASSERT_EQ(root.used(), 0) << "seed " << seed
                              << ": residual bytes after the solve";
    ASSERT_GE(root.peak(), last_peak) << "seed " << seed;
    last_peak = root.peak();
    ASSERT_EQ(root.denials(), 0) << "seed " << seed;
    ASSERT_GT(diag.memory_estimated_bytes, 0) << "seed " << seed;
    ASSERT_FALSE(diag.memory_hit) << "seed " << seed;
  }
  EXPECT_GT(optimal, 100);  // The family is mostly feasible.
  EXPECT_GT(last_peak, 0);
}

// ---------------------------------------------------------------------
// Footprint estimator calibration

// The O(1) estimate must stay within 2x of the bytes a solve actually
// retains (workspace scratch + residual), per backend, across the
// bench_solvers instance family shapes.
TEST(MemBudgetEstimate, WithinTwoXOfMeasuredWorkspaceBytes) {
  const SolverKind kinds[] = {
      SolverKind::kSuccessiveShortestPaths, SolverKind::kNetworkSimplex,
      SolverKind::kCostScaling, SolverKind::kCycleCanceling};
  for (const int nodes : {12, 32, 64}) {
    RandomFlowOptions opts;
    opts.num_nodes = nodes;
    opts.num_arcs = nodes * 4;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      for (const SolverKind kind : kinds) {
        const Graph g = random_flow_problem(seed, opts);
        const std::int64_t estimate =
            estimate_solver_bytes(measure_shape(g), kind);
        SolverWorkspace ws;
        const FlowSolution sol = solve(g, kind, nullptr, &ws);
        ASSERT_NE(sol.status, SolveStatus::kMemoryExceeded);
        // The estimate covers the graph's lazily built CSR adjacency
        // too; the workspace footprint does not (the cache lives on
        // the Graph), so count it with the same formula the graph's
        // alloc_tick charge uses.
        const std::int64_t csr_bytes = static_cast<std::int64_t>(
            (2 * (static_cast<std::size_t>(g.num_nodes()) + 1) +
             4 * static_cast<std::size_t>(g.num_arcs())) *
            sizeof(ArcId));
        const std::int64_t measured = ws.footprint_bytes() + csr_bytes;
        ASSERT_GT(measured, 0)
            << to_string(kind) << " nodes=" << nodes << " seed=" << seed;
        // Within 2x either way, with a small additive cushion for the
        // estimator's fixed slack on tiny instances.
        EXPECT_LE(measured, 2 * estimate + 8192)
            << to_string(kind) << " nodes=" << nodes << " seed=" << seed;
        EXPECT_LE(estimate, 2 * measured + 8192)
            << to_string(kind) << " nodes=" << nodes << " seed=" << seed;
      }
    }
  }
}

TEST(MemBudgetEstimate, FootprintIsTheWorstBackend) {
  const Graph g = random_flow_problem(7);
  const InstanceShape shape = measure_shape(g);
  const std::int64_t footprint = estimate_footprint(shape);
  for (const SolverKind kind :
       {SolverKind::kSuccessiveShortestPaths, SolverKind::kNetworkSimplex,
        SolverKind::kCostScaling, SolverKind::kCycleCanceling,
        SolverKind::kAuto}) {
    EXPECT_GE(footprint, estimate_solver_bytes(shape, kind))
        << to_string(kind);
  }
}

// The allocation-level estimate follows the encoding build_flow_graph
// picks and must never under-predict: over fuzz problems of both
// register models it covers the spec's bytes plus the solve's measured
// peak under a track-only budget.
TEST(MemBudgetEstimate, ProblemFootprintCoversSpecAndSolvePeak) {
  audit::DiffFuzzOptions fuzz;
  fuzz.max_vars = 60;
  fuzz.max_steps = 40;
  int sparse = 0;
  double min_ratio = 1e300;
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    const alloc::AllocationProblem p = audit::fuzz_problem(seed, fuzz);
    const alloc::FlowGraphSpec spec =
        alloc::build_flow_graph(p, alloc::GraphStyle::kDensityRegions);
    if (!spec.hub_node.empty()) ++sparse;
    SolveOptions opts;
    opts.chain = {SolverKind::kSuccessiveShortestPaths,
                  SolverKind::kNetworkSimplex};
    opts.memory_budget = MemoryBudget::make(0);
    const FlowSolution sol = solve_st_flow_robust(
        spec.graph, spec.s, spec.t, p.num_registers, opts);
    ASSERT_NE(sol.status, SolveStatus::kMemoryExceeded) << "seed " << seed;
    const std::int64_t spec_bytes =
        static_cast<std::int64_t>(spec.graph.num_arcs()) *
            static_cast<std::int64_t>(sizeof(Arc) +
                                      sizeof(alloc::FlowGraphSpec::ArcInfo)) +
        static_cast<std::int64_t>(spec.graph.num_nodes()) *
            static_cast<std::int64_t>(2 * sizeof(NodeId));
    const std::int64_t actual = spec_bytes + opts.memory_budget.peak();
    const std::int64_t estimate = alloc::estimate_problem_footprint(p);
    ASSERT_GE(estimate, actual) << "seed " << seed;
    min_ratio = std::min(min_ratio, static_cast<double>(estimate) /
                                        static_cast<double>(actual));
  }
  // Both encodings are covered.
  EXPECT_GT(sparse, 300);
  EXPECT_LT(sparse, 700);
  EXPECT_GE(min_ratio, 1.0);
}

// ---------------------------------------------------------------------
// Budget-refused attempts surface as kMemoryExceeded

TEST(MemBudgetSolve, TinyCapRefusesEveryAttemptTyped) {
  const Graph g = random_flow_problem(3);
  SolveOptions opts;
  opts.memory_budget = MemoryBudget::make(64);  // Below any estimate.
  SolverWorkspace ws;
  opts.workspace = &ws;
  SolveDiagnostics diag;
  const FlowSolution sol = solve_robust(g, opts, &diag);
  EXPECT_EQ(sol.status, SolveStatus::kMemoryExceeded);
  EXPECT_FALSE(sol.message.empty());
  EXPECT_TRUE(diag.memory_hit);
  ASSERT_FALSE(diag.attempts.empty());
  for (const SolveAttempt& a : diag.attempts) {
    EXPECT_EQ(a.status, SolveStatus::kMemoryExceeded);
  }
  EXPECT_GE(ws.counters.mem_denials, 1);
  EXPECT_EQ(ws.counters.mem_charged_bytes, 0);
  EXPECT_EQ(opts.memory_budget.used(), 0);
  EXPECT_GE(opts.memory_budget.denials(), 1);
}

// ---------------------------------------------------------------------
// OOM failpoint: every allocation-failure path unwinds typed

// Sweep every allocation site each backend visits: a bad_alloc thrown
// at any of them must surface as kMemoryExceeded — never a crash, and
// never a silently wrong answer.
TEST(OomFailpoint, SiteSweepOverAllBackendsUnwindsTyped) {
  const SolverKind kinds[] = {
      SolverKind::kSuccessiveShortestPaths, SolverKind::kNetworkSimplex,
      SolverKind::kCostScaling, SolverKind::kCycleCanceling};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    RandomFlowOptions opts;
    opts.min_cost = -15;
    for (const SolverKind kind : kinds) {
      // Dry run: count the sites this exact solve visits. A fresh graph
      // per solve keeps CSR-build sites in the count.
      std::int64_t sites = 0;
      {
        const Graph g = random_flow_problem(seed, opts);
        OomFailpoint dry({});
        const FlowSolution sol = solve(g, kind);
        ASSERT_NE(sol.status, SolveStatus::kMemoryExceeded);
        sites = dry.sites_seen();
      }
      ASSERT_GT(sites, 0) << to_string(kind);

      for (std::int64_t site = 1; site <= sites; ++site) {
        const Graph g = random_flow_problem(seed, opts);
        OomFailpoint::Options fp_opts;
        fp_opts.fail_at_site = site;
        OomFailpoint fp(fp_opts);
        const FlowSolution sol = solve(g, kind);
        EXPECT_EQ(sol.status, SolveStatus::kMemoryExceeded)
            << to_string(kind) << " seed=" << seed << " site=" << site;
        EXPECT_EQ(fp.failures_injected(), 1)
            << to_string(kind) << " seed=" << seed << " site=" << site;
        EXPECT_NE(sol.message.find("out of memory"), std::string::npos);
      }
    }
  }
}

TEST(OomFailpoint, ByteThresholdModeFiresTyped) {
  const Graph g = random_flow_problem(11);
  OomFailpoint::Options opts;
  opts.fail_above_bytes = 1;  // First site to announce any bytes fires.
  OomFailpoint fp(opts);
  const FlowSolution sol = solve(g, SolverKind::kNetworkSimplex);
  EXPECT_EQ(sol.status, SolveStatus::kMemoryExceeded);
  EXPECT_EQ(fp.failures_injected(), 1);
  EXPECT_GT(fp.bytes_seen(), 0);
}

// The robust chain treats an injected OOM like any environmental
// failure: the next backend picks the instance up and the final answer
// is still optimal, with the incident recorded in the diagnostics.
TEST(OomFailpoint, RobustChainRecoversAcrossBackends) {
  const Graph g = random_flow_problem(5);
  const FlowSolution expected = solve_robust(g);
  ASSERT_TRUE(expected.optimal());

  OomFailpoint::Options opts;
  opts.fail_at_site = 1;  // Kill the first attempt's first allocation.
  OomFailpoint fp(opts);
  SolveDiagnostics diag;
  const FlowSolution sol = solve_robust(g, {}, &diag);
  ASSERT_TRUE(sol.optimal()) << sol.message;
  EXPECT_EQ(sol.cost, expected.cost);
  EXPECT_EQ(fp.failures_injected(), 1);
  EXPECT_TRUE(diag.memory_hit);
  EXPECT_GE(diag.attempts.size(), 2u);
  EXPECT_EQ(diag.attempts.front().status, SolveStatus::kMemoryExceeded);
}

// Budgets stay balanced even when the failure happens mid-attempt: the
// RAII charge unwinds with the exception.
TEST(OomFailpoint, BudgetLedgerBalancedAfterInjectedFailure) {
  MemoryBudget root = MemoryBudget::make(0);
  for (std::int64_t site = 1; site <= 3; ++site) {
    const Graph g = random_flow_problem(9);
    OomFailpoint::Options fp_opts;
    fp_opts.fail_at_site = site;
    // Sites are numbered across the failpoint's whole lifetime (they
    // never reset per solve attempt), so this fires exactly once no
    // matter how generous max_failures is.
    fp_opts.max_failures = 1000;
    OomFailpoint fp(fp_opts);
    SolveOptions opts;
    opts.memory_budget = root;
    const FlowSolution sol = solve_robust(g, opts);
    (void)sol;  // Any typed status is fine; the ledger is the point.
    EXPECT_EQ(root.used(), 0) << "site " << site;
  }
}

}  // namespace
}  // namespace lera::netflow

// =====================================================================
// Engine + server degradation contract

namespace lera {
namespace {

constexpr const char* kTinyProblem =
    "steps 7\nregisters 3\n"
    "var a write 1 reads 3\nvar b write 2 reads 4\n"
    "var c write 3 reads 6\n";

alloc::AllocationProblem tiny_problem() {
  const workloads::ProblemParseResult parsed =
      workloads::parse_problem(kTinyProblem);
  EXPECT_TRUE(parsed.ok()) << parsed.error;
  return *parsed.problem;
}

// A per-solve cap too small for any flow-solve attempt must degrade to
// the two-phase baseline — flagged, never a crash or a silent failure.
TEST(EngineMemBudget, PerSolveCapDegradesToBaseline) {
  engine::EngineOptions opts;
  opts.threads = 1;
  opts.max_bytes_per_solve = 64;
  opts.alloc.fallback_to_baseline = true;
  const engine::Engine engine(opts);
  const alloc::AllocationResult r =
      engine.allocate_batch({tiny_problem()}).front();
  ASSERT_TRUE(r.feasible) << r.message;
  EXPECT_TRUE(r.degraded);
  EXPECT_TRUE(r.memory_exceeded);
  EXPECT_NE(r.message.find("memory"), std::string::npos) << r.message;

  const engine::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.solves_memory_exceeded, 1);
  EXPECT_GE(stats.perf.mem_denials, 1);
  EXPECT_EQ(stats.memory_bytes_in_use, 0);  // Ledger balanced.
}

TEST(EngineMemBudget, PerSolveCapWithoutFallbackIsTypedInfeasible) {
  engine::EngineOptions opts;
  opts.threads = 1;
  opts.max_bytes_per_solve = 64;
  opts.alloc.fallback_to_baseline = false;
  const engine::Engine engine(opts);
  const alloc::AllocationResult r =
      engine.allocate_batch({tiny_problem()}).front();
  EXPECT_FALSE(r.feasible);
  EXPECT_TRUE(r.memory_exceeded);
  EXPECT_FALSE(r.message.empty());
}

TEST(EngineMemBudget, UncappedEngineStillTracksPeak) {
  engine::EngineOptions opts;
  opts.threads = 1;
  const engine::Engine engine(opts);
  const alloc::AllocationResult r =
      engine.allocate_batch({tiny_problem()}).front();
  ASSERT_TRUE(r.feasible) << r.message;
  EXPECT_FALSE(r.memory_exceeded);
  const engine::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.solves_memory_exceeded, 0);
  EXPECT_GT(stats.memory_peak_bytes, 0);  // Track-only budget observed.
  EXPECT_GT(stats.perf.mem_charged_bytes, 0);
  EXPECT_EQ(stats.perf.mem_denials, 0);
}

}  // namespace
}  // namespace lera

namespace lera::server {
namespace {

std::string solve_frame(const std::string& id, const std::string& payload) {
  Frame f;
  f.verb = FrameVerb::kSolve;
  f.id = id;
  f.deadline_ms = -1;
  f.payload = payload;
  return encode_frame(f);
}

/// One scripted conversation against serve() over an in-memory channel
/// (same harness as test_server.cpp).
std::vector<std::string> converse(Server& server,
                                  const std::vector<std::string>& chunks) {
  MemoryChannel chan;
  std::thread serving([&] { server.serve(chan.server_end()); });
  for (const std::string& c : chunks) {
    if (!chan.client_end().write(c)) break;
  }
  chan.close_client_writes();
  serving.join();
  chan.close_server_writes();

  char buffer[4096];
  std::string acc;
  for (;;) {
    const std::ptrdiff_t n = chan.client_end().read(buffer, sizeof buffer);
    if (n == ByteStream::kReadAgain) continue;
    if (n <= 0) break;
    acc.append(buffer, static_cast<std::size_t>(n));
  }
  std::vector<std::string> lines;
  std::size_t nl;
  while ((nl = acc.find('\n')) != std::string::npos) {
    lines.push_back(acc.substr(0, nl));
    acc.erase(0, nl + 1);
  }
  return lines;
}

/// A problem large enough that its predicted footprint clearly
/// separates from the tiny one's: many overlapping variables.
std::string big_problem_text(int vars) {
  std::ostringstream os;
  os << "steps " << vars + 2 << "\nregisters 4\n";
  for (int v = 0; v < vars; ++v) {
    os << "var v" << v << " write " << v % (vars / 2) << " reads "
       << v % (vars / 2) + 2 << "\n";
  }
  return os.str();
}

TEST(ServerMemBudget, OversizedRequestShedsTypedWhileSmallOnesServe) {
  const std::string small_text = lera::kTinyProblem;
  const std::string big_text = big_problem_text(160);

  // Pick the cap between the two predicted footprints, so the test
  // stays valid if the estimator is recalibrated.
  const workloads::ProblemParseResult small_parsed =
      workloads::parse_problem(small_text);
  const workloads::ProblemParseResult big_parsed =
      workloads::parse_problem(big_text);
  ASSERT_TRUE(small_parsed.ok()) << small_parsed.error;
  ASSERT_TRUE(big_parsed.ok()) << big_parsed.error;
  const std::int64_t small_fp =
      alloc::estimate_problem_footprint(*small_parsed.problem);
  const std::int64_t big_fp =
      alloc::estimate_problem_footprint(*big_parsed.problem);
  ASSERT_GT(big_fp, 2 * small_fp);

  ServerOptions opts;
  opts.engine.threads = 1;
  opts.engine.max_bytes_per_solve = (small_fp + big_fp) / 2;
  Server server(opts);
  const std::vector<std::string> lines = converse(
      server, {solve_frame("ok1", small_text),
               solve_frame("toobig", big_text),
               solve_frame("ok2", small_text)});
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].rfind("LERA_RESULT ok1 status=ok", 0), 0u)
      << lines[0];
  EXPECT_EQ(
      lines[1].rfind("LERA_REJECT toobig reason=memory_infeasible", 0),
      0u)
      << lines[1];
  EXPECT_NE(lines[1].find("detail=predicted solve footprint"),
            std::string::npos)
      << lines[1];
  EXPECT_EQ(lines[2].rfind("LERA_RESULT ok2 status=ok", 0), 0u)
      << lines[2];

  // Typed accounting: the shed request is a memory_infeasible reject,
  // and every admitted slot was returned.
  const MetricsSnapshot s = server.metrics();
  EXPECT_EQ(s.rejected_by_reason[static_cast<int>(
                RejectReason::kMemoryInfeasible)],
            1);
  EXPECT_EQ(s.accounted_requests(), s.solve_requests);
}

TEST(ServerMemBudget, HealthAndStatsExposeMemoryCounters) {
  ServerOptions opts;
  opts.engine.threads = 1;
  opts.engine.max_bytes_total = 64 << 20;
  Server server(opts);
  const std::vector<std::string> lines = converse(
      server, {solve_frame("s", lera::kTinyProblem), "HEALTH 0 id=h\n",
               "STATS 0 id=st\n"});
  ASSERT_GE(lines.size(), 3u);
  const std::string* health = nullptr;
  bool saw_peak_metric = false;
  bool saw_denials_metric = false;
  for (const std::string& line : lines) {
    if (line.rfind("LERA_HEALTH h ", 0) == 0) health = &line;
    if (line.rfind("LERA_METRIC server_memory_peak_bytes ", 0) == 0) {
      saw_peak_metric = true;
    }
    if (line.rfind("LERA_METRIC server_memory_denials ", 0) == 0) {
      saw_denials_metric = true;
    }
  }
  ASSERT_NE(health, nullptr);
  EXPECT_NE(health->find(" mem_bytes="), std::string::npos) << *health;
  EXPECT_NE(health->find(" mem_peak_bytes="), std::string::npos)
      << *health;
  EXPECT_NE(health->find(" mem_cap_bytes=67108864"), std::string::npos)
      << *health;
  EXPECT_TRUE(saw_peak_metric);
  EXPECT_TRUE(saw_denials_metric);

  const HealthStatus h = server.health();
  EXPECT_EQ(h.memory_cap_bytes, 64 << 20);
  EXPECT_GE(h.memory_peak_bytes, 0);
  EXPECT_EQ(h.memory_bytes_in_use, server.engine().memory_budget().used());
}

}  // namespace
}  // namespace lera::server
