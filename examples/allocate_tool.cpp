// Command-line allocator: read a basic block in LERA's text format,
// schedule it, and print the minimum-energy register/memory assignment.
//
//   ./build/examples/allocate_tool kernel.lera [options]
//     -r N          registers (default 4)
//     -p N          memory access period (default 1 = every step)
//     -m MODEL      static | activity (default activity)
//     -g GRAPH      density | allpairs (default density)
//     -l FILE       read a lifetime problem (problem_io format) instead
//                   of a code kernel; -r/-p of the file take precedence
//     --solver S    auto | ssp | simplex (default auto): primary
//                   min-cost-flow backend; auto picks per instance (SSP
//                   up to 12 registers, network simplex above;
//                   netflow/select.hpp) and the chosen backend appears
//                   in the solver diagnostics line / CSV solver column
//     --threads N   engine worker threads (0 = all cores, 1 = sequential;
//                   results are identical either way)
//     --deadline-ms N  wall-clock budget for the whole run; overrunning
//                   solves degrade to the two-phase baseline (or are
//                   skipped) and print "LERA_TIMEOUT <task> <detail>";
//                   a run curtailed this way exits 3
//     --max-bytes N per-solve memory budget in bytes (0 = unlimited);
//                   a solve whose predicted footprint the budget refuses
//                   degrades to the two-phase baseline, or prints
//                   "LERA_ERROR <task> kind=memory <detail>" and exits 4
//                   when no usable answer remains
//     --audit L     off | legality | full (default off): run the
//                   independent auditor on every result; findings are
//                   printed as LERA_AUDIT lines and make the exit
//                   non-zero
//     --pipeline    treat every positional file as one task of a task
//                   chain and run the whole §5 pipeline; each infeasible
//                   task prints "LERA_ERROR <task> <reason>" and the
//                   exit is non-zero
//     --explore     co-explore schedules via the parallel engine and
//                   print the candidate table instead of one allocation
//     --perf        print the engine's solver performance counters
//                   (augmentations, heap traffic, workspace/warm-start
//                   hits, per-phase ns) as one "LERA_PERF ..." line
//     --cache       enable the engine's certified allocation cache,
//                   re-submit the identical instance through it after
//                   the cold solve, and print one "LERA_CACHE hit|miss"
//                   line per solve — scripts can verify the cache
//                   round-trip (miss, then hit, served bit-identical)
//                   without standing up lera_server
//     --csv         machine-readable output
//     --asm         also print the lowered load/store/compute listing
//
// Any infeasible allocation prints a machine-readable line
//   LERA_ERROR <task> <reason>
// on stdout and exits non-zero, so scripts can grep for failures
// without parsing the human-facing report. Malformed input files print
//   LERA_ERROR <file> bad_request: <parser diagnostic>
// (same reason word the server's LERA_REJECT uses), deadline-curtailed
// work prints
//   LERA_TIMEOUT <task> <detail>
// the same way, and memory-budget-refused work prints
//   LERA_ERROR <task> kind=memory <detail>
// (same failure class the server sheds as memory_infeasible). Exit
// codes: 0 ok, 1 infeasible or bad input (usage errors included), 2
// audit findings, 3 timed-out-degraded (usable but deadline-curtailed
// output), 4 memory-budget-refused with no usable answer. Keep these
// aligned with docs/API.md.
//
// With no file argument a built-in demo kernel is used. See
// src/ir/parser.hpp and src/workloads/problem_io.hpp for the grammars.

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "alloc/allocator.hpp"
#include "alloc/memory_layout.hpp"
#include "codegen/codegen.hpp"
#include "engine/engine.hpp"
#include "ir/parser.hpp"
#include "report/ascii_chart.hpp"
#include "report/table.hpp"
#include "sched/schedule.hpp"
#include "workloads/kernels.hpp"
#include "workloads/problem_io.hpp"

namespace {

/// One machine-readable failure line per infeasible task. Grep target
/// for scripts; keep the format in sync with the header comment.
void print_error_line(const std::string& task, const std::string& reason) {
  std::cout << "LERA_ERROR " << task << " "
            << (reason.empty() ? "allocation infeasible" : reason) << "\n";
}

/// Audit findings in the same grep-friendly shape (non-zero exit is the
/// caller's job).
void print_audit_findings(const std::string& task,
                          const lera::audit::AuditReport& audit) {
  for (const lera::audit::AuditFinding& f : audit.findings) {
    std::cout << "LERA_AUDIT " << task << " " << f.to_string() << "\n";
  }
}

/// Deadline-curtailed work, grep-friendly like LERA_ERROR (exit 3 is
/// the caller's job).
void print_timeout_line(const std::string& task, const std::string& detail) {
  std::cout << "LERA_TIMEOUT " << task << " "
            << (detail.empty() ? "deadline curtailed the solve" : detail)
            << "\n";
}

/// Memory-budget-refused work: the typed kind= marker lets scripts
/// separate "needs a bigger budget" (exit 4) from genuine
/// infeasibility (exit 1).
void print_memory_line(const std::string& task, const std::string& detail) {
  std::cout << "LERA_ERROR " << task << " kind=memory "
            << (detail.empty() ? "solve memory budget exhausted" : detail)
            << "\n";
}

constexpr const char* kDemo = R"(# demo: complex multiply + accumulate
in ar, ai, br, bi, acc
p0 = ar * br
p1 = ai * bi
p2 = ar * bi
p3 = ai * br
re = p0 - p1
im = p2 + p3
s = re + acc
out s
out im
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace lera;

  std::string source = kDemo;
  std::string source_name = "(built-in demo)";
  std::string lifetimes_path;
  std::vector<std::string> positional;
  int registers = 4;
  int period = 1;
  int threads = 1;
  int deadline_ms = 0;
  long long max_bytes = 0;
  bool csv = false;
  bool perf = false;
  bool use_cache = false;
  bool emit_asm = false;
  bool explore = false;
  bool pipeline = false;
  audit::AuditLevel audit_level = audit::AuditLevel::kOff;
  energy::EnergyParams params;
  params.register_model = energy::RegisterModel::kActivity;
  alloc::AllocatorOptions alloc_opts;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string{};
    };
    auto next_int = [&](const char* flag) {
      const std::string v = next();
      try {
        return std::stoi(v);
      } catch (...) {
        std::cerr << "error: " << flag << " requires an integer, got '"
                  << v << "'\n";
        std::exit(1);
      }
    };
    if (arg == "-r") {
      registers = next_int("-r");
    } else if (arg == "-p") {
      period = next_int("-p");
    } else if (arg == "-m") {
      const std::string m = next();
      if (m == "static") {
        params.register_model = energy::RegisterModel::kStatic;
      } else if (m == "activity") {
        params.register_model = energy::RegisterModel::kActivity;
      } else {
        std::cerr << "error: -m expects static|activity, got '" << m
                  << "'\n";
        return 1;
      }
    } else if (arg == "-g") {
      const std::string style = next();
      if (style == "density") {
        alloc_opts.style = alloc::GraphStyle::kDensityRegions;
      } else if (style == "allpairs") {
        alloc_opts.style = alloc::GraphStyle::kAllPairs;
      } else {
        std::cerr << "error: -g expects density|allpairs, got '" << style
                  << "'\n";
        return 1;
      }
    } else if (arg == "-l") {
      lifetimes_path = next();
    } else if (arg == "--solver" || arg.rfind("--solver=", 0) == 0) {
      const std::string name =
          arg.size() > 8 && arg[8] == '=' ? arg.substr(9) : next();
      if (name == "auto") {
        alloc_opts.solver = netflow::SolverKind::kAuto;
      } else if (name == "ssp") {
        alloc_opts.solver = netflow::SolverKind::kSuccessiveShortestPaths;
      } else if (name == "simplex") {
        alloc_opts.solver = netflow::SolverKind::kNetworkSimplex;
      } else {
        std::cerr << "error: --solver expects auto|ssp|simplex, got '"
                  << name << "'\n";
        return 1;
      }
    } else if (arg == "--threads") {
      threads = next_int("--threads");
    } else if (arg == "--deadline-ms") {
      deadline_ms = next_int("--deadline-ms");
    } else if (arg == "--max-bytes") {
      const std::string v = next();
      try {
        max_bytes = std::stoll(v);
      } catch (...) {
        std::cerr << "error: --max-bytes requires an integer, got '" << v
                  << "'\n";
        return 1;
      }
      if (max_bytes < 0) {
        std::cerr << "error: --max-bytes must be non-negative\n";
        return 1;
      }
    } else if (arg == "--audit") {
      const std::string level = next();
      if (level == "off") {
        audit_level = audit::AuditLevel::kOff;
      } else if (level == "legality") {
        audit_level = audit::AuditLevel::kLegality;
      } else if (level == "full") {
        audit_level = audit::AuditLevel::kFullCost;
      } else {
        std::cerr << "error: --audit expects off|legality|full, got '"
                  << level << "'\n";
        return 1;
      }
    } else if (arg == "--pipeline") {
      pipeline = true;
    } else if (arg == "--explore") {
      explore = true;
    } else if (arg == "--perf") {
      perf = true;
    } else if (arg == "--cache") {
      use_cache = true;
    } else if (arg == "--csv") {
      csv = true;
    } else if (arg == "--asm") {
      emit_asm = true;
    } else if (arg == "-h" || arg == "--help") {
      std::cout << "usage: allocate_tool [file.lera...] [-r N] [-p N] "
                   "[-m static|activity] [-g density|allpairs] "
                   "[--solver auto|ssp|simplex] "
                   "[--threads N] [--deadline-ms N] "
                   "[--max-bytes N] [--audit off|legality|full] "
                   "[--pipeline] [--explore] [--perf] [--cache] "
                   "[--csv]\n";
      return 0;
    } else if (arg.rfind('-', 0) == 0) {
      std::cerr << "error: unknown option '" << arg
                << "' (see --help)\n";
      return 1;
    } else {
      positional.push_back(arg);
    }
  }

  if (!pipeline && positional.size() > 1) {
    std::cerr << "error: multiple input files need --pipeline\n";
    return 1;
  }
  if (!positional.empty() && !pipeline) {
    std::ifstream in(positional.front());
    if (!in) {
      std::cerr << "cannot open " << positional.front() << "\n";
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    source = buffer.str();
    source_name = positional.front();
  }

  alloc::AllocationProblem p;
  std::optional<ir::BasicBlock> block;
  std::optional<sched::Schedule> block_schedule;
  if (pipeline) {
    // Problem setup below is for the single-kernel modes; the pipeline
    // branch parses its own task files.
  } else if (!lifetimes_path.empty()) {
    std::ifstream in(lifetimes_path);
    if (!in) {
      std::cerr << "cannot open " << lifetimes_path << "\n";
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const workloads::ProblemParseResult parsed =
        workloads::parse_problem(buffer.str(), params);
    if (!parsed.ok()) {
      // Malformed input is a typed, grep-able failure like every other
      // kind — same shape the server's bad_request rejection uses.
      print_error_line(lifetimes_path, "bad_request: " + parsed.error);
      std::cerr << lifetimes_path << ": " << parsed.error << "\n";
      return 1;
    }
    p = *parsed.problem;
    source_name = lifetimes_path;
  } else {
    const ir::ParseResult parsed = ir::parse_block(source, source_name);
    if (!parsed.ok()) {
      print_error_line(source_name, "bad_request: " + parsed.error);
      std::cerr << source_name << ": " << parsed.error << "\n";
      return 1;
    }
    block = *parsed.block;
    const ir::BasicBlock& bb = *block;
    block_schedule = sched::list_schedule(bb, {2, 1});
    lifetime::SplitOptions split;
    split.access.period = period;
    p = alloc::make_problem_from_block(
        bb, *block_schedule, registers, params,
        workloads::random_inputs(bb, 32, 1), split);
    std::cout << source_name << ": " << bb.num_ops() << " ops, schedule "
              << block_schedule->length(bb) << " steps, R = " << registers
              << "\n\n";
  }
  // One unified option core drives every solve below: the single
  // allocation and the (parallel) schedule exploration.
  engine::EngineOptions eng_opts;
  eng_opts.num_registers = registers;
  eng_opts.params = params;
  eng_opts.split.access.period = period;
  eng_opts.alloc = alloc_opts;
  eng_opts.threads = threads;
  eng_opts.audit_level = audit_level;
  if (deadline_ms > 0) {
    eng_opts.run_deadline_seconds = deadline_ms / 1000.0;
    // Anytime mode: an overrunning flow solve degrades to the two-phase
    // baseline (flagged + exit 3) instead of failing outright.
    eng_opts.alloc.fallback_to_baseline = true;
  }
  if (use_cache) eng_opts.cache_entries = 256;
  if (max_bytes > 0) {
    eng_opts.max_bytes_per_solve = max_bytes;
    // Like the deadline path: a budget-refused flow solve degrades to
    // the two-phase baseline (flagged) rather than failing outright.
    eng_opts.alloc.fallback_to_baseline = true;
  }
  const engine::Engine engine(eng_opts);
  // Solver perf counters are aggregated engine-wide; one grep-friendly
  // line after the mode's output (see netflow::PerfCounters::summary).
  const auto print_perf = [&engine, perf] {
    if (perf) {
      std::cout << "LERA_PERF " << engine.stats().perf.summary() << "\n";
    }
  };

  if (pipeline) {
    if (positional.empty()) {
      std::cerr << "error: --pipeline needs at least one kernel file\n";
      return 1;
    }
    // Each file is one task; files form a chain (task i depends on
    // task i-1), matching the paper's sequential task execution model.
    ir::TaskGraph graph;
    ir::TaskId prev = -1;
    for (const std::string& path : positional) {
      std::ifstream in(path);
      if (!in) {
        std::cerr << "cannot open " << path << "\n";
        return 1;
      }
      std::ostringstream buffer;
      buffer << in.rdbuf();
      const ir::ParseResult parsed = ir::parse_block(buffer.str(), path);
      if (!parsed.ok()) {
        print_error_line(path, "bad_request: " + parsed.error);
        std::cerr << path << ": " << parsed.error << "\n";
        return 1;
      }
      prev = graph.add_task(
          path, *parsed.block,
          prev >= 0 ? std::vector<ir::TaskId>{prev}
                    : std::vector<ir::TaskId>{});
    }

    const engine::PipelineReport rep = engine.run(graph);
    report::Table tasks_table(
        {"task", "steps", "energy", "mem", "reg", "status"});
    for (const engine::TaskReport& tr : rep.tasks) {
      const double task_energy =
          params.register_model == energy::RegisterModel::kStatic
              ? tr.result.static_energy.total()
              : tr.result.activity_energy.total();
      tasks_table.add_row(
          {tr.name, report::Table::num(tr.schedule_length),
           tr.feasible ? report::Table::num(task_energy) : "-",
           report::Table::num(tr.result.stats.mem_accesses()),
           report::Table::num(tr.result.stats.reg_accesses()),
           tr.feasible ? (tr.result.degraded ? "degraded" : "ok")
                       : "INFEASIBLE"});
    }
    if (csv) {
      tasks_table.print_csv(std::cout);
    } else {
      tasks_table.print(std::cout);
      std::cout << "\ntotal energy "
                << report::Table::num(rep.total_static_energy +
                                      rep.total_activity_energy)
                << ", peak memory " << rep.peak_mem_locations
                << " locations (" << engine.threads()
                << " engine threads)\n";
    }

    print_perf();
    bool audit_failed = false;
    for (const engine::TaskReport& tr : rep.tasks) {
      if (tr.audit.audited && !tr.audit.clean()) {
        audit_failed = true;
        print_audit_findings(tr.name, tr.audit);
      }
    }
    // A task the deadline curtailed prints LERA_TIMEOUT; only tasks
    // that are infeasible for real reasons print LERA_ERROR. Exit: a
    // genuine infeasibility wins (1), then audit findings (2), then a
    // deadline-curtailed-but-usable run (3).
    bool genuine_infeasible = false;
    for (const ir::TaskId id : rep.infeasible_tasks) {
      const engine::TaskReport& tr =
          *std::find_if(rep.tasks.begin(), rep.tasks.end(),
                        [&](const engine::TaskReport& t) {
                          return t.task == id;
                        });
      if (tr.timed_out) continue;
      genuine_infeasible = true;
      print_error_line(tr.name, tr.failure_reason);
    }
    for (const ir::TaskId id : rep.timed_out_tasks) {
      const engine::TaskReport& tr =
          *std::find_if(rep.tasks.begin(), rep.tasks.end(),
                        [&](const engine::TaskReport& t) {
                          return t.task == id;
                        });
      print_timeout_line(tr.name, tr.feasible
                                      ? "solve degraded under the deadline"
                                      : tr.failure_reason);
    }
    if (genuine_infeasible) return 1;
    if (audit_failed) return 2;
    return rep.tasks_timed_out > 0 ? 3 : 0;
  }

  if (explore) {
    if (!block) {
      std::cerr << "--explore needs a code kernel, not a lifetime file\n";
      return 1;
    }
    const engine::ExploreResult ex = engine.explore(*block);
    report::Table candidates(
        {"candidate", "length", "max density", "energy", "feasible"});
    for (std::size_t i = 0; i < ex.candidates.size(); ++i) {
      const engine::ScheduleCandidate& c = ex.candidates[i];
      candidates.add_row(
          {(static_cast<int>(i) == ex.best ? "* " : "  ") + c.label,
           report::Table::num(c.length), report::Table::num(c.max_density),
           c.feasible ? report::Table::num(c.energy) : "-",
           c.feasible ? "yes" : "no"});
    }
    if (csv) {
      candidates.print_csv(std::cout);
    } else {
      candidates.print(std::cout);
      std::cout << "\n(" << engine.threads()
                << " engine threads; * marks the cheapest feasible "
                   "candidate)\n";
    }
    print_perf();
    bool audit_failed = false;
    for (const engine::ScheduleCandidate& c : ex.candidates) {
      if (c.audit.audited && !c.audit.clean()) {
        audit_failed = true;
        print_audit_findings(c.label, c.audit);
      }
    }
    // No feasible candidate wins (1), then audit findings (2).
    if (ex.best < 0) return 1;
    return audit_failed ? 2 : 0;
  }

  const alloc::AllocationResult r = engine.allocate_batch({p}).front();
  if (use_cache) {
    // The cold solve above always misses (the cache starts empty);
    // resubmitting the identical instance must hit and serve the same
    // placement. Both outcomes print, so a script can assert the
    // round-trip: grep for a "LERA_CACHE hit" with identical=1.
    std::cout << "LERA_CACHE miss\n";
    const bool reusable = r.feasible && !r.degraded && !r.timed_out;
    if (reusable) {
      const std::int64_t hits_before = engine.stats().cache.hits;
      const alloc::AllocationResult again =
          engine.allocate_batch({p}).front();
      const bool hit = engine.stats().cache.hits > hits_before;
      bool identical = again.assignment.size() == r.assignment.size();
      for (std::size_t s = 0; identical && s < r.assignment.size(); ++s) {
        identical = again.assignment.in_register(s) ==
                        r.assignment.in_register(s) &&
                    again.assignment.location(s) == r.assignment.location(s);
      }
      std::cout << "LERA_CACHE " << (hit ? "hit" : "miss")
                << " identical=" << (identical ? 1 : 0) << "\n";
    }
  }
  print_perf();
  if (!r.feasible) {
    if (r.memory_exceeded) {
      // No usable answer and the cause is the memory budget, not the
      // problem: scripts distinguish "budget too small" (4) from
      // "problem infeasible" (1).
      print_memory_line(source_name, r.message);
      std::cerr << "memory budget refused the solve: " << r.message
                << "\n";
      return 4;
    }
    if (r.timed_out) {
      // No usable answer, but the cause is the deadline, not the
      // problem: scripts distinguish "deadline too tight" (3) from
      // "problem infeasible" (1).
      print_timeout_line(source_name, r.message);
      std::cerr << "deadline curtailed the solve: " << r.message << "\n";
      return 3;
    }
    print_error_line(source_name, r.message);
    std::cerr << "allocation infeasible: " << r.message << "\n";
    std::cerr << "solver diagnostics: " << r.solve_diagnostics.summary()
              << "\n";
    for (const std::string& issue :
         r.solve_diagnostics.instance_errors) {
      std::cerr << "  instance error: " << issue << "\n";
    }
    return 1;
  }
  int exit_code = 0;
  if (r.timed_out) {
    exit_code = 3;
    print_timeout_line(source_name, "solve degraded under the deadline");
  }
  if (r.degraded) {
    std::cerr << "warning: " << r.message << "\n";
  }
  if (r.audit.audited && !r.audit.clean()) {
    print_audit_findings(source_name, r.audit);
    std::cerr << "audit: " << r.audit.summary() << "\n";
    return 2;
  }

  report::Table table({"segment", "interval", "placement"});
  for (std::size_t s = 0; s < p.segments.size(); ++s) {
    const auto& seg = p.segments[s];
    table.add_row(
        {p.lifetimes[static_cast<std::size_t>(seg.var)].name +
             (seg.index ? "#" + std::to_string(seg.index) : ""),
         "[" + std::to_string(seg.start) + "," + std::to_string(seg.end) +
             ")",
         r.assignment.in_register(s)
             ? "r" + std::to_string(r.assignment.location(s))
             : "memory"});
  }

  if (csv) {
    table.print_csv(std::cout);
    std::cout << "mem_accesses," << r.stats.mem_accesses() << "\n"
              << "reg_accesses," << r.stats.reg_accesses() << "\n"
              << "mem_locations," << r.stats.mem_locations << "\n"
              << "energy," << r.energy(p) << "\n"
              << "degraded," << (r.degraded ? 1 : 0) << "\n"
              << "timed_out," << (r.timed_out ? 1 : 0) << "\n"
              << "memory_exceeded," << (r.memory_exceeded ? 1 : 0) << "\n"
              << "solver,"
              << (r.degraded
                      ? std::string("two-phase-baseline")
                      : to_string(r.solve_diagnostics.solver_used))
              << "\n"
              << "solver_fallbacks,"
              << r.solve_diagnostics.fallbacks_taken << "\n";
    return exit_code;
  }

  report::draw_lifetimes(std::cout, p, &r.assignment);
  std::cout << "\n";
  table.print(std::cout);
  if (emit_asm && block) {
    const alloc::MemoryLayout layout =
        alloc::optimize_memory_layout(p, r.assignment);
    const codegen::Program program = codegen::emit(
        *block, *block_schedule, p, r.assignment, layout);
    std::cout << "\nlowered code (" << program.code_size()
              << " instructions, " << program.loads << " loads, "
              << program.stores << " stores):\n"
              << program.to_string();
  }
  std::cout << "\nsolver: " << r.solve_diagnostics.summary() << "\n";
  std::cout << "\nmem accesses " << r.stats.mem_accesses()
            << ", reg accesses " << r.stats.reg_accesses()
            << ", memory locations " << r.stats.mem_locations
            << "\nenergy " << report::Table::num(r.energy(p))
            << " add-units ("
            << (params.register_model == energy::RegisterModel::kStatic
                    ? "static"
                    : "activity")
            << " model)\n";
  return exit_code;
}
