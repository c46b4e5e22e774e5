#include "expected.hpp"

#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <unordered_set>

#include "alloc/exhaustive.hpp"
#include "alloc/memory_layout.hpp"
#include "audit/audit.hpp"
#include "common.hpp"
#include "workloads/problem_io.hpp"

namespace perfbench {

namespace alloc = lera::alloc;
namespace netflow = lera::netflow;

bool read_expected(const std::string& path, ExpectedMap& out,
                   std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot read " + path;
    return false;
  }
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    std::string key_hex;
    Expected e;
    if (!(is >> key_hex >> e.flow_cost >> e.energy >> e.layout_energy) ||
        key_hex.size() != 16) {
      error = path + ": line " + std::to_string(line_no) + " is malformed";
      return false;
    }
    out[std::stoull(key_hex, nullptr, 16)] = e;
  }
  return true;
}

std::vector<OracleItem> oracle_items(Workload w, std::uint64_t seed,
                                     double seconds) {
  std::vector<OracleItem> items;
  std::unordered_set<std::uint64_t> keys;
  const auto add = [&](std::uint64_t key, std::string label,
                       alloc::AllocationProblem p,
                       const alloc::AllocatorOptions& opts, bool layout) {
    if (!keys.insert(key).second) return;
    items.push_back({key, std::move(label), std::move(p), opts, layout});
  };
  const std::string tag = std::string(to_string(w)) + " seed=" +
                          std::to_string(seed) + " ";
  switch (w) {
    case Workload::kCompileLarge: {
      const CompileInputs in = make_compile_inputs(seed);
      const alloc::AllocatorOptions opts = compile_engine_options().alloc;
      for (std::size_t i = 0; i < in.pool.size(); ++i) {
        add(in.pool[i].key,
            tag + "block=" + std::to_string(i) +
                " vars=" + std::to_string(in.pool[i].vars),
            in.pool[i].batch.front(), opts, false);
      }
      break;
    }
    case Workload::kPipelineKernels: {
      const PipelineInputs in = make_pipeline_inputs(seed);
      for (const lera::ir::Task& t : in.graph.tasks()) {
        alloc::AllocationProblem p = pipeline_task_problem(t, in.options);
        const std::uint64_t key = problem_key(p);
        add(key, tag + "task=" + t.name, std::move(p), in.options.alloc,
            true);
      }
      break;
    }
    case Workload::kServeRepeat: {
      const ServeInputs in = make_serve_inputs(seed, seconds);
      const lera::server::ServerOptions so = serve_server_options();
      alloc::AllocatorOptions opts = so.engine.alloc;
      for (std::size_t i = 0; i < in.stream.size(); ++i) {
        const ServeRequest& r = in.stream[i];
        if (keys.count(r.expect_key) != 0) continue;
        lera::workloads::ProblemParseResult parsed =
            lera::workloads::parse_problem(*r.payload, so.engine.params);
        if (!parsed.ok()) continue;  // Surfaces as a missing expectation.
        add(r.expect_key,
            tag + "request=" + std::to_string(i) + " class=" +
                std::string(1, static_cast<char>(r.cls)),
            std::move(*parsed.problem), opts, false);
      }
      break;
    }
    case Workload::kServeHits: {
      // The warm-up holds every problem the cycle asks for.
      const HitsInputs in = make_hits_inputs(seed);
      const lera::server::ServerOptions so = serve_server_options();
      for (std::size_t i = 0; i < in.warmup.size(); ++i) {
        const ServeRequest& r = in.warmup[i];
        lera::workloads::ProblemParseResult parsed =
            lera::workloads::parse_problem(*r.payload, so.engine.params);
        if (!parsed.ok()) continue;  // Surfaces as a missing expectation.
        add(r.expect_key,
            tag + "warmup=" + std::to_string(i) + " pool=" +
                std::to_string(r.pool_index) + " class=" +
                std::string(1, static_cast<char>(r.cls)),
            std::move(*parsed.problem), so.engine.alloc, false);
      }
      break;
    }
  }
  return items;
}

std::optional<Expected> compute_expected(const OracleItem& item,
                                         std::string& error) {
  const alloc::AllocationProblem& p = item.problem;
  const alloc::AllocationResult r = alloc::allocate(p, item.options);
  if (!r.feasible || r.degraded) {
    error = "default path failed: " + r.message;
    return std::nullopt;
  }
  Expected e;
  e.flow_cost = r.flow_cost;
  e.energy = r.energy(p);

  // Independent backend on the same instance.
  const alloc::FlowGraphSpec spec = alloc::build_flow_graph(
      p, item.options.style, item.options.quantizer);
  netflow::SolveOptions ns_opts;
  ns_opts.chain = {netflow::SolverKind::kNetworkSimplex};
  ns_opts.certify = netflow::CertifyLevel::kOptimal;
  const netflow::FlowSolution ns = netflow::solve_st_flow_robust(
      spec.graph, spec.s, spec.t, p.num_registers, ns_opts);
  if (!ns.optimal() || ns.cost != r.flow_cost) {
    error = "network simplex disagrees: cost " + std::to_string(ns.cost) +
            " vs " + std::to_string(r.flow_cost);
    return std::nullopt;
  }

  // Brute force where it is defined and affordable.
  const lera::energy::RegisterModel model = p.params.register_model;
  if (p.segments.size() <= 14 &&
      (model == lera::energy::RegisterModel::kStatic ||
       p.num_registers <= 1)) {
    const auto ex = alloc::exhaustive_allocate(p, model);
    if (!ex || !close_rel(ex->energy, e.energy, 1e-6)) {
      error = "exhaustive optimum disagrees";
      return std::nullopt;
    }
  }

  lera::audit::AuditOptions aopts;
  aopts.level = lera::audit::AuditLevel::kFullCost;
  const lera::audit::AuditReport report =
      lera::audit::audit_result(p, r, aopts);
  if (!report.clean()) {
    error = report.summary();
    return std::nullopt;
  }

  if (item.layout) {
    const alloc::MemoryLayout a = alloc::optimize_memory_layout(
        p, r.assignment, item.options.quantizer, item.options.solver);
    const alloc::MemoryLayout b = alloc::optimize_memory_layout(
        p, r.assignment, item.options.quantizer,
        netflow::SolverKind::kNetworkSimplex);
    if (!a.feasible || !b.feasible ||
        !close_rel(a.optimized_energy, b.optimized_energy, 1e-9)) {
      error = "memory relayout disagrees between backends";
      return std::nullopt;
    }
    e.layout_energy = a.optimized_energy;
  }
  return e;
}

void write_expected_line(std::ostream& os, const OracleItem& item,
                         const Expected& e) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s %lld %.17g %.17g ",
                hex64(item.key).c_str(),
                static_cast<long long>(e.flow_cost), e.energy,
                e.layout_energy);
  os << buf << item.label << "\n";
}

bool matches(const Expected& want, std::int64_t flow_cost, double energy) {
  return want.flow_cost == flow_cost && close_rel(want.energy, energy, 1e-9);
}

}  // namespace perfbench
