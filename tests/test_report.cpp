#include <gtest/gtest.h>

#include <sstream>

#include "report/ascii_chart.hpp"
#include "report/dot.hpp"
#include "report/gantt.hpp"
#include "report/table.hpp"
#include "sched/schedule.hpp"
#include "workloads/kernels.hpp"
#include "workloads/paper_examples.hpp"
#include "alloc/allocator.hpp"

namespace lera::report {
namespace {

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name      | value |"), std::string::npos);
  EXPECT_NE(out.find("| long-name | 22    |"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("|-"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table t({"x", "y"});
  t.add_row({"1", "2"});
  t.add_row({"3", "4"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "x,y\n1,2\n3,4\n");
}

TEST(Table, ShortRowsPadded) {
  Table t({"a", "b", "c"});
  t.add_row({"only"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b,c\nonly,,\n");
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(1.5), "1.50");
  EXPECT_EQ(Table::num(1.234, 1), "1.2");
  EXPECT_EQ(Table::num(7), "7");
}

TEST(Dot, EmitsAllNodesAndArcs) {
  const alloc::AllocationProblem p = workloads::figure3_problem();
  const alloc::FlowGraphSpec spec =
      alloc::build_flow_graph(p, alloc::GraphStyle::kDensityRegions);
  std::ostringstream os;
  write_dot(os, p, spec);
  const std::string out = os.str();
  EXPECT_NE(out.find("digraph flow"), std::string::npos);
  EXPECT_NE(out.find("\"s\""), std::string::npos);
  EXPECT_NE(out.find("\"t\""), std::string::npos);
  EXPECT_NE(out.find("w0(a)"), std::string::npos);
  // One edge line per arc.
  std::size_t edges = 0;
  for (std::size_t pos = out.find(" -> "); pos != std::string::npos;
       pos = out.find(" -> ", pos + 1)) {
    ++edges;
  }
  EXPECT_EQ(edges, static_cast<std::size_t>(spec.graph.num_arcs()));
}

TEST(Dot, HighlightsFlow) {
  const alloc::AllocationProblem p = workloads::figure3_problem();
  const alloc::FlowGraphSpec spec =
      alloc::build_flow_graph(p, alloc::GraphStyle::kDensityRegions);
  const netflow::FlowSolution sol = netflow::solve_st_flow(
      spec.graph, spec.s, spec.t, p.num_registers);
  ASSERT_TRUE(sol.optimal());
  std::ostringstream os;
  write_dot(os, p, spec, &sol);
  EXPECT_NE(os.str().find("color=red"), std::string::npos);
}

TEST(AsciiChart, PlainLifetimes) {
  const alloc::AllocationProblem p = workloads::figure3_problem();
  std::ostringstream os;
  draw_lifetimes(os, p);
  const std::string out = os.str();
  EXPECT_NE(out.find("boundary a b c d e f"), std::string::npos);
  EXPECT_NE(out.find("<- peak"), std::string::npos);
  // Figure 3 has max density everywhere from boundary 1 to 6.
  std::size_t peaks = 0;
  for (std::size_t pos = out.find("<- peak"); pos != std::string::npos;
       pos = out.find("<- peak", pos + 1)) {
    ++peaks;
  }
  EXPECT_EQ(peaks, 6u);
}

TEST(AsciiChart, ShowsPlacements) {
  const alloc::AllocationProblem p = workloads::figure3_problem();
  const alloc::AllocationResult r = alloc::allocate(p);
  ASSERT_TRUE(r.feasible);
  std::ostringstream os;
  draw_lifetimes(os, p, &r.assignment);
  const std::string out = os.str();
  EXPECT_NE(out.find('0'), std::string::npos);   // Register 0 used.
  EXPECT_NE(out.find('*'), std::string::npos);   // Memory used.
  EXPECT_NE(out.find("digits = register index"), std::string::npos);
}

TEST(Gantt, ShowsEveryRealOperation) {
  const ir::BasicBlock bb = workloads::make_fft_butterfly();
  const sched::Schedule s = sched::list_schedule(bb, {2, 1});
  std::ostringstream os;
  draw_schedule(os, bb, s);
  const std::string out = os.str();
  EXPECT_NE(out.find("alu0"), std::string::npos);
  EXPECT_NE(out.find("mul0"), std::string::npos);
  // Every computing op's result appears somewhere in the chart.
  for (const ir::Operation& op : bb.ops()) {
    if (ir::is_source(op.opcode) || op.opcode == ir::Opcode::kOutput) {
      continue;
    }
    EXPECT_NE(out.find(bb.value(op.result).name), std::string::npos)
        << bb.value(op.result).name;
  }
  // One row per control step (right-aligned step numbers).
  EXPECT_NE(out.find("   1 |"), std::string::npos);
  EXPECT_NE(out.find(std::to_string(s.length(bb)) + " |"),
            std::string::npos);
}

TEST(Gantt, MultiCycleOpsSpanRows) {
  ir::BasicBlock bb("t");
  const ir::ValueId a = bb.input("a");
  const ir::ValueId m = bb.emit(ir::Opcode::kMul, {a, a}, "m");
  bb.output(m);
  const sched::Schedule s = sched::asap(bb);
  std::ostringstream os;
  draw_schedule(os, bb, s);
  const std::string out = os.str();
  // The 2-cycle multiply occupies both step rows.
  std::size_t hits = 0;
  for (std::size_t pos = out.find("mul m"); pos != std::string::npos;
       pos = out.find("mul m", pos + 1)) {
    ++hits;
  }
  EXPECT_EQ(hits, 2u);
}

TEST(AsciiChart, EmptyProblem) {
  alloc::AllocationProblem p;
  std::ostringstream os;
  draw_lifetimes(os, p);
  EXPECT_NE(os.str().find("no lifetimes"), std::string::npos);
}

}  // namespace
}  // namespace lera::report
