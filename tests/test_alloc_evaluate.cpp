#include <gtest/gtest.h>

#include <random>
#include <set>
#include <sstream>

#include "alloc/allocator.hpp"
#include "alloc/evaluate.hpp"
#include "alloc/problem.hpp"
#include "audit/fuzz.hpp"

namespace lera::alloc {
namespace {

using lifetime::Lifetime;

Lifetime lt(const char* name, int w, std::vector<int> reads) {
  Lifetime out;
  out.value = 0;
  out.name = name;
  out.write_time = w;
  out.read_times = std::move(reads);
  return out;
}

AllocationProblem one_var(std::vector<int> reads, int R = 1,
                          lifetime::SplitOptions split = {}) {
  energy::EnergyParams params;
  return make_problem({lt("v", 1, std::move(reads))}, 8, R, params,
                      energy::ActivityMatrix(1, 0.5, 0.5), split);
}

int count(const std::vector<StorageEvent>& events, EventType type) {
  int n = 0;
  for (const auto& ev : events) n += ev.type == type ? 1 : 0;
  return n;
}

TEST(Evaluate, AllMemorySingleRead) {
  const AllocationProblem p = one_var({5});
  Assignment a(p.segments.size());  // Default: memory.
  const auto events = enumerate_events(p, a);
  EXPECT_EQ(count(events, EventType::kMemWrite), 1);
  EXPECT_EQ(count(events, EventType::kMemRead), 1);
  EXPECT_EQ(count(events, EventType::kRegRead), 0);

  const auto e = evaluate_energy(p, a, energy::RegisterModel::kStatic);
  EXPECT_DOUBLE_EQ(e.memory, p.params.e_mem_write() + p.params.e_mem_read());
  EXPECT_DOUBLE_EQ(e.register_file, 0);
}

TEST(Evaluate, AllRegisterSingleRead) {
  const AllocationProblem p = one_var({5});
  Assignment a(p.segments.size());
  a.assign_register(0, 0);
  const auto events = enumerate_events(p, a);
  EXPECT_EQ(count(events, EventType::kRegWrite), 1);
  EXPECT_EQ(count(events, EventType::kRegRead), 1);
  EXPECT_EQ(count(events, EventType::kMemRead), 0);
  EXPECT_EQ(count(events, EventType::kMemWrite), 0);

  const auto stat = evaluate_energy(p, a, energy::RegisterModel::kStatic);
  EXPECT_DOUBLE_EQ(stat.register_file,
                   p.params.e_reg_write() + p.params.e_reg_read());
  const auto act = evaluate_energy(p, a, energy::RegisterModel::kActivity);
  EXPECT_DOUBLE_EQ(act.register_file, p.params.e_reg_transition(0.5));
}

TEST(Evaluate, SpillAfterInteriorRead) {
  // Two reads; first segment in a register, second in memory: the
  // interior read comes from the register, then a write-back, then the
  // final read from memory.
  const AllocationProblem p = one_var({3, 6});
  ASSERT_EQ(p.segments.size(), 2u);
  Assignment a(2);
  a.assign_register(0, 0);
  const auto events = enumerate_events(p, a);
  EXPECT_EQ(count(events, EventType::kRegWrite), 1);   // def
  EXPECT_EQ(count(events, EventType::kRegRead), 1);    // read@3
  EXPECT_EQ(count(events, EventType::kMemWrite), 1);   // write-back@3
  EXPECT_EQ(count(events, EventType::kMemRead), 1);    // death@6
}

TEST(Evaluate, ReloadAfterMemoryStart) {
  // First segment memory, second register: the interior read doubles as
  // the load (one memory read only).
  const AllocationProblem p = one_var({3, 6});
  Assignment a(2);
  a.assign_register(1, 0);
  const auto events = enumerate_events(p, a);
  EXPECT_EQ(count(events, EventType::kMemWrite), 1);  // def
  EXPECT_EQ(count(events, EventType::kMemRead), 1);   // read@3 (=load)
  EXPECT_EQ(count(events, EventType::kRegWrite), 1);  // load target
  EXPECT_EQ(count(events, EventType::kRegRead), 1);   // death@6
}

TEST(Evaluate, ChainedRegisterSegmentsHaveNoMemoryTraffic) {
  const AllocationProblem p = one_var({3, 6});
  Assignment a(2);
  a.assign_register(0, 0);
  a.assign_register(1, 0);  // Same register: stays put.
  const auto events = enumerate_events(p, a);
  EXPECT_EQ(count(events, EventType::kMemRead), 0);
  EXPECT_EQ(count(events, EventType::kMemWrite), 0);
  EXPECT_EQ(count(events, EventType::kRegRead), 2);
  EXPECT_EQ(count(events, EventType::kRegWrite), 1);
}

TEST(Evaluate, BoundaryCutLoadAndSpill) {
  lifetime::SplitOptions split;
  split.access.period = 4;  // Allowed at steps 4, 8.
  const AllocationProblem p = one_var({7}, 1, split);
  // v = [1,7] cut at 4: [1,4)(forced? starts at 1: (1-0)%4 != 0 ->
  // not allowed -> forced) and [4,7) (7 not allowed -> forced).
  ASSERT_EQ(p.segments.size(), 2u);

  // Memory then register: explicit load at the boundary.
  Assignment a(2);
  a.assign_register(1, 0);
  auto events = enumerate_events(p, a);
  EXPECT_EQ(count(events, EventType::kMemWrite), 1);  // def
  EXPECT_EQ(count(events, EventType::kMemRead), 1);   // load@4
  EXPECT_EQ(count(events, EventType::kRegWrite), 1);
  EXPECT_EQ(count(events, EventType::kRegRead), 1);   // death@7

  // Register then memory: spill at the boundary, no read there.
  Assignment b(2);
  b.assign_register(0, 0);
  events = enumerate_events(p, b);
  EXPECT_EQ(count(events, EventType::kRegWrite), 1);
  EXPECT_EQ(count(events, EventType::kMemWrite), 1);  // spill@4
  EXPECT_EQ(count(events, EventType::kMemRead), 1);   // death@7
  EXPECT_EQ(count(events, EventType::kRegRead), 0);
}

TEST(Evaluate, ActivityTracksRegisterOccupants) {
  energy::EnergyParams params;
  params.register_model = energy::RegisterModel::kActivity;
  energy::ActivityMatrix act(2, 0.5, 0.5);
  act.set(0, 1, 0.125);
  act.set_initial(0, 0.25);
  AllocationProblem p =
      make_problem({lt("u", 1, {3}), lt("w", 3, {5})}, 6, 1, params,
                   std::move(act));
  Assignment a(2);
  a.assign_register(0, 0);
  a.assign_register(1, 0);  // w replaces u in register 0.
  const auto e = evaluate_energy(p, a, energy::RegisterModel::kActivity);
  EXPECT_DOUBLE_EQ(e.register_file,
                   p.params.e_reg_transition(0.25) +    // initial u
                       p.params.e_reg_transition(0.125));  // u -> w
}

TEST(Evaluate, AccessStatsAndPorts) {
  // Two variables written at the same step, read at the same step, all
  // in memory: 2 write ports and 2 read ports needed.
  energy::EnergyParams params;
  AllocationProblem p =
      make_problem({lt("u", 1, {4}), lt("w", 1, {4})}, 5, 0, params,
                   energy::ActivityMatrix(2));
  Assignment a(2);
  const AccessStats stats = count_accesses(p, a);
  EXPECT_EQ(stats.mem_reads, 2);
  EXPECT_EQ(stats.mem_writes, 2);
  EXPECT_EQ(stats.mem_read_ports, 2);
  EXPECT_EQ(stats.mem_write_ports, 2);
  EXPECT_EQ(stats.mem_accesses(), 4);
  EXPECT_EQ(stats.mem_locations, 2);
}

TEST(Evaluate, MemoryLocationsCountsPeakResidency) {
  energy::EnergyParams params;
  AllocationProblem p = make_problem(
      {lt("u", 1, {3}), lt("w", 3, {6}), lt("z", 2, {5})}, 7, 1, params,
      energy::ActivityMatrix(3));
  Assignment a(3);
  // u,w sequential share; z overlaps both.
  EXPECT_EQ(memory_locations(p, a), 2);
  a.assign_register(2, 0);  // z to a register.
  EXPECT_EQ(memory_locations(p, a), 1);
}

TEST(Evaluate, ValidationCatchesOverlapAndCapacity) {
  energy::EnergyParams params;
  AllocationProblem p = make_problem(
      {lt("u", 1, {4}), lt("w", 2, {5})}, 6, 1, params,
      energy::ActivityMatrix(2));
  Assignment a(2);
  a.assign_register(0, 0);
  a.assign_register(1, 0);  // Overlapping segments in the same register.
  EXPECT_FALSE(validate_assignment(p, a).empty());

  Assignment b(2);
  b.assign_register(0, 0);
  b.assign_register(1, 5);  // Register index out of range (R = 1).
  EXPECT_FALSE(validate_assignment(p, b).empty());

  Assignment c(2);
  c.assign_register(0, 0);
  EXPECT_TRUE(validate_assignment(p, c).empty());
}

/// validate_assignment as a loop over every boundary, kept as the
/// reference for the sorted fast path.
std::string validate_by_boundary(const AllocationProblem& p,
                                 const Assignment& a) {
  std::ostringstream os;
  if (a.size() != p.segments.size()) {
    return "assignment size does not match segment count";
  }
  for (std::size_t s = 0; s < p.segments.size(); ++s) {
    const lifetime::Segment& seg = p.segments[s];
    if (seg.forced_register && !a.in_register(s)) {
      os << "forced segment of " << p.lifetimes[static_cast<std::size_t>(
                seg.var)].name
         << " [" << seg.start << "," << seg.end << "] is in memory; ";
    }
    if (seg.forbidden_register && a.in_register(s)) {
      os << "register-barred segment of "
         << p.lifetimes[static_cast<std::size_t>(seg.var)].name << " ["
         << seg.start << "," << seg.end << "] is in a register; ";
    }
    if (a.in_register(s) && a.location(s) >= p.num_registers) {
      os << "segment uses register " << a.location(s) << " but R="
         << p.num_registers << "; ";
    }
  }
  for (int b = 0; b <= p.num_steps; ++b) {
    std::set<int> occupied;
    int live_in_regs = 0;
    for (std::size_t s = 0; s < p.segments.size(); ++s) {
      if (!a.in_register(s)) continue;
      const lifetime::Segment& seg = p.segments[s];
      if (seg.start <= b && b < seg.end) {
        ++live_in_regs;
        if (!occupied.insert(a.location(s)).second) {
          os << "register " << a.location(s)
             << " holds two live segments at boundary " << b << "; ";
        }
      }
    }
    if (live_in_regs > p.num_registers) {
      os << live_in_regs << " register-resident segments at boundary " << b
         << " exceed R=" << p.num_registers << "; ";
    }
  }
  return os.str();
}

/// memory_locations as a loop over every boundary, kept as the
/// reference for the event sweep.
int memory_locations_by_boundary(const AllocationProblem& p,
                                 const Assignment& a) {
  int peak = 0;
  for (int b = 0; b <= p.num_steps; ++b) {
    int resident = 0;
    for (std::size_t s = 0; s < p.segments.size(); ++s) {
      if (a.in_register(s)) continue;
      const lifetime::Segment& seg = p.segments[s];
      if (seg.start <= b && b < seg.end) ++resident;
    }
    peak = std::max(peak, resident);
  }
  return peak;
}

TEST(Evaluate, SortedChecksMatchTheBoundaryLoops) {
  // Optimal assignments of fuzz problems (both models), then corrupted
  // copies: a register id at or above R, a memory segment moved into a
  // register, a segment spilled, and random placements.
  audit::DiffFuzzOptions fuzz;
  fuzz.max_vars = 16;
  fuzz.max_steps = 20;
  std::mt19937_64 rng(5);
  int valid = 0;
  int invalid = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    AllocationProblem p = audit::fuzz_problem(seed, fuzz);
    const AllocationResult r = allocate(p);
    if (!r.feasible) continue;
    const int n = static_cast<int>(p.segments.size());
    const auto pick = [&rng](int bound) {
      return static_cast<int>(rng() % static_cast<std::uint64_t>(bound));
    };
    std::vector<Assignment> cases(5, r.assignment);
    for (std::size_t s = 0; s < cases[1].size(); ++s) {
      if (cases[1].in_register(s)) {
        cases[1].assign_register(s, p.num_registers + pick(2));
        break;
      }
    }
    cases[2].assign_register(static_cast<std::size_t>(pick(n)),
                             pick(p.num_registers));
    cases[3].assign_memory(static_cast<std::size_t>(pick(n)));
    for (std::size_t s = 0; s < cases[4].size(); ++s) {
      const int loc = pick(p.num_registers + 2) - 1;
      if (loc < 0) {
        cases[4].assign_memory(s);
      } else {
        cases[4].assign_register(s, loc);
      }
    }
    for (int registers : {p.num_registers, pick(p.num_registers + 1)}) {
      p.num_registers = registers;
      for (const Assignment& a : cases) {
        const std::string want = validate_by_boundary(p, a);
        ASSERT_EQ(validate_assignment(p, a), want) << "seed " << seed;
        ++(want.empty() ? valid : invalid);
        ASSERT_EQ(memory_locations(p, a), memory_locations_by_boundary(p, a))
            << "seed " << seed;
      }
    }
  }
  EXPECT_GT(valid, 300);
  EXPECT_GT(invalid, 600);
}

TEST(Evaluate, ForcedSegmentInMemoryIsInvalid) {
  lifetime::SplitOptions split;
  split.access.period = 4;
  const AllocationProblem p = one_var({7}, 1, split);
  Assignment a(p.segments.size());  // All memory, but segments forced.
  EXPECT_FALSE(validate_assignment(p, a).empty());
}

TEST(Evaluate, RegisterToRegisterMoveAtReadCut) {
  // v's first segment in r0, second in r1 (a different register): the
  // model charges the write-back (memory copies are not kept) but the
  // move itself is free of memory reads (documented semantics).
  const AllocationProblem p = one_var({3, 6});
  Assignment a(2);
  a.assign_register(0, 0);
  a.assign_register(1, 1);
  const auto events = enumerate_events(p, a);
  EXPECT_EQ(count(events, EventType::kRegWrite), 2);  // Enter r0, r1.
  EXPECT_EQ(count(events, EventType::kRegRead), 2);   // read@3, death@6.
  EXPECT_EQ(count(events, EventType::kMemWrite), 1);  // Write-back@3.
  EXPECT_EQ(count(events, EventType::kMemRead), 0);   // Move is free.
}

TEST(Evaluate, RegisterToRegisterMoveAtBoundaryCut) {
  lifetime::SplitOptions split;
  split.access.period = 4;
  const AllocationProblem p = one_var({7}, 2, split);
  ASSERT_EQ(p.segments.size(), 2u);
  Assignment a(2);
  a.assign_register(0, 0);
  a.assign_register(1, 1);
  const auto events = enumerate_events(p, a);
  // At an access-boundary cut a cross-register move costs a write-back
  // AND an explicit reload (no consumer read doubles as the load).
  EXPECT_EQ(count(events, EventType::kMemWrite), 1);
  EXPECT_EQ(count(events, EventType::kMemRead), 1);
  EXPECT_EQ(count(events, EventType::kRegWrite), 2);
}

TEST(Evaluate, EventsSortedByStep) {
  const AllocationProblem p = one_var({3, 6});
  Assignment a(2);
  a.assign_register(0, 0);
  const auto events = enumerate_events(p, a);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].step, events[i].step);
  }
}

TEST(Evaluate, SegFieldPointsAtResponsibleSegment) {
  const AllocationProblem p = one_var({3, 6});
  Assignment a(2);  // All memory.
  for (const StorageEvent& ev : enumerate_events(p, a)) {
    ASSERT_GE(ev.seg, 0);
    ASSERT_LT(ev.seg, 2);
    // The event's step lies on the segment's boundary (its start cut,
    // end cut, or the death read).
    const auto& seg = p.segments[static_cast<std::size_t>(ev.seg)];
    EXPECT_TRUE(ev.step == seg.start || ev.step == seg.end)
        << "step " << ev.step << " seg [" << seg.start << "," << seg.end
        << ")";
  }
}

}  // namespace
}  // namespace lera::alloc
