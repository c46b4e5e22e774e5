#include "alloc/assignment.hpp"

#include <algorithm>
#include <set>
#include <sstream>

namespace lera::alloc {

int Assignment::registers_used() const {
  std::set<int> regs;
  for (int loc : location_) {
    if (loc >= 0) regs.insert(loc);
  }
  return static_cast<int>(regs.size());
}

std::string validate_assignment(const AllocationProblem& p,
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

  // Exclusivity: a register holds at most one segment at any boundary.
  // A segment [start, end) occupies its register at boundaries
  // start..end-1. Segments of the same variable chained in one register
  // are contiguous, so the check naturally permits them.
  //
  // Fast path, O(s log s): when no two register-resident segments of one
  // register overlap and every register id is below R, no boundary can
  // hold a register twice or more than R live segments, so the sweep
  // below would find nothing. Only an assignment that fails this runs
  // the sweep, which words every finding.
  struct Occupancy {
    int reg, start, end;
    auto operator<=>(const Occupancy&) const = default;
  };
  std::vector<Occupancy> occupancy;
  bool clean = true;
  for (std::size_t s = 0; s < p.segments.size() && clean; ++s) {
    const lifetime::Segment& seg = p.segments[s];
    if (!a.in_register(s) || seg.start >= seg.end) continue;
    clean = a.location(s) < p.num_registers;
    occupancy.push_back({a.location(s), seg.start, seg.end});
  }
  std::sort(occupancy.begin(), occupancy.end());
  for (std::size_t i = 1; i < occupancy.size() && clean; ++i) {
    clean = occupancy[i - 1].reg != occupancy[i].reg ||
            occupancy[i - 1].end <= occupancy[i].start;
  }
  if (clean) return os.str();

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

}  // namespace lera::alloc
