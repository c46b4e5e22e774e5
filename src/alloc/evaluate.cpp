#include "alloc/evaluate.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <utility>
#include <vector>

namespace lera::alloc {

namespace {

using lifetime::CutKind;
using lifetime::Segment;

}  // namespace

std::vector<StorageEvent> enumerate_events(const AllocationProblem& p,
                                           const Assignment& a) {
  assert(a.size() == p.segments.size());
  std::vector<StorageEvent> events;

  // Segments are contiguous per variable; walk each variable's run.
  std::size_t i = 0;
  while (i < p.segments.size()) {
    const int var = p.segments[i].var;
    std::size_t last = i;
    while (last + 1 < p.segments.size() &&
           p.segments[last + 1].var == var) {
      ++last;
    }

    // Definition.
    const Segment& first = p.segments[i];
    if (a.in_register(i)) {
      events.push_back({first.start, EventType::kRegWrite, var,
                        a.location(i), static_cast<int>(i)});
    } else {
      events.push_back({first.start, EventType::kMemWrite, var,
                        Assignment::kMemory, static_cast<int>(i)});
    }

    // Interior cuts.
    for (std::size_t s = i; s < last; ++s) {
      const Segment& cur = p.segments[s];
      const int cut = cur.end;
      const CutKind kind = cur.end_kind;
      const int loc_cur = a.location(s);
      const int loc_next = a.location(s + 1);

      if (kind == CutKind::kRead) {
        // The consumer fetches the value from wherever it lives now.
        if (loc_cur >= 0) {
          events.push_back({cut, EventType::kRegRead, var, loc_cur,
                            static_cast<int>(s)});
        } else {
          events.push_back({cut, EventType::kMemRead, var,
                            Assignment::kMemory, static_cast<int>(s)});
        }
      }
      const bool leaving = loc_cur >= 0 && loc_next != loc_cur;
      const bool entering = loc_next >= 0 && loc_cur != loc_next;
      if (leaving) {
        // Write-back: the value stays reachable for its later reads.
        // Forcing the *next* segment into a register (ideally chaining)
        // is what removes this traffic.
        events.push_back({cut, EventType::kMemWrite, var,
                          Assignment::kMemory, static_cast<int>(s + 1)});
      }
      if (entering) {
        if (kind == CutKind::kBoundary) {
          // Explicit load (after a write-back if the value came from
          // another register); at a read cut the consumer's fetch
          // doubles as the load and register-to-register moves carry no
          // memory traffic.
          events.push_back({cut, EventType::kMemRead, var,
                            Assignment::kMemory, static_cast<int>(s)});
        }
        events.push_back({cut, EventType::kRegWrite, var, loc_next,
                          static_cast<int>(s + 1)});
      }
    }

    // Death: the final read.
    const Segment& end_seg = p.segments[last];
    assert(end_seg.end_kind == CutKind::kDeath);
    if (a.in_register(last)) {
      events.push_back({end_seg.end, EventType::kRegRead, var,
                        a.location(last), static_cast<int>(last)});
    } else {
      events.push_back({end_seg.end, EventType::kMemRead, var,
                        Assignment::kMemory, static_cast<int>(last)});
    }

    i = last + 1;
  }

  std::stable_sort(events.begin(), events.end(),
                   [](const StorageEvent& x, const StorageEvent& y) {
                     return x.step < y.step;
                   });
  return events;
}

AccessStats count_accesses(const AllocationProblem& p, const Assignment& a) {
  const std::vector<StorageEvent> events = enumerate_events(p, a);
  AccessStats stats;
  std::map<int, std::array<int, 4>> per_step;
  for (const StorageEvent& ev : events) {
    auto& bucket = per_step[ev.step];
    switch (ev.type) {
      case EventType::kMemRead:
        ++stats.mem_reads;
        ++bucket[0];
        break;
      case EventType::kMemWrite:
        ++stats.mem_writes;
        ++bucket[1];
        break;
      case EventType::kRegRead:
        ++stats.reg_reads;
        ++bucket[2];
        break;
      case EventType::kRegWrite:
        ++stats.reg_writes;
        ++bucket[3];
        break;
    }
  }
  for (const auto& [step, bucket] : per_step) {
    stats.mem_read_ports = std::max(stats.mem_read_ports, bucket[0]);
    stats.mem_write_ports = std::max(stats.mem_write_ports, bucket[1]);
    stats.reg_read_ports = std::max(stats.reg_read_ports, bucket[2]);
    stats.reg_write_ports = std::max(stats.reg_write_ports, bucket[3]);
  }
  stats.mem_locations = memory_locations(p, a);
  return stats;
}

EnergyBreakdown evaluate_energy(const AllocationProblem& p,
                                const Assignment& a,
                                energy::RegisterModel model) {
  const energy::EnergyParams& e = p.params;
  const std::vector<StorageEvent> events = enumerate_events(p, a);

  EnergyBreakdown out;
  // Register-occupant tracking for the activity model. Events are sorted
  // by step; at most one write per register per step (exclusivity).
  std::map<int, int> occupant;  // register -> variable currently held
  for (const StorageEvent& ev : events) {
    switch (ev.type) {
      case EventType::kMemRead:
        out.memory += e.e_mem_read();
        break;
      case EventType::kMemWrite:
        out.memory += e.e_mem_write();
        break;
      case EventType::kRegRead:
        if (model == energy::RegisterModel::kStatic) {
          out.register_file += e.e_reg_read();
        }
        break;
      case EventType::kRegWrite:
        if (model == energy::RegisterModel::kStatic) {
          out.register_file += e.e_reg_write();
        } else {
          const auto it = occupant.find(ev.reg);
          const double h =
              it == occupant.end()
                  ? p.activity.initial(static_cast<std::size_t>(ev.var))
                  : p.activity.hamming(
                        static_cast<std::size_t>(it->second),
                        static_cast<std::size_t>(ev.var));
          out.register_file += e.e_reg_transition(h);
        }
        occupant[ev.reg] = ev.var;
        break;
    }
  }
  return out;
}

int memory_locations(const AllocationProblem& p, const Assignment& a) {
  // Event sweep over boundaries 0..num_steps: a memory-resident segment
  // [start, end) is live at boundaries start..end-1. At equal times an
  // end (-1) sorts before a start (+1), so the running count never
  // exceeds the count at a boundary.
  std::vector<std::pair<int, int>> events;
  for (std::size_t s = 0; s < p.segments.size(); ++s) {
    if (a.in_register(s)) continue;
    const Segment& seg = p.segments[s];
    const int from = std::max(seg.start, 0);
    const int to = std::min(seg.end, p.num_steps + 1);
    if (from >= to) continue;
    events.emplace_back(from, 1);
    events.emplace_back(to, -1);
  }
  std::sort(events.begin(), events.end());
  int resident = 0;
  int peak = 0;
  for (const auto& [time, delta] : events) {
    resident += delta;
    peak = std::max(peak, resident);
  }
  return peak;
}

}  // namespace lera::alloc
