#include "alloc/evaluate.hpp"

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

namespace lera::alloc {

namespace {

using lifetime::CutKind;
using lifetime::Segment;

/// One walk over \p events, sorted by step: the access counts and port
/// peaks into \p stats, and each register model's energy into \p
/// static_energy and \p activity_energy, each skipped when null. Every
/// sum takes the events in order, so a part comes out the same, bit for
/// bit, whichever others are asked for.
void replay(const AllocationProblem& p,
            const std::vector<StorageEvent>& events, AccessStats* stats,
            EnergyBreakdown* static_energy,
            EnergyBreakdown* activity_energy) {
  const energy::EnergyParams& e = p.params;
  // The activity model's register occupants: the variable each register
  // holds, -1 until its first write.
  std::vector<int> occupant;
  if (activity_energy != nullptr) {
    int registers = 0;
    for (const StorageEvent& ev : events) {
      registers = std::max(registers, ev.reg + 1);
    }
    occupant.assign(static_cast<std::size_t>(registers), -1);
  }
  // Traffic per channel (memory read, memory write, register read,
  // register write): this step's, the total, and the busiest step's.
  std::array<int, 4> step_traffic{};
  std::array<int, 4> total{};
  std::array<int, 4> peak{};
  for (std::size_t k = 0; k < events.size(); ++k) {
    const StorageEvent& ev = events[k];
    switch (ev.type) {
      case EventType::kMemRead:
        for (EnergyBreakdown* out : {static_energy, activity_energy}) {
          if (out != nullptr) out->memory += e.e_mem_read();
        }
        break;
      case EventType::kMemWrite:
        for (EnergyBreakdown* out : {static_energy, activity_energy}) {
          if (out != nullptr) out->memory += e.e_mem_write();
        }
        break;
      case EventType::kRegRead:
        if (static_energy != nullptr) {
          static_energy->register_file += e.e_reg_read();
        }
        break;
      case EventType::kRegWrite:
        if (static_energy != nullptr) {
          static_energy->register_file += e.e_reg_write();
        }
        if (activity_energy != nullptr) {
          int& held = occupant[static_cast<std::size_t>(ev.reg)];
          const double h =
              held < 0 ? p.activity.initial(static_cast<std::size_t>(ev.var))
                       : p.activity.hamming(static_cast<std::size_t>(held),
                                            static_cast<std::size_t>(ev.var));
          activity_energy->register_file += e.e_reg_transition(h);
          held = ev.var;
        }
        break;
    }
    ++step_traffic[static_cast<std::size_t>(ev.type)];
    if (k + 1 == events.size() || events[k + 1].step != ev.step) {
      for (std::size_t c = 0; c < step_traffic.size(); ++c) {
        total[c] += step_traffic[c];
        peak[c] = std::max(peak[c], step_traffic[c]);
      }
      step_traffic = {};
    }
  }
  if (stats != nullptr) {
    stats->mem_reads = total[0];
    stats->mem_writes = total[1];
    stats->reg_reads = total[2];
    stats->reg_writes = total[3];
    stats->mem_read_ports = peak[0];
    stats->mem_write_ports = peak[1];
    stats->reg_read_ports = peak[2];
    stats->reg_write_ports = peak[3];
  }
}

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
  AccessStats stats;
  replay(p, enumerate_events(p, a), &stats, nullptr, nullptr);
  stats.mem_locations = memory_locations(p, a);
  return stats;
}

EnergyBreakdown evaluate_energy(const AllocationProblem& p,
                                const Assignment& a,
                                energy::RegisterModel model) {
  EnergyBreakdown out;
  const bool static_model = model == energy::RegisterModel::kStatic;
  replay(p, enumerate_events(p, a), nullptr, static_model ? &out : nullptr,
         static_model ? nullptr : &out);
  return out;
}

Evaluation evaluate(const AllocationProblem& p, const Assignment& a) {
  Evaluation out;
  replay(p, enumerate_events(p, a), &out.stats, &out.static_energy,
         &out.activity_energy);
  out.stats.mem_locations = memory_locations(p, a);
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
