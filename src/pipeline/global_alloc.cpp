#include "pipeline/global_alloc.hpp"

#include <algorithm>
#include <map>

namespace lera::pipeline {

namespace {

/// Bookkeeping for a value that is live past the end of its task and
/// may be consumed (by name) in a later one.
struct Forward {
  std::size_t lifetime_index;
  int placeholder_read;  ///< The provisional "read after the block" time.
};

}  // namespace

GlobalReport global_allocate(const ir::TaskGraph& graph,
                             const engine::EngineOptions& options) {
  GlobalReport report;
  std::vector<lifetime::Lifetime> merged;
  std::map<std::string, Forward> live_forward;
  int offset = 0;
  int stitched = 0;

  for (ir::TaskId t : graph.topological_order()) {
    const ir::Task& task = graph.task(t);
    const sched::Schedule schedule =
        sched::list_schedule(task.block, options.resources);
    const int steps = schedule.length(task.block);
    const std::vector<lifetime::Lifetime> local =
        lifetime::analyze(task.block, schedule);

    for (const lifetime::Lifetime& lt : local) {
      const bool is_live_in = lt.write_time == 0;
      const auto forward = live_forward.find(lt.name);
      if (is_live_in && forward != live_forward.end()) {
        // Continue the earlier lifetime: its provisional end-of-block
        // read becomes this task's real reads.
        lifetime::Lifetime& producer = merged[forward->second.lifetime_index];
        producer.read_times.erase(
            std::remove(producer.read_times.begin(),
                        producer.read_times.end(),
                        forward->second.placeholder_read),
            producer.read_times.end());
        for (int r : lt.read_times) {
          producer.read_times.push_back(r + offset);
        }
        std::sort(producer.read_times.begin(), producer.read_times.end());
        producer.read_times.erase(
            std::unique(producer.read_times.begin(),
                        producer.read_times.end()),
            producer.read_times.end());
        ++stitched;
        if (lt.live_out) {
          producer.live_out = true;
          live_forward[lt.name] =
              Forward{forward->second.lifetime_index,
                      offset + steps + 1};
        } else {
          producer.live_out = false;
          live_forward.erase(forward);
        }
        continue;
      }

      lifetime::Lifetime shifted = lt;
      shifted.write_time += offset;
      for (int& r : shifted.read_times) r += offset;
      merged.push_back(std::move(shifted));
      if (lt.live_out) {
        live_forward[lt.name] = Forward{merged.size() - 1,
                                        offset + steps + 1};
      }
    }
    offset += steps;
  }
  report.total_steps = offset;
  report.stitched_values = stitched;

  // Values still live at the end are read "after the application" —
  // clamp their provisional reads to the global end.
  for (auto& [name, fwd] : live_forward) {
    lifetime::Lifetime& producer = merged[fwd.lifetime_index];
    for (int& r : producer.read_times) {
      if (r == fwd.placeholder_read) r = offset + 1;
    }
    std::sort(producer.read_times.begin(), producer.read_times.end());
    producer.read_times.erase(std::unique(producer.read_times.begin(),
                                          producer.read_times.end()),
                              producer.read_times.end());
  }

  energy::ActivityMatrix activity(merged.size());
  report.problem =
      alloc::make_problem(std::move(merged), offset, options.num_registers,
                          options.params, std::move(activity),
                          options.split);

  report.result = alloc::allocate(report.problem, options.alloc);
  report.feasible = report.result.feasible;
  report.message = report.result.message;
  return report;
}

}  // namespace lera::pipeline
