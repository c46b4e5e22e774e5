// perfbench: the repository benchmark's measuring program. run.py
// builds and drives it; see README.md.
//
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                 --expected FILE [--expected FILE ...] [--trace-out PATH]
//   perfbench oracle --workload W --seed N --seconds S
//                    [--expected FILE ...] --out FILE
//
// `run` prints `metric <name> <value> <unit>` lines and, last,
// `result correct=<0|1> attempted=<n> failed=<n>`. `oracle` appends an
// expected objective for every input of the run that the given files do
// not already cover, cross-checked as described in expected.hpp.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "expected.hpp"
#include "inputs.hpp"
#include "runs.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string mode;
  std::optional<Workload> workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::vector<std::string> expected;
  std::string out;
  std::string trace_out;
};

int usage() {
  std::cerr << "usage: perfbench run|oracle --workload W --seed N "
               "--seconds S [--trace 0|1] [--expected FILE]... "
               "[--out FILE] [--trace-out PATH]\n";
  return 2;
}

bool parse_args(int argc, char** argv, Args& a) {
  if (argc < 2) return false;
  a.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    try {
      if (k == "--workload") {
        a.workload = parse_workload(v);
        if (!a.workload) return false;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
        if (!(a.seconds > 0 && a.seconds <= 600)) return false;
      } else if (k == "--trace") {
        if (v != "0" && v != "1") return false;
        a.trace = v == "1";
      } else if (k == "--expected") {
        a.expected.push_back(v);
      } else if (k == "--out") {
        a.out = v;
      } else if (k == "--trace-out") {
        a.trace_out = v;
      } else {
        return false;
      }
    } catch (...) {
      return false;
    }
  }
  return (argc % 2 == 0) && a.workload.has_value() &&
         (a.mode == "run" || a.mode == "oracle");
}

int oracle(const Args& a, const ExpectedMap& known) {
  std::ofstream out(a.out, std::ios::app);
  if (!out) {
    std::cerr << "perfbench: cannot write " << a.out << "\n";
    return 1;
  }
  int computed = 0;
  for (const OracleItem& item : oracle_items(*a.workload, a.seed, a.seconds)) {
    if (known.count(item.key) != 0) continue;
    std::string error;
    const std::optional<Expected> e = compute_expected(item, error);
    if (!e) {
      std::cerr << "perfbench: oracle cross-check failed for " << item.label
                << ": " << error << "\n";
      return 1;
    }
    write_expected_line(out, item, *e);
    ++computed;
  }
  std::cerr << "perfbench: oracle computed " << computed
            << " expected objective(s)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) return usage();
  ExpectedMap expected;
  for (const std::string& path : a.expected) {
    std::string error;
    if (!read_expected(path, expected, error)) {
      std::cerr << "perfbench: " << error << "\n";
      return 1;
    }
  }
  if (a.mode == "oracle") return oracle(a, expected);

  const RunArgs run{*a.workload, a.seed, a.seconds, &expected};
  const Outcome out =
      a.trace ? run_traced(run, a.trace_out) : run_untraced(run);
  for (const std::string& p : out.problems) {
    std::cerr << "perfbench: " << p << "\n";
  }
  std::cout << "result correct=" << (out.correct() ? 1 : 0)
            << " attempted=" << out.attempted << " failed=" << out.failed
            << std::endl;
  return 0;
}
