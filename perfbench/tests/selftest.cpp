// Benchmark self-tests. Build and run with `python3 perfbench/run.py
// --selftest` (or the perfbench_selftest target). Exit 0 when every
// check holds.

#include <cmath>
#include <iostream>
#include <map>
#include <set>
#include <string>

#include "expected.hpp"
#include "inputs.hpp"
#include "runs.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::cout << (ok ? "PASS " : "FAIL ") << what << "\n";
  if (!ok) ++g_failures;
}

/// Expected objectives for one run, computed the way `oracle` does.
ExpectedMap oracle_for(Workload w, std::uint64_t seed, double seconds) {
  ExpectedMap m;
  for (const OracleItem& item : oracle_items(w, seed, seconds)) {
    std::string error;
    const std::optional<Expected> e = compute_expected(item, error);
    check(e.has_value(), "oracle cross-checks " + item.label +
                             (error.empty() ? "" : ": " + error));
    if (e) m[item.key] = *e;
  }
  return m;
}

void same_seed_same_bytes() {
  for (Workload w : {Workload::kCompileLarge, Workload::kPipelineKernels,
                     Workload::kServeRepeat, Workload::kServeHits}) {
    const std::string a = input_bytes(w, 7, 2.0);
    const std::string b = input_bytes(w, 7, 2.0);
    const std::string c = input_bytes(w, 8, 2.0);
    check(!a.empty() && a == b,
          std::string(to_string(w)) + ": same seed, byte-identical inputs");
    check(a != c, std::string(to_string(w)) + ": another seed, other inputs");
  }
}

/// run_traced checks the untraced entry-point answer and the replayed
/// answer against the same expected objective for every input it
/// replays, so a correct outcome means the two computations agree.
void replay_matches_engine() {
  for (Workload w : {Workload::kCompileLarge, Workload::kPipelineKernels,
                     Workload::kServeRepeat, Workload::kServeHits}) {
    const double seconds = w == Workload::kServeRepeat ? 1.0 : 0.1;
    const ExpectedMap expected = oracle_for(w, 3, seconds);
    const Outcome out =
        run_traced(RunArgs{w, 3, seconds, &expected}, std::string());
    for (const std::string& p : out.problems) std::cout << "  " << p << "\n";
    check(out.correct() && out.failed == 0 && out.attempted > 0,
          std::string(to_string(w)) +
              ": traced replay objective equals the entry-point objective");
  }
}

void serve_mix_matches_stated_fractions() {
  const ServeInputs in = make_serve_inputs(11, 20.0);
  std::map<RequestClass, double> share;
  std::vector<double> pool_share(in.pool.size(), 0.0);
  double pooled = 0;
  for (const ServeRequest& r : in.stream) {
    share[r.cls] += 1.0 / static_cast<double>(in.stream.size());
    if (r.pool_index >= 0) {
      pool_share[static_cast<std::size_t>(r.pool_index)] += 1.0;
      pooled += 1.0;
    }
  }
  check(std::abs(share[RequestClass::kExact] - 0.50) < 0.02 &&
            std::abs(share[RequestClass::kPermuted] - 0.20) < 0.02 &&
            std::abs(share[RequestClass::kJittered] - 0.15) < 0.02 &&
            std::abs(share[RequestClass::kCold] - 0.15) < 0.02,
        "serve-repeat: class mix 50/20/15/15 on the seeded stream");
  double sum = 0;
  bool zipf = true;
  for (std::size_t k = 0; k < in.zipf_weight.size(); ++k) {
    sum += in.zipf_weight[k];
    zipf = zipf && std::abs(in.zipf_weight[k] * static_cast<double>(k + 1) -
                            in.zipf_weight[0]) < 1e-12;
  }
  check(zipf && std::abs(sum - 1.0) < 1e-9,
        "serve-repeat: pool weights are Zipf 1/(k+1), normalised");
  bool drawn = true;
  for (std::size_t k = 0; k < 4; ++k) {
    const double observed = pool_share[k] / pooled;
    drawn = drawn && std::abs(observed - in.zipf_weight[k]) <
                         0.15 * in.zipf_weight[k];
  }
  check(drawn, "serve-repeat: the most popular items are drawn at their "
               "Zipf weights (within 15%)");
}

void hits_cycle_is_warmed() {
  const HitsInputs in = make_hits_inputs(13);
  std::set<std::uint64_t> warmed;
  for (const ServeRequest& r : in.warmup) warmed.insert(r.expect_key);
  bool covered = true;
  std::map<RequestClass, double> share;
  for (const ServeRequest& r : in.cycle) {
    covered = covered && warmed.count(r.expect_key) != 0;
    share[r.cls] += 1.0 / static_cast<double>(in.cycle.size());
  }
  check(covered && warmed.size() == in.warmup.size(),
        "serve-hits: the warm-up solves each problem of the cycle once");
  check(std::abs(share[RequestClass::kExact] - 0.50 / 0.85) < 0.02 &&
            std::abs(share[RequestClass::kPermuted] - 0.20 / 0.85) < 0.02 &&
            std::abs(share[RequestClass::kJittered] - 0.15 / 0.85) < 0.02,
        "serve-hits: class mix 50/20/15, renormalised, on the seeded cycle");
}

void no_first_occurrence_hits() {
  const double seconds = 2.0;
  const ExpectedMap expected =
      oracle_for(Workload::kServeRepeat, 5, seconds);
  const ServeInputs in = make_serve_inputs(5, seconds);
  lera::server::Server srv(serve_server_options());
  Outcome out;
  const ServeObservation obs = drive_server(srv, in, expected, out);
  for (const std::string& p : out.problems) std::cout << "  " << p << "\n";
  check(obs.first_occurrence_hits == 0 && out.correct(),
        "serve-repeat: no payload is answered cached=1 on its first "
        "occurrence, and every answer is correct");
  check(obs.server.snapshot.cache_hits > 0, "serve-repeat: repeats do hit");
}

}  // namespace

int main() {
  same_seed_same_bytes();
  serve_mix_matches_stated_fractions();
  hits_cycle_is_warmed();
  no_first_occurrence_hits();
  replay_matches_engine();
  std::cout << (g_failures == 0 ? "all self-tests passed\n"
                                : std::to_string(g_failures) +
                                      " self-test(s) failed\n");
  return g_failures == 0 ? 0 : 1;
}
