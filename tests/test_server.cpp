#include "server/server.hpp"

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/stream.hpp"

// fork()-based isolation tests skip themselves under TSan (fork from a
// threaded process is unsupported there); everything else runs.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LERA_TEST_UNDER_TSAN 1
#endif
#endif
#if !defined(LERA_TEST_UNDER_TSAN) && defined(__SANITIZE_THREAD__)
#define LERA_TEST_UNDER_TSAN 1
#endif

#ifdef LERA_TEST_UNDER_TSAN
#define LERA_SKIP_IF_TSAN() \
  GTEST_SKIP() << "fork-based worker isolation is unsupported under TSan"
#else
#define LERA_SKIP_IF_TSAN() (void)0
#endif

// End-to-end tests of the allocation service over in-memory channels:
// the same Server::serve() path pipe mode and the socket listener use,
// driven deterministically. Covers the typed-rejection contract
// (bad_request with the parser diagnostic, queue_full, tenant_quota,
// deadline_infeasible, draining), response ordering, graceful drain,
// health, and the accounting identity under a client disconnect.

namespace lera::server {
namespace {

constexpr const char* kTinyProblem =
    "steps 7\nregisters 3\n"
    "var a write 1 reads 3\nvar b write 2 reads 4\n"
    "var c write 3 reads 6\n";

std::string solve_frame(const std::string& id, const std::string& payload,
                        long long deadline_ms = -1,
                        const std::string& tenant = "") {
  Frame f;
  f.verb = FrameVerb::kSolve;
  f.id = id;
  f.tenant = tenant;
  f.deadline_ms = deadline_ms;
  f.payload = payload;
  return encode_frame(f);
}

/// Runs one scripted conversation: writes every chunk, closes the
/// request direction, serves to completion, and returns the response
/// lines in order.
std::vector<std::string> converse(Server& server,
                                  const std::vector<std::string>& chunks) {
  MemoryChannel chan;
  std::thread serving([&] { server.serve(chan.server_end()); });
  for (const std::string& c : chunks) {
    if (!chan.client_end().write(c)) break;
  }
  chan.close_client_writes();
  serving.join();
  chan.close_server_writes();

  char buffer[4096];
  std::string acc;
  for (;;) {
    const std::ptrdiff_t n =
        chan.client_end().read(buffer, sizeof buffer);
    if (n == ByteStream::kReadAgain) continue;
    if (n <= 0) break;
    acc.append(buffer, static_cast<std::size_t>(n));
  }
  std::vector<std::string> lines;
  std::size_t nl;
  while ((nl = acc.find('\n')) != std::string::npos) {
    lines.push_back(acc.substr(0, nl));
    acc.erase(0, nl + 1);
  }
  return lines;
}

ServerOptions deterministic_options() {
  ServerOptions opts;
  opts.engine.threads = 1;
  return opts;
}

TEST(Server, AnswersSolvesInFrameOrderDeterministically) {
  ServerOptions opts = deterministic_options();
  Server server(opts);
  const std::vector<std::string> lines = converse(
      server, {"PING 0 id=p1\n", solve_frame("s1", kTinyProblem),
               solve_frame("s2", kTinyProblem), "PING 0 id=p2\n"});
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0], "LERA_PONG p1");
  EXPECT_EQ(lines[1].rfind("LERA_RESULT s1 status=ok", 0), 0u) << lines[1];
  EXPECT_EQ(lines[2].rfind("LERA_RESULT s2 status=ok", 0), 0u) << lines[2];
  EXPECT_EQ(lines[3], "LERA_PONG p2");
  // Identical segments, identical engine: identical result lines
  // except the id and latency.
  EXPECT_NE(lines[1].find("energy="), std::string::npos);
  EXPECT_NE(lines[1].find("assign="), std::string::npos);

  // Byte-determinism across runs (threads=1): a second identical
  // conversation produces the same result line modulo latency.
  Server server2(deterministic_options());
  const std::vector<std::string> again =
      converse(server2, {solve_frame("s1", kTinyProblem)});
  ASSERT_EQ(again.size(), 1u);
  const auto strip_latency = [](const std::string& line) {
    const std::size_t at = line.find(" latency_ms=");
    const std::size_t end = line.find(' ', at + 1);
    return line.substr(0, at) +
           (end == std::string::npos ? "" : line.substr(end));
  };
  EXPECT_EQ(strip_latency(again[0]), strip_latency(lines[1]));
}

TEST(Server, ParseErrorBecomesTypedBadRequestAndConnectionSurvives) {
  Server server(deterministic_options());
  const std::vector<std::string> lines = converse(
      server, {solve_frame("broken", "steps 3\nwat is this\n"),
               solve_frame("fine", kTinyProblem)});
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].rfind("LERA_REJECT broken reason=bad_request", 0), 0u)
      << lines[0];
  // The parser's diagnostic (with its line number) rides along.
  EXPECT_NE(lines[0].find("detail=line 2"), std::string::npos) << lines[0];
  EXPECT_EQ(lines[1].rfind("LERA_RESULT fine", 0), 0u) << lines[1];

  const MetricsSnapshot s = server.metrics();
  EXPECT_EQ(s.rejected_by_reason[static_cast<int>(
                RejectReason::kBadRequest)],
            1);
  EXPECT_EQ(s.accounted_requests(), s.solve_requests);
}

TEST(Server, MalformedAndOversizedFramesGetTypedRejects) {
  ServerOptions opts = deterministic_options();
  opts.framing.max_frame_bytes = 64;
  Server server(opts);
  const std::vector<std::string> lines = converse(
      server,
      {"GET / HTTP/1.1\n",
       "SOLVE 5000 id=big\n" + std::string(5000, 'z'),
       "PING 0 id=alive\n"});
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("reason=bad_frame"), std::string::npos);
  EXPECT_EQ(lines[1].rfind("LERA_REJECT big reason=frame_too_large", 0),
            0u)
      << lines[1];
  EXPECT_EQ(lines[2], "LERA_PONG alive");
}

/// Gate the engine's solve path: the post-solve hook blocks until
/// release(), pinning requests in flight so admission decisions become
/// deterministic.
struct SolveGate {
  std::mutex mutex;
  std::condition_variable cv;
  bool open = false;

  void release() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      open = true;
    }
    cv.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return open; });
  }
};

TEST(Server, OverloadShedsWithTypedQueueFullNeverSilently) {
  ServerOptions opts;
  // Pool threads, not inline solving: with threads=1 the engine solves
  // on the submitting (reader) thread, and a gated solve would block
  // frame processing instead of pinning work in flight.
  opts.engine.threads = 2;
  opts.admission.max_queue = 2;
  auto gate = std::make_shared<SolveGate>();
  opts.engine.alloc.solve.post_solve_hook =
      [gate](const netflow::Graph&, netflow::FlowSolution&) {
        gate->wait();
      };
  Server server(opts);

  MemoryChannel chan;
  std::thread serving([&] { server.serve(chan.server_end()); });
  chan.client_end().write(solve_frame("s1", kTinyProblem));
  chan.client_end().write(solve_frame("s2", kTinyProblem));
  chan.client_end().write(solve_frame("s3", kTinyProblem));
  // s1/s2 fill the queue (the gate pins them in flight); s3 must be
  // shed. Wait for the shed to be booked, then open the gate.
  for (int spin = 0; spin < 500; ++spin) {
    if (server.metrics().rejected_total >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server.metrics().rejected_by_reason[static_cast<int>(
                RejectReason::kQueueFull)],
            1);
  gate->release();
  chan.close_client_writes();
  serving.join();
  chan.close_server_writes();

  char buffer[4096];
  std::string acc;
  for (;;) {
    const std::ptrdiff_t n =
        chan.client_end().read(buffer, sizeof buffer);
    if (n == ByteStream::kReadAgain) continue;
    if (n <= 0) break;
    acc.append(buffer, static_cast<std::size_t>(n));
  }
  EXPECT_NE(acc.find("LERA_RESULT s1"), std::string::npos) << acc;
  EXPECT_NE(acc.find("LERA_RESULT s2"), std::string::npos) << acc;
  EXPECT_NE(acc.find("LERA_REJECT s3 reason=queue_full"),
            std::string::npos)
      << acc;
  const MetricsSnapshot s = server.metrics();
  EXPECT_EQ(s.accounted_requests(), s.solve_requests);
}

TEST(Server, TenantQuotaIsEnforcedPerTenant) {
  ServerOptions opts;
  opts.engine.threads = 2;  // See OverloadSheds... for why not 1.
  opts.admission.max_queue = 16;
  opts.admission.per_tenant_queue = 1;
  auto gate = std::make_shared<SolveGate>();
  opts.engine.alloc.solve.post_solve_hook =
      [gate](const netflow::Graph&, netflow::FlowSolution&) {
        gate->wait();
      };
  Server server(opts);

  MemoryChannel chan;
  std::thread serving([&] { server.serve(chan.server_end()); });
  chan.client_end().write(solve_frame("a1", kTinyProblem, -1, "alpha"));
  chan.client_end().write(solve_frame("a2", kTinyProblem, -1, "alpha"));
  chan.client_end().write(solve_frame("b1", kTinyProblem, -1, "beta"));
  for (int spin = 0; spin < 500; ++spin) {
    if (server.metrics().rejected_total >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  gate->release();
  chan.close_client_writes();
  serving.join();
  chan.close_server_writes();

  char buffer[4096];
  std::string acc;
  for (;;) {
    const std::ptrdiff_t n =
        chan.client_end().read(buffer, sizeof buffer);
    if (n == ByteStream::kReadAgain) continue;
    if (n <= 0) break;
    acc.append(buffer, static_cast<std::size_t>(n));
  }
  // alpha's second request is shed; beta, a different tenant, rides on.
  EXPECT_NE(acc.find("LERA_REJECT a2 reason=tenant_quota"),
            std::string::npos)
      << acc;
  EXPECT_NE(acc.find("LERA_RESULT b1"), std::string::npos) << acc;
}

TEST(Server, InfeasibleDeadlinesAreShedUpFront) {
  ServerOptions opts = deterministic_options();
  opts.admission.min_feasible_deadline_ms = 100;
  Server server(opts);
  const std::vector<std::string> lines = converse(
      server, {solve_frame("zero", kTinyProblem, 0),
               solve_frame("tight", kTinyProblem, 5),
               solve_frame("fine", kTinyProblem, 5000)});
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(
      lines[0].rfind("LERA_REJECT zero reason=deadline_infeasible", 0),
      0u)
      << lines[0];
  EXPECT_EQ(
      lines[1].rfind("LERA_REJECT tight reason=deadline_infeasible", 0),
      0u)
      << lines[1];
  EXPECT_EQ(lines[2].rfind("LERA_RESULT fine", 0), 0u) << lines[2];
}

TEST(Server, DrainStopsAdmissionFlushesAndReportsCompletion) {
  ServerOptions opts = deterministic_options();
  opts.drain_grace_seconds = 2;
  Server server(opts);
  const std::vector<std::string> lines = converse(
      server, {solve_frame("before", kTinyProblem), "DRAIN 0 id=d\n",
               solve_frame("after", kTinyProblem)});
  ASSERT_GE(lines.size(), 4u);
  EXPECT_EQ(lines[0].rfind("LERA_RESULT before", 0), 0u) << lines[0];
  EXPECT_EQ(lines[1].rfind("LERA_DRAIN d state=started", 0), 0u)
      << lines[1];
  EXPECT_EQ(lines[2].rfind("LERA_REJECT after reason=draining", 0), 0u)
      << lines[2];
  // Connection close under drain ends with the completion report plus
  // the metric block — the supervisor's proof nothing was dropped.
  EXPECT_EQ(lines[3].rfind("LERA_DRAIN - state=complete", 0), 0u)
      << lines[3];
  EXPECT_NE(lines[3].find("served=1"), std::string::npos) << lines[3];
  bool saw_metric = false;
  for (const std::string& l : lines) {
    if (l.rfind("LERA_METRIC server_", 0) == 0) saw_metric = true;
  }
  EXPECT_TRUE(saw_metric);
  EXPECT_TRUE(server.draining());
  const MetricsSnapshot s = server.metrics();
  EXPECT_EQ(s.accounted_requests(), s.solve_requests);
}

TEST(Server, HealthReportsStateAndStatusWord) {
  Server server(deterministic_options());
  const std::vector<std::string> lines =
      converse(server, {"HEALTH 0 id=h\n"});
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].rfind("LERA_HEALTH h status=ok", 0), 0u) << lines[0];

  const HealthStatus before = server.health();
  EXPECT_FALSE(before.draining);
  EXPECT_FALSE(before.overloaded);
  server.begin_drain();
  const HealthStatus after = server.health();
  EXPECT_TRUE(after.draining);
  EXPECT_EQ(after.status_word(), "draining");
}

TEST(Server, ClientDisconnectMidRequestStillAccountsEverything) {
  ServerOptions opts;
  opts.engine.threads = 2;  // See OverloadSheds... for why not 1.
  auto gate = std::make_shared<SolveGate>();
  opts.engine.alloc.solve.post_solve_hook =
      [gate](const netflow::Graph&, netflow::FlowSolution&) {
        gate->wait();
      };
  Server server(opts);

  MemoryChannel chan;
  std::thread serving([&] { server.serve(chan.server_end()); });
  chan.client_end().write(solve_frame("gone1", kTinyProblem));
  chan.client_end().write(solve_frame("gone2", kTinyProblem));
  // Wait until both solves are admitted and in flight (a hard
  // disconnect drops bytes the server has not read yet — that would be
  // a client that died before the request ever arrived).
  for (int spin = 0; spin < 500; ++spin) {
    if (server.metrics().solve_requests == 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(server.metrics().solve_requests, 2);
  // The client dies mid-conversation with solves in flight.
  chan.disconnect_client();
  gate->release();
  serving.join();  // Must return: no hang on a vanished peer.

  const MetricsSnapshot s = server.metrics();
  EXPECT_EQ(s.solve_requests, 2);
  // Every admitted request reached a terminal state even though nobody
  // is listening for the answers.
  EXPECT_EQ(s.accounted_requests(), s.solve_requests);
}

TEST(Server, TruncatedStreamYieldsTypedRejectNotSilence) {
  Server server(deterministic_options());
  const std::vector<std::string> lines = converse(
      server, {"SOLVE 100 id=cut\nonly part of the payload"});
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].rfind("LERA_REJECT cut reason=bad_frame", 0), 0u)
      << lines[0];
  EXPECT_NE(lines[0].find("bytes short"), std::string::npos) << lines[0];
}

TEST(Server, IsolatedModeMatchesInProcessVerdictBytes) {
  LERA_SKIP_IF_TSAN();
  // Same conversation through both execution modes: the worker child
  // uses the very formatting helpers the in-process path uses, so the
  // verdict lines must match byte for byte modulo the latency figure.
  Server in_process(deterministic_options());
  const std::vector<std::string> direct = converse(
      in_process, {solve_frame("s1", kTinyProblem), "PING 0 id=p\n"});

  ServerOptions opts = deterministic_options();
  opts.isolation.workers = 1;
  Server isolated(opts);
  const std::vector<std::string> via_worker = converse(
      isolated, {solve_frame("s1", kTinyProblem), "PING 0 id=p\n"});

  const auto strip_latency = [](const std::string& line) {
    const std::size_t at = line.find(" latency_ms=");
    if (at == std::string::npos) return line;
    const std::size_t end = line.find(' ', at + 1);
    return line.substr(0, at) +
           (end == std::string::npos ? "" : line.substr(end));
  };
  ASSERT_EQ(direct.size(), via_worker.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(strip_latency(direct[i]), strip_latency(via_worker[i]))
        << "line " << i;
  }
}

TEST(Server, WorkerCrashAndQuarantineAreTypedAndAccounted) {
  LERA_SKIP_IF_TSAN();
  ServerOptions opts = deterministic_options();
  opts.isolation.workers = 1;
  opts.isolation.poison_threshold = 1;
  opts.isolation.restart_backoff_seconds = 0.005;
  opts.isolation.worker.crash.marker = "poisonpill";
  Server server(opts);

  const std::string poison =
      "steps 6\nregisters 2\n"
      "var poisonpill write 1 reads 4\nvar b write 2 reads 5\n";
  const std::vector<std::string> lines = converse(
      server, {solve_frame("c1", poison), solve_frame("c2", poison),
               solve_frame("ok", kTinyProblem)});
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].rfind("LERA_REJECT c1 reason=worker_crashed", 0), 0u)
      << lines[0];
  EXPECT_NE(lines[0].find("worker died"), std::string::npos) << lines[0];
  EXPECT_EQ(lines[1].rfind("LERA_REJECT c2 reason=quarantined", 0), 0u)
      << lines[1];
  EXPECT_EQ(lines[2].rfind("LERA_RESULT ok status=ok", 0), 0u) << lines[2];

  const MetricsSnapshot s = server.metrics();
  EXPECT_EQ(s.rejected_by_reason[static_cast<int>(
                RejectReason::kWorkerCrashed)],
            1);
  EXPECT_EQ(s.rejected_by_reason[static_cast<int>(
                RejectReason::kQuarantined)],
            1);
  EXPECT_EQ(s.accounted_requests(), s.solve_requests);

  const HealthStatus health = server.health();
  EXPECT_TRUE(health.isolation_enabled);
  EXPECT_GE(health.worker_crashes, 1);
  EXPECT_EQ(health.quarantined_fingerprints, 1);
}

TEST(Server, DrainDuringWorkerRestartYieldsOneTypedVerdictEach) {
  LERA_SKIP_IF_TSAN();
  // The nasty interleaving: a crash puts the only worker slot into its
  // respawn backoff, a drain lands while the next request is waiting on
  // that backoff, and the backoff (5 s) far outlasts the drain grace
  // (0.3 s). The queued request must still resolve to exactly one
  // typed verdict — withdrawn, not stuck, not dropped.
  ServerOptions opts = deterministic_options();
  opts.drain_grace_seconds = 0.3;
  opts.isolation.workers = 1;
  opts.isolation.poison_threshold = 100;  // Quarantine stays out of play.
  opts.isolation.restart_backoff_seconds = 5.0;
  opts.isolation.restart_backoff_cap_seconds = 10.0;
  opts.isolation.worker.crash.marker = "poisonpill";
  Server server(opts);

  const std::string poison =
      "steps 6\nregisters 2\n"
      "var poisonpill write 1 reads 4\nvar b write 2 reads 5\n";
  const std::vector<std::string> lines = converse(
      server, {solve_frame("crash", poison),
               solve_frame("queued", kTinyProblem), "DRAIN 0 id=d\n"});
  ASSERT_GE(lines.size(), 4u);
  EXPECT_EQ(lines[0].rfind("LERA_REJECT crash reason=worker_crashed", 0),
            0u)
      << lines[0];
  EXPECT_EQ(lines[1].rfind("LERA_CANCELLED queued", 0), 0u) << lines[1];
  EXPECT_EQ(lines[2].rfind("LERA_DRAIN d state=started", 0), 0u)
      << lines[2];
  EXPECT_EQ(lines[3].rfind("LERA_DRAIN - state=complete", 0), 0u)
      << lines[3];
  // The drain ledger carries the supervisor's counters.
  bool saw_worker_metric = false;
  for (const std::string& l : lines) {
    if (l.rfind("LERA_METRIC server_worker_crashes", 0) == 0) {
      saw_worker_metric = true;
    }
  }
  EXPECT_TRUE(saw_worker_metric);

  const MetricsSnapshot s = server.metrics();
  EXPECT_EQ(s.accounted_requests(), s.solve_requests);
  EXPECT_EQ(s.solve_requests, 2);
}

TEST(Server, AbruptPeerDeathOnFdStreamIsCleanEndOfStreamNotError) {
  // satellite: a TCP client that vanishes (RST) must account exactly
  // like the in-memory chaos harness's disconnects — write() returns
  // false, read() reports end-of-stream — never a generic error.
  ::signal(SIGPIPE, SIG_IGN);
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  FdStream stream(sv[0], sv[0], /*owns_fds=*/true);
  ASSERT_TRUE(stream.write("hello"));
  // Peer dies abruptly with our bytes unread: the kernel turns further
  // traffic into EPIPE/ECONNRESET.
  ::close(sv[1]);
  EXPECT_FALSE(stream.write(std::string(1 << 16, 'x')));
  EXPECT_TRUE(stream.peer_reset());
  char buffer[64];
  std::ptrdiff_t n;
  do {
    n = stream.read(buffer, sizeof buffer);
  } while (n == ByteStream::kReadAgain);
  EXPECT_EQ(n, 0) << "peer reset must read as clean end-of-stream";
}

TEST(Server, WatchdogTripsOnQueueWaitAndRecovers) {
  // Unit-level: drive the metrics watchdog directly through its
  // recording path (the server wires the same calls).
  ServerMetrics::Options mo;
  mo.queue_budget_ms = 50;
  mo.watchdog_min_samples = 4;
  ServerMetrics metrics(mo);
  EXPECT_FALSE(metrics.watchdog_tripped());
  for (int i = 0; i < 16; ++i) {
    metrics.on_terminal(Terminal::kServed, 200, 150);
  }
  EXPECT_TRUE(metrics.watchdog_tripped());
  // Hysteresis: recovery needs the p95 under half the budget.
  for (int i = 0; i < 600; ++i) {
    metrics.on_terminal(Terminal::kServed, 5, 1);
  }
  EXPECT_FALSE(metrics.watchdog_tripped());
}

// --- Allocation cache ------------------------------------------------

ServerOptions cached_options(std::size_t entries = 64) {
  ServerOptions opts = deterministic_options();
  opts.engine.cache_entries = entries;
  return opts;
}

/// Strips the one volatile token (latency_ms=...) so identical answers
/// compare equal across runs.
std::string without_latency(std::string line) {
  const std::size_t pos = line.find(" latency_ms=");
  if (pos == std::string::npos) return line;
  std::size_t end = line.find(' ', pos + 1);
  if (end == std::string::npos) end = line.size();
  return line.erase(pos, end - pos);
}

TEST(ServerCache, RepeatIsServedFromCacheWithIdenticalAnswer) {
  Server server(cached_options());
  // Connection 1 solves (and the writer inserts); connections 2 and 3
  // repeat the exact bytes. Separate connections make the insert-before
  // -lookup ordering deterministic.
  const std::vector<std::string> first =
      converse(server, {solve_frame("a", kTinyProblem)});
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(first[0].rfind("LERA_RESULT a status=ok", 0), 0u) << first[0];
  EXPECT_EQ(first[0].find(" cached=1"), std::string::npos);

  const std::vector<std::string> second =
      converse(server, {solve_frame("b", kTinyProblem)});
  ASSERT_EQ(second.size(), 1u);
  EXPECT_NE(second[0].find(" cached=1"), std::string::npos) << second[0];

  // Third repeat exercises the tier-0 exact-text path (populated by the
  // canonical hit above); the answer must still be identical.
  const std::vector<std::string> third =
      converse(server, {solve_frame("c", kTinyProblem)});
  ASSERT_EQ(third.size(), 1u);
  EXPECT_NE(third[0].find(" cached=1"), std::string::npos) << third[0];

  // Same energy and assignment tokens on all three.
  const auto tail_of = [](const std::string& line) {
    const std::size_t at = line.find(" energy=");
    return line.substr(at);
  };
  const auto strip_cached = [](std::string s) {
    const std::size_t at = s.find(" cached=1");
    if (at != std::string::npos) s.erase(at, std::string(" cached=1").size());
    return s;
  };
  EXPECT_EQ(without_latency(tail_of(first[0])),
            strip_cached(without_latency(tail_of(second[0]))));
  EXPECT_EQ(without_latency(tail_of(first[0])),
            strip_cached(without_latency(tail_of(third[0]))));

  const HealthStatus h = server.health();
  EXPECT_TRUE(h.cache_enabled);
  EXPECT_EQ(h.cache_entries, 1);
  // Canonical-cache hits; the tier-0 text hit is counted separately in
  // the metrics but still lands in the cache_hits terminal.
  const MetricsSnapshot s = server.metrics();
  EXPECT_EQ(s.cache_hits, 2);
  EXPECT_EQ(s.served, 1);
  EXPECT_EQ(s.accounted_requests(), s.solve_requests);
}

TEST(ServerCache, PermutedRepeatHitsThroughCanonicalFingerprint) {
  Server server(cached_options());
  const char* permuted_problem =
      "steps 7\nregisters 3\n"
      "var c write 3 reads 6\nvar a write 1 reads 3\n"
      "var b write 2 reads 4\n";
  const std::vector<std::string> first =
      converse(server, {solve_frame("a", kTinyProblem)});
  ASSERT_EQ(first.size(), 1u);
  const std::vector<std::string> second =
      converse(server, {solve_frame("b", permuted_problem)});
  ASSERT_EQ(second.size(), 1u);
  EXPECT_NE(second[0].find(" cached=1"), std::string::npos) << second[0];
  // Remapped onto the permuted declaration order: same energy.
  const auto token_of = [](const std::string& line, const char* key) {
    const std::size_t at = line.find(key);
    const std::size_t end = line.find(' ', at + 1);
    return line.substr(at, end - at);
  };
  EXPECT_EQ(token_of(first[0], " energy="),
            token_of(second[0], " energy="));
}

TEST(ServerCache, CacheOffOutputIsBitIdenticalToDefault) {
  // --cache-entries 0 (the default) must not change a byte of output.
  Server plain(deterministic_options());
  Server cached_off(deterministic_options());
  const std::vector<std::string> chunks = {
      solve_frame("x", kTinyProblem), solve_frame("y", kTinyProblem),
      "HEALTH 0 id=h\n"};
  std::vector<std::string> a = converse(plain, chunks);
  std::vector<std::string> b = converse(cached_off, chunks);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].rfind("LERA_RESULT", 0) != 0) continue;
    // HEALTH carries genuinely volatile load fields (in_flight, queue
    // timings) that differ run to run even on one server; the contract
    // under test is the answer bytes, compared below, plus the absence
    // of cache tokens anywhere, checked for both servers after.
    EXPECT_EQ(without_latency(a[i]), without_latency(b[i])) << i;
  }
  for (const std::vector<std::string>* lines : {&a, &b}) {
    for (const std::string& line : *lines) {
      EXPECT_EQ(line.find("cache"), std::string::npos) << line;
    }
  }
  EXPECT_FALSE(plain.health().cache_enabled);
}

TEST(ServerCache, HealthAndStatsExposeCacheFieldsOnlyWhenEnabled) {
  Server server(cached_options());
  // STATS answers with a multi-line LERA_METRIC block terminated by
  // LERA_STATS_END, so scan the whole transcript rather than indexing.
  const auto transcript_of = [](const std::vector<std::string>& lines) {
    std::string joined;
    for (const std::string& line : lines) joined += line + "\n";
    return joined;
  };
  const std::vector<std::string> lines = converse(
      server, {solve_frame("a", kTinyProblem),
               "HEALTH 0 id=h1\n", "STATS 0 id=s1\n"});
  const std::string on = transcript_of(lines);
  EXPECT_NE(on.find("LERA_HEALTH h1"), std::string::npos) << on;
  EXPECT_NE(on.find("cache_hits="), std::string::npos) << on;
  EXPECT_NE(on.find("LERA_METRIC server_cache_entries"),
            std::string::npos) << on;
  EXPECT_NE(on.find("LERA_METRIC server_cache_text_hits"),
            std::string::npos) << on;
  EXPECT_NE(on.find("LERA_METRIC server_cache_hits "), std::string::npos)
      << on;
  EXPECT_NE(on.find("LERA_METRIC server_cache_hit_p50_ms "),
            std::string::npos) << on;
  EXPECT_NE(on.find("LERA_STATS_END s1"), std::string::npos) << on;

  Server off(deterministic_options());
  const std::string off_transcript = transcript_of(
      converse(off, {"HEALTH 0 id=h\n", "STATS 0 id=s\n"}));
  EXPECT_NE(off_transcript.find("LERA_HEALTH h"), std::string::npos);
  EXPECT_NE(off_transcript.find("LERA_STATS_END s"), std::string::npos);
  EXPECT_EQ(off_transcript.find("server_cache_"), std::string::npos)
      << off_transcript;
  EXPECT_EQ(off_transcript.find("server_cache_hits"), std::string::npos)
      << off_transcript;
  EXPECT_EQ(off_transcript.find("server_cache_hit_p50_ms"),
            std::string::npos) << off_transcript;
  EXPECT_EQ(off_transcript.find("cache_hits="), std::string::npos)
      << off_transcript;
}

TEST(ServerCache, JitteredInstanceMissesAndIsSolvedFresh) {
  Server server(cached_options());
  const char* jittered =
      "steps 7\nregisters 2\n"  // One fewer register: a new instance.
      "var a write 1 reads 3\nvar b write 2 reads 4\n"
      "var c write 3 reads 6\n";
  converse(server, {solve_frame("a", kTinyProblem)});
  const std::vector<std::string> second =
      converse(server, {solve_frame("b", jittered)});
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].find(" cached=1"), std::string::npos) << second[0];
  EXPECT_EQ(server.metrics().cache_hits, 0);
}

TEST(ServerCache, IsolatedModeCachesInParentAndSkipsWorkerOnHit) {
  LERA_SKIP_IF_TSAN();
  ServerOptions opts = cached_options();
  opts.isolation.workers = 1;
  Server server(opts);
  const std::vector<std::string> first =
      converse(server, {solve_frame("a", kTinyProblem)});
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(first[0].rfind("LERA_RESULT a status=ok", 0), 0u) << first[0];
  const std::vector<std::string> second =
      converse(server, {solve_frame("b", kTinyProblem)});
  ASSERT_EQ(second.size(), 1u);
  EXPECT_NE(second[0].find(" cached=1"), std::string::npos) << second[0];
  const MetricsSnapshot s = server.metrics();
  EXPECT_EQ(s.cache_hits, 1);
  EXPECT_EQ(s.served, 1);
  EXPECT_EQ(s.accounted_requests(), s.solve_requests);
}

TEST(Server, DrainTrailerAndStatsCarryTheSameMetricNames) {
  // Both are written by one metric block, so a counter added to STATS
  // cannot go missing from the drain ledger (or the reverse).
  const auto metric_names = [](const std::vector<std::string>& lines) {
    std::vector<std::string> names;
    for (const std::string& l : lines) {
      if (l.rfind("LERA_METRIC ", 0) != 0) continue;
      names.push_back(l.substr(0, l.find(' ', 12)));
    }
    return names;
  };
  for (const ServerOptions& opts : {deterministic_options(),
                                    cached_options()}) {
    Server server(opts);
    const std::vector<std::string> stats = metric_names(converse(
        server, {solve_frame("a", kTinyProblem), "STATS 0 id=s\n"}));
    const std::vector<std::string> trailer =
        metric_names(converse(server, {"DRAIN 0 id=d\n"}));
    EXPECT_FALSE(stats.empty());
    EXPECT_EQ(stats, trailer);
  }
}

}  // namespace
}  // namespace lera::server
