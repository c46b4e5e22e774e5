// lera_server: long-lived allocation service over the engine.
//
// Accepts length-framed .lt requests (see src/server/framing.hpp) and
// streams back LERA_* response lines. Three transports, one request
// path:
//
//   ./build/examples/lera_server --pipe           # stdin/stdout, 1 conn
//   ./build/examples/lera_server --unix /tmp/lera.sock
//   ./build/examples/lera_server --tcp 127.0.0.1:7411   # port 0 = any
//
// Options:
//   --threads N         engine worker threads (default 0 = all cores)
//   -r N                registers (default 4)
//   -m static|activity  energy model (default activity)
//   --deadline-ms N     default per-request deadline when a frame
//                       declares none (0 = none)
//   --max-queue N       global admission bound (default 64)
//   --per-tenant N      per-tenant admission bound (default 16)
//   --min-deadline-ms N shed requests declaring a tighter deadline
//   --max-frame-bytes N frame payload cap (default 1 MiB)
//   --queue-budget-ms N watchdog budget on rolling p95 queue wait
//   --drain-grace-s X   drain grace before in-flight work is cancelled
//   --max-bytes N       per-solve memory budget in bytes (0 = none);
//                       requests predicted to exceed it are shed with
//                       LERA_REJECT reason=memory_infeasible
//   --max-bytes-total N engine-wide memory cap in bytes (0 = none)
//   --no-assign         omit assign= from LERA_RESULT lines
//   --workers N         crash isolation: solve in N forked worker
//                       subprocesses; a worker death becomes a typed
//                       LERA_REJECT reason=worker_crashed, never a
//                       daemon crash (0 = in-process, the default)
//   --isolate           shorthand for --workers 2
//   --crash-dir PATH    write each crashing request's payload as a
//                       byte-identical .lt reproducer under PATH
//   --poison-threshold N  quarantine a payload fingerprint after N
//                       worker crashes (default 3)
//   --cache-entries N   certified allocation cache: keep up to N
//                       canonical-fingerprint entries and serve exact
//                       repeats before admission (0 = off, the
//                       default, with byte-identical output to the
//                       pre-cache server)
//   --cache-bytes N     byte budget for cached results (0 = entries
//                       cap only); charged against --max-bytes-total
//   --cache-audit-rate N  paranoia recheck every Nth cache hit
//                       (default 16; 0 = never re-audit)
//
// Environment: LERA_CRASH_FAILPOINT="seed=S one_in=N marker=TEXT"
// arms seeded crash injection inside workers (chaos drills / CI only).
//
// Signals and shutdown: SIGTERM/SIGINT begin a graceful drain — new
// work is rejected with LERA_REJECT reason=draining, in-flight solves
// get --drain-grace-s to finish (then are cancelled and accounted),
// every response is flushed, and the process exits 0. A client can
// trigger the same drain with a DRAIN frame.
//
// Exit codes (see docs/API.md): 0 clean end of service (EOF in pipe
// mode, completed drain otherwise), 1 bind/runtime error, 2 bad usage
// or malformed flags, 4 memory exhaustion in the daemon itself.

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "server/listener.hpp"
#include "server/server.hpp"

namespace {

int usage(int code) {
  std::cout
      << "usage: lera_server (--pipe | --unix PATH | --tcp HOST:PORT)\n"
         "  [--threads N] [-r N] [-m static|activity] [--deadline-ms N]\n"
         "  [--max-queue N] [--per-tenant N] [--min-deadline-ms N]\n"
         "  [--max-frame-bytes N] [--queue-budget-ms N]\n"
         "  [--drain-grace-s X] [--max-bytes N] [--max-bytes-total N]\n"
         "  [--no-assign] [--workers N] [--isolate] [--crash-dir PATH]\n"
         "  [--poison-threshold N] [--cache-entries N] [--cache-bytes N]\n"
         "  [--cache-audit-rate N]\n"
         "exit codes: 0 clean end of service (EOF/drain complete),\n"
         "  1 bind or runtime error, 2 bad usage or malformed flags,\n"
         "  4 daemon memory exhaustion\n";
  return code;
}

/// Parses LERA_CRASH_FAILPOINT ("seed=S one_in=N marker=TEXT exit=C")
/// into crash-injection options for the worker pool. Unknown keys are
/// ignored; the marker value runs to the end of the string so payload
/// markers may contain spaces.
lera::netflow::CrashFailpoint::Options parse_crash_env(
    const std::string& text) {
  lera::netflow::CrashFailpoint::Options crash;
  std::size_t pos = 0;
  while (pos < text.size()) {
    while (pos < text.size() && text[pos] == ' ') ++pos;
    const std::size_t eq = text.find('=', pos);
    if (eq == std::string::npos) break;
    const std::string key = text.substr(pos, eq - pos);
    if (key == "marker") {
      crash.marker = text.substr(eq + 1);
      break;
    }
    std::size_t end = text.find(' ', eq + 1);
    if (end == std::string::npos) end = text.size();
    const std::string value = text.substr(eq + 1, end - eq - 1);
    try {
      if (key == "seed") {
        crash.seed = static_cast<std::uint64_t>(std::stoull(value));
      } else if (key == "one_in") {
        crash.crash_one_in = std::stoi(value);
      } else if (key == "exit") {
        crash.exit_code = std::stoi(value);
      }
    } catch (...) {
      // Malformed chaos knobs must never stop a real daemon.
    }
    pos = end;
  }
  return crash;
}

/// Waits for SIGTERM/SIGINT (blocked in every thread, collected here
/// via sigwait) and starts the graceful drain. Joinable: the
/// destructor flags `exiting_` and raises SIGTERM itself to unpark
/// sigwait, so the drain callbacks can never touch server/listener
/// after main has begun destroying them.
class SignalWatcher {
 public:
  SignalWatcher(sigset_t set, lera::server::Server& server,
                lera::server::Listener* listener)
      : thread_([this, set, &server, listener] {
          int sig = 0;
          if (sigwait(&set, &sig) != 0) return;
          if (exiting_.load(std::memory_order_acquire)) return;
          server.begin_drain();
          if (listener != nullptr) listener->shutdown();
        }) {}

  ~SignalWatcher() {
    exiting_.store(true, std::memory_order_release);
    // Consumed by the parked sigwait; if the watcher already took a
    // real signal, the extra SIGTERM stays blocked and pending, which
    // is harmless at exit.
    ::kill(::getpid(), SIGTERM);
    thread_.join();
  }

  SignalWatcher(const SignalWatcher&) = delete;
  SignalWatcher& operator=(const SignalWatcher&) = delete;

 private:
  std::atomic<bool> exiting_{false};
  std::thread thread_;
};

int run(int argc, char** argv) {
  using namespace lera;

  enum class Mode { kNone, kPipe, kUnix, kTcp };
  Mode mode = Mode::kNone;
  std::string unix_path;
  std::string tcp_host = "127.0.0.1";
  int tcp_port = 0;
  bool model_set = false;
  server::ServerOptions opts;
  opts.engine.threads = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string{};
    };
    auto next_num = [&](const char* flag) -> double {
      const std::string v = next();
      try {
        return std::stod(v);
      } catch (...) {
        std::cerr << "error: " << flag << " requires a number, got '" << v
                  << "'\n";
        std::exit(2);
      }
    };
    if (arg == "--pipe") {
      mode = Mode::kPipe;
    } else if (arg == "--unix") {
      mode = Mode::kUnix;
      unix_path = next();
    } else if (arg == "--tcp") {
      mode = Mode::kTcp;
      const std::string hp = next();
      const std::size_t colon = hp.rfind(':');
      if (colon == std::string::npos) {
        std::cerr << "error: --tcp expects HOST:PORT, got '" << hp
                  << "'\n";
        return 2;
      }
      tcp_host = hp.substr(0, colon);
      try {
        tcp_port = std::stoi(hp.substr(colon + 1));
      } catch (...) {
        std::cerr << "error: bad port in '" << hp << "'\n";
        return 2;
      }
    } else if (arg == "--threads") {
      opts.engine.threads = static_cast<int>(next_num("--threads"));
    } else if (arg == "-r") {
      opts.engine.num_registers = static_cast<int>(next_num("-r"));
    } else if (arg == "-m") {
      const std::string m = next();
      opts.engine.params.register_model =
          m == "static" ? energy::RegisterModel::kStatic
                        : energy::RegisterModel::kActivity;
      model_set = true;
      if (m != "static" && m != "activity") {
        std::cerr << "error: -m expects static|activity, got '" << m
                  << "'\n";
        return 2;
      }
    } else if (arg == "--deadline-ms") {
      opts.engine.task_deadline_seconds =
          next_num("--deadline-ms") / 1000.0;
    } else if (arg == "--max-queue") {
      opts.admission.max_queue = static_cast<int>(next_num("--max-queue"));
    } else if (arg == "--per-tenant") {
      opts.admission.per_tenant_queue =
          static_cast<int>(next_num("--per-tenant"));
    } else if (arg == "--min-deadline-ms") {
      opts.admission.min_feasible_deadline_ms =
          next_num("--min-deadline-ms");
    } else if (arg == "--max-frame-bytes") {
      opts.framing.max_frame_bytes =
          static_cast<std::size_t>(next_num("--max-frame-bytes"));
    } else if (arg == "--queue-budget-ms") {
      opts.metrics.queue_budget_ms = next_num("--queue-budget-ms");
    } else if (arg == "--drain-grace-s") {
      opts.drain_grace_seconds = next_num("--drain-grace-s");
    } else if (arg == "--max-bytes") {
      opts.engine.max_bytes_per_solve =
          static_cast<std::int64_t>(next_num("--max-bytes"));
    } else if (arg == "--max-bytes-total") {
      opts.engine.max_bytes_total =
          static_cast<std::int64_t>(next_num("--max-bytes-total"));
    } else if (arg == "--no-assign") {
      opts.echo_assignment = false;
    } else if (arg == "--workers") {
      opts.isolation.workers = static_cast<int>(next_num("--workers"));
    } else if (arg == "--isolate") {
      if (opts.isolation.workers <= 0) opts.isolation.workers = 2;
    } else if (arg == "--crash-dir") {
      opts.isolation.crash_dir = next();
    } else if (arg == "--poison-threshold") {
      opts.isolation.poison_threshold =
          static_cast<int>(next_num("--poison-threshold"));
    } else if (arg == "--cache-entries") {
      opts.engine.cache_entries =
          static_cast<std::size_t>(next_num("--cache-entries"));
    } else if (arg == "--cache-bytes") {
      opts.engine.cache_bytes =
          static_cast<std::int64_t>(next_num("--cache-bytes"));
    } else if (arg == "--cache-audit-rate") {
      opts.engine.cache_audit_rate =
          static_cast<std::uint32_t>(next_num("--cache-audit-rate"));
    } else if (arg == "-h" || arg == "--help") {
      return usage(0);
    } else {
      std::cerr << "error: unknown flag '" << arg << "'\n";
      return usage(2);
    }
  }
  if (mode == Mode::kNone) {
    std::cerr << "error: pick a transport\n";
    return usage(2);
  }
  if (!model_set) {
    opts.engine.params.register_model = energy::RegisterModel::kActivity;
  }
  if (opts.isolation.workers > 0) {
    // Announce worker pids on stderr so ops and chaos drills can
    // target a live worker; arm injected crashes only when asked.
    opts.isolation.announce_workers = true;
    if (const char* env = std::getenv("LERA_CRASH_FAILPOINT")) {
      opts.isolation.worker.crash = parse_crash_env(env);
    }
  }

  // Route SIGTERM/SIGINT to the watcher thread (blocked everywhere
  // else, so solver threads never race a handler). Ignore SIGPIPE so
  // a client closing its socket mid-response surfaces as -1/EPIPE
  // from write() — handled as client_gone — instead of killing the
  // whole process.
  std::signal(SIGPIPE, SIG_IGN);
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGTERM);
  sigaddset(&sigs, SIGINT);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  server::Server server(opts);

  if (mode == Mode::kPipe) {
    SignalWatcher watcher(sigs, server, nullptr);
    server::FdStream stream(0, 1, /*owns_fds=*/false);
    server.serve(stream);
    return 0;
  }

  std::string error;
  std::unique_ptr<server::Listener> listener =
      mode == Mode::kUnix
          ? server::Listener::listen_unix(unix_path, &error)
          : server::Listener::listen_tcp(tcp_host, tcp_port, &error);
  if (listener == nullptr) {
    std::cerr << "error: cannot listen: " << error << "\n";
    return 1;
  }
  std::cerr << "lera_server listening on " << listener->endpoint()
            << "\n";
  // Destroyed (joined) before listener and server, in reverse
  // declaration order.
  SignalWatcher watcher(sigs, server, listener.get());

  // A DRAIN frame on any connection also ends service: mirror it to
  // the listener so accept() unblocks.
  std::thread drain_monitor([&server, &listener] {
    while (!server.draining()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    listener->shutdown();
  });

  std::vector<std::thread> connections;
  for (;;) {
    std::unique_ptr<server::FdStream> conn = listener->accept();
    if (conn == nullptr) break;
    connections.emplace_back(
        [&server, stream = std::move(conn)] { server.serve(*stream); });
  }
  server.begin_drain();  // Unblocks drain_monitor on listener failure.
  for (std::thread& t : connections) t.join();
  drain_monitor.join();
  std::cerr << "lera_server drained\n";
  server.emit_metric_lines(std::cerr);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::bad_alloc&) {
    // Exit code 4 = memory, aligned with allocate_tool (docs/API.md).
    std::cerr << "error: daemon out of memory\n";
    return 4;
  }
}
