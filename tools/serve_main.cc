// holoclean_serve — the multi-tenant cleaning daemon.
//
// Listens on 127.0.0.1 (loopback only: the protocol has no auth), speaks
// the length-prefixed JSON protocol of serve/protocol.h, and shuts down
// gracefully on SIGTERM/SIGINT: in-flight requests finish, warm sessions
// and the dataset catalog are persisted to --state-dir, and a restarted
// daemon picks them back up bit-identically.
//
// Usage:
//   holoclean_serve [--port N] [--state-dir DIR] [--spill-dir DIR]
//                   [--threads N] [--cache-capacity N]
//                   [--tenant-inflight N] [--global-inflight N]
//                   [--queue-depth N] [--default-deadline-ms N]
//                   [--max-deadline-ms N] [--socket-timeout-ms N]
//                   [--failpoints PROFILE]
//
// Prints "listening on port N" once ready (port 0 binds ephemerally and
// reports the real port — how the CI smoke test finds it).
//
// --failpoints takes a util/failpoint.h profile string (equivalently the
// HOLOCLEAN_FAILPOINTS env var) — the CI fault-injection smoke job uses
// it to run the daemon under seeded spill/frame/overload faults.

#include <signal.h>
#include <unistd.h>

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "holoclean/serve/server.h"
#include "holoclean/util/failpoint.h"
#include "holoclean/util/string_util.h"

namespace {

// Self-pipe: the signal handler only writes one byte; all shutdown work
// happens on the main thread, outside async-signal context.
int g_shutdown_pipe[2] = {-1, -1};

void HandleShutdownSignal(int) {
  char byte = 1;
  ssize_t ignored = ::write(g_shutdown_pipe[1], &byte, 1);
  (void)ignored;
}

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: holoclean_serve [--port N] [--state-dir DIR] [--spill-dir DIR]\n"
      "                       [--threads N] [--cache-capacity N]\n"
      "                       [--tenant-inflight N] [--global-inflight N]\n"
      "                       [--queue-depth N] [--default-deadline-ms N]\n"
      "                       [--max-deadline-ms N] [--socket-timeout-ms N]\n"
      "                       [--failpoints PROFILE]\n");
}

}  // namespace

int main(int argc, char** argv) {
  holoclean::serve::ServerOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // Reads the flag's value as a number in [min, max]; prints why and
    // returns false when it is missing, malformed, or out of range.
    auto number = [&](size_t min, size_t max, size_t* out) {
      const char* text = next();
      auto parsed = holoclean::ParseNumber<size_t>(
          arg, text == nullptr ? "" : text, min, max);
      if (!parsed.ok()) {
        std::fprintf(stderr, "%s\n", parsed.status().message().c_str());
        return false;
      }
      *out = parsed.value();
      return true;
    };
    const size_t kIntMax = static_cast<size_t>(INT_MAX);
    const size_t kInt64Max = static_cast<size_t>(INT64_MAX);
    const char* value = nullptr;
    size_t parsed = 0;
    if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    } else if (arg == "--port") {
      if (!number(0, 65535, &parsed)) return 2;
      options.port = static_cast<int>(parsed);
    } else if (arg == "--state-dir") {
      if ((value = next()) == nullptr) {
        std::fprintf(stderr, "--state-dir needs a directory\n");
        return 2;
      }
      options.state_directory = value;
    } else if (arg == "--spill-dir") {
      if ((value = next()) == nullptr) {
        std::fprintf(stderr, "--spill-dir needs a directory\n");
        return 2;
      }
      options.spill_directory = value;
    } else if (arg == "--threads") {
      if (!number(0, SIZE_MAX, &options.engine_threads)) return 2;
    } else if (arg == "--cache-capacity") {
      if (!number(0, SIZE_MAX, &options.session_cache_capacity)) return 2;
    } else if (arg == "--tenant-inflight") {
      if (!number(1, SIZE_MAX, &options.admission.per_tenant_inflight)) {
        return 2;
      }
    } else if (arg == "--global-inflight") {
      if (!number(1, SIZE_MAX, &options.admission.global_inflight)) return 2;
    } else if (arg == "--queue-depth") {
      // 0 = reject-only.
      if (!number(0, SIZE_MAX, &options.queue.max_depth)) return 2;
    } else if (arg == "--default-deadline-ms") {
      if (!number(1, kInt64Max, &parsed)) return 2;
      options.queue.default_deadline_ms = static_cast<int64_t>(parsed);
    } else if (arg == "--max-deadline-ms") {
      // 0 = uncapped.
      if (!number(0, kInt64Max, &parsed)) return 2;
      options.queue.max_deadline_ms = static_cast<int64_t>(parsed);
    } else if (arg == "--socket-timeout-ms") {
      // 0 = blocking.
      if (!number(0, kIntMax, &parsed)) return 2;
      options.socket_timeout_ms = static_cast<int>(parsed);
    } else if (arg == "--failpoints") {
      if ((value = next()) == nullptr) {
        std::fprintf(stderr, "--failpoints needs a profile string\n");
        return 2;
      }
      options.failpoint_profile = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      PrintUsage();
      return 2;
    }
  }

  if (::pipe(g_shutdown_pipe) != 0) {
    std::fprintf(stderr, "pipe: %s\n", std::strerror(errno));
    return 1;
  }
  struct sigaction sa{};
  sa.sa_handler = HandleShutdownSignal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);  // A dead client must not kill the daemon.

  if (!options.failpoint_profile.empty()) {
    // Surface a typo'd profile as a startup error; the server constructor
    // only warns (it must tolerate a bad HOLOCLEAN_FAILPOINTS env).
    holoclean::Status fp =
        holoclean::Failpoints::Global().Configure(options.failpoint_profile);
    if (!fp.ok()) {
      std::fprintf(stderr, "--failpoints: %s\n", fp.ToString().c_str());
      return 2;
    }
  }

  holoclean::serve::CleaningServer server(options);

  holoclean::Status st = server.RestoreState();
  if (!st.ok()) {
    std::fprintf(stderr, "state restore failed: %s\n", st.ToString().c_str());
    return 1;
  }
  st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "start failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("listening on port %d\n", server.port());
  std::fflush(stdout);

  // Block until a shutdown signal arrives.
  char byte;
  while (::read(g_shutdown_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }

  st = server.Drain();
  if (!st.ok()) {
    std::fprintf(stderr, "drain failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("drained\n");
  return 0;
}
