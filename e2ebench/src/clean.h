// One CSV-to-repairs clean, driven stage by stage through the library's
// public session API, with a span around every layer call. The same code
// runs untraced (spans off) for the timed figures and traced for the
// per-layer ones; the traced run adds the compile-stage replays and a
// snapshot round trip, whose time it reports separately so the round time
// stays comparable.

#ifndef E2EBENCH_CLEAN_H_
#define E2EBENCH_CLEAN_H_

#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "holoclean/core/engine.h"
#include "holoclean/util/json.h"

namespace e2ebench {

/// A user-verified cell value applied before the clean (serve feedback).
struct Pin {
  int64_t tid = 0;
  std::string attr;
  std::string value;
};

struct CleanRequest {
  const DatasetText* text = nullptr;
  /// Dirty CSV to clean instead of text->dirty_csv (grown/pinned tables).
  const std::string* csv = nullptr;
  holoclean::HoloCleanConfig config;
  /// Shared-pool session on this engine; null opens a standalone session
  /// with a private pool of config.num_threads workers.
  holoclean::Engine* engine = nullptr;
  std::vector<Pin> pins;
  /// Produce the repaired CSV (CSV out) as part of the clean.
  bool write_csv = true;
  /// Scratch path for the traced snapshot round trip.
  std::string snapshot_path;
};

struct CleanResult {
  ParsedInputs inputs;
  std::optional<holoclean::Session> session;
  holoclean::Report report;
  std::string repaired_csv;
  /// Wall time of the clean, without the traced-only extra calls.
  double seconds = 0.0;
  /// Time of the traced-only extra calls (replays, snapshot).
  double extra_seconds = 0.0;
  /// Traced-only consistency findings (replay differs from the stage).
  std::string replay_problem;
};

/// Runs one clean. Errors are the library's (a failed operation).
holoclean::Status StagedClean(const CleanRequest& request, CleanResult* out);

/// The serve-layer report JSON of a result, as the daemon would send it.
holoclean::JsonValue ReportJson(const CleanResult& result);

}  // namespace e2ebench

#endif  // E2EBENCH_CLEAN_H_
