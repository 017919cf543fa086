// The benchmark's workloads. Each run repeats whole rounds until the
// measured time reaches --seconds (at least kMinRounds rounds): a round is
// a set-up (timed on its own, reported as setup_s) followed by a fixed
// sequence of operations (reported as round_s); the batch workloads cycle
// through draws of their datasets (batch.cc). Outputs are checked after
// the last round, outside the timed region, and after peak memory is read.

#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "common.h"

namespace e2ebench {

inline constexpr size_t kMinRounds = 3;

/// What a workload run reports.
struct Outcome {
  bool correct = true;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<double> setup_seconds;
  std::vector<double> round_seconds;
  /// Time of the traced-only extra calls made during the rounds; counted
  /// towards --seconds so a traced run lasts about as long as an untraced
  /// one.
  double extra_seconds = 0.0;
  /// Latencies of the workload's operations, in seconds, per kind (batch:
  /// one kind per dataset; serve: hot-slot clean, cold-slot clean,
  /// feedback, append; stream: one kind). op_p50_ms is the geometric mean
  /// of the kinds' medians, so each kind weighs the same whatever its
  /// size or count.
  std::vector<std::vector<double>> op_seconds;
  double f1 = 0.0;
  /// Process peak resident memory (MiB) when the timed rounds ended,
  /// before any check or reference clean runs.
  double peak_rss_mib = 0.0;
};

/// batch-feats (factors = false) and batch-factors (factors = true).
Outcome RunBatch(const Options& options, bool factors);
Outcome RunServe(const Options& options);
Outcome RunStream(const Options& options);

/// Whether it is time to stop repeating rounds: the measured time (plus
/// any traced-only extras) reached `seconds` over at least kMinRounds
/// rounds, or (a guard against rounds that fail fast) the run's wall time
/// since `start` passed 4x `seconds`.
inline bool DoneRounds(const Outcome& o, double seconds,
                       Clock::time_point start) {
  double measured = o.extra_seconds;
  for (double s : o.round_seconds) measured += s;
  if (o.round_seconds.size() >= kMinRounds && measured >= seconds) return true;
  return !o.round_seconds.empty() && SecondsSince(start) >= 4 * seconds;
}

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOADS_H_
