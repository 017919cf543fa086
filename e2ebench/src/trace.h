// In-memory span recorder of the benchmark's traced mode. Spans are
// recorded from the benchmark's own code around its calls into each
// library layer (Session::RunThrough per stage, EnsureCompiled, the
// compile-stage replays, snapshots, client calls, stream appends); the
// library itself carries no tracing code.
//
// Every span has a name, a start and end (seconds since the tracer was
// created), a parent span (or -1) and a group: one group per round of
// the workload (or per check pass), so per-layer figures are medians over
// groups of a layer's per-group total. Counters ride the same groups.
// With tracing off every call is a single branch.

#ifndef E2EBENCH_TRACE_H_
#define E2EBENCH_TRACE_H_

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

namespace e2ebench {

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  int group = 0;
};

class Tracer {
 public:
  static Tracer& Get();

  void Enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Starts a new group; later spans and counters belong to it.
  void BeginGroup(const std::string& label);

  /// Opens a span. `parent` -1 means "the innermost span open on this
  /// thread". Returns the span id (-1 when disabled).
  int Begin(const std::string& name, int parent = -1);
  void End(int id);

  /// Adds `value` to the current group's counter `name`.
  void Count(const std::string& name, double value);
  /// Keeps the maximum of `value` in the current group's counter.
  void Max(const std::string& name, double value);

  /// Median over groups of the total duration (seconds) of spans named
  /// `name`, over the groups that hold such a span; 0 when none does.
  double SpanSeconds(const std::string& name) const;
  /// Percentile of individual durations (seconds) of spans named `name`.
  double SpanPercentile(const std::string& name, double p) const;
  /// Median over groups of a counter; 0 when no group has it.
  double Counter(const std::string& name) const;
  /// Median over groups of counter / span total, for groups with both.
  double Rate(const std::string& counter, const std::string& span) const;

  /// Checks that every span lies within its parent's interval, closed
  /// before the parent; returns the first problem or "".
  std::string CheckNesting() const;

  /// The spans and groups as JSON (for the trace file).
  std::string SpansJson() const;

 private:
  Tracer();
  double Now() const { return SecondsSince(origin_); }

  bool enabled_ = false;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< Guarded by mu_.
  std::vector<std::string> groups_;  ///< Guarded by mu_.
  /// counters_[group][name]; guarded by mu_.
  std::vector<std::map<std::string, double>> counters_;
};

/// RAII span; a no-op when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const std::string& name, int parent = -1)
      : id_(Tracer::Get().enabled() ? Tracer::Get().Begin(name, parent)
                                    : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) Tracer::Get().End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  int id_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_TRACE_H_
