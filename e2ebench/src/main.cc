// e2ebench — end-to-end benchmark of the HoloClean library.
//
//   e2ebench --workload batch-feats|batch-factors|serve-mixed|stream-warm
//            --seed N --seconds S --trace 0|1 [--out-dir DIR]
//   e2ebench --selftest [--seed N]
//
// Prints progress to stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics; traced runs (--trace 1) report the
// per-layer metrics and write the spans to DIR/trace-<workload>-<seed>.json.

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "checks.h"
#include "trace.h"
#include "workloads.h"

namespace e2ebench {
namespace {

struct Metric {
  std::string name;
  std::string unit;
  std::function<double()> value;
};

std::vector<Metric> EndToEndMetrics(const Outcome& o) {
  return {
      {"setup_s", "s", [&o] { return Median(o.setup_seconds); }},
      {"round_s", "s", [&o] { return Median(o.round_seconds); }},
      {"op_p50_ms", "ms",
       [&o] {
         double log_sum = 0.0;
         for (const std::vector<double>& kind : o.op_seconds) {
           log_sum += std::log(Median(kind) * 1e3);
         }
         return o.op_seconds.empty()
                    ? 0.0
                    : std::exp(log_sum /
                               static_cast<double>(o.op_seconds.size()));
       }},
      {"f1", "ratio", [&o] { return o.f1; }},
      {"peak_rss_mib", "MiB", [&o] { return o.peak_rss_mib; }},
  };
}

std::vector<Metric> PerLayerMetrics(const Outcome& o) {
  const Tracer& t = Tracer::Get();
  auto span = [&t](const char* name, double scale = 1.0) {
    return [&t, name, scale] { return t.SpanSeconds(name) * scale; };
  };
  auto counter = [&t](const char* name) {
    return [&t, name] { return t.Counter(name); };
  };
  auto rate = [&t](const char* count, const char* name) {
    return [&t, count, name] { return t.Rate(count, name); };
  };
  auto pct = [&t](const char* name, double p) {
    return [&t, name, p] { return t.SpanPercentile(name, p) * 1e3; };
  };
  return {
      {"storage.load_s", "s", span("storage.load")},
      {"storage.rows_per_s", "rows/s", rate("storage.rows", "storage.load")},
      {"detect.s", "s", span("detect")},
      {"detect.rows_per_s", "rows/s", rate("detect.rows", "detect")},
      {"detect.violations", "count", counter("detect.violations")},
      {"compile.s", "s", span("compile")},
      {"stats.cooc_s", "s", span("stats.cooc")},
      {"stats.pair_entries", "count", counter("stats.pair_entries")},
      {"prune.s", "s", span("prune")},
      {"prune.cells_per_s", "cells/s", rate("prune.cells", "prune")},
      {"prune.candidates", "count", counter("prune.candidates")},
      {"ground.s", "s", span("ground")},
      {"ground.factors_per_s", "factors/s", rate("ground.factors", "ground")},
      {"ground.factors", "count", counter("ground.factors")},
      {"ground.query_vars", "count", counter("ground.query_vars")},
      {"ground.evidence_vars", "count", counter("ground.evidence_vars")},
      {"csr.s", "s", span("csr")},
      {"csr.bytes", "bytes", counter("csr.bytes")},
      {"learn.s", "s", span("learn")},
      {"learn.var_epochs_per_s", "var-epochs/s",
       rate("learn.var_epochs", "learn")},
      {"infer.s", "s", span("infer")},
      {"infer.var_sweeps_per_s", "var-sweeps/s",
       rate("infer.var_sweeps", "infer")},
      {"infer.components", "count", counter("infer.components")},
      {"infer.largest_component_vars", "count",
       counter("infer.largest_component_vars")},
      {"repair.s", "s", span("repair")},
      {"repair.repairs", "count", counter("repair.repairs")},
      {"snapshot.save_s", "s", span("snapshot.save")},
      {"snapshot.restore_s", "s", span("snapshot.restore")},
      {"snapshot.bytes", "bytes", counter("snapshot.bytes")},
      {"serve.response_bytes", "bytes", counter("serve.response_bytes")},
      {"serve.decode_ms", "ms", span("serve.decode", 1e3)},
      {"serve.clean_p50_ms", "ms", pct("serve.clean", 50)},
      {"serve.clean_p99_ms", "ms", pct("serve.clean", 99)},
      {"serve.feedback_p50_ms", "ms", pct("serve.feedback", 50)},
      {"serve.append_p50_ms", "ms", pct("serve.append", 50)},
      {"serve.rps", "req/s", rate("serve.requests", "serve.schedule")},
      {"serve.warm_hits", "count", counter("serve.warm_hits")},
      {"serve.spill_restores", "count", counter("serve.spill_restores")},
      {"serve.queue_waits", "count", counter("serve.queue_waits")},
      {"stream.resyncs", "count", counter("stream.resyncs")},
      {"stream.new_query_vars", "count", counter("stream.new_query_vars")},
      {"trace.round_s", "s", [&o] { return Median(o.round_seconds); }},
  };
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Num(metrics[i].value()) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}

int Usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload W --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n"
               "       e2ebench --selftest [--seed N]\n"
               "workloads: batch-feats batch-factors serve-mixed "
               "stream-warm\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options options;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--selftest") {
      selftest = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return Usage();
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0)) return Usage();
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage();
      options.trace = value == "1";
    } else if (arg == "--out-dir") {
      options.out_dir = value;
    } else {
      return Usage();
    }
  }
  // Server and clients share this process: a write to a connection the
  // peer closed must fail with EPIPE, not kill the run (the daemon's
  // main does the same).
  std::signal(SIGPIPE, SIG_IGN);
  if (selftest) return RunSelfTest(options.seed) ? 0 : 1;

  std::function<Outcome()> run;
  if (options.workload == "batch-feats") {
    run = [&] { return RunBatch(options, false); };
  } else if (options.workload == "batch-factors") {
    run = [&] { return RunBatch(options, true); };
  } else if (options.workload == "serve-mixed") {
    run = [&] { return RunServe(options); };
  } else if (options.workload == "stream-warm") {
    run = [&] { return RunStream(options); };
  } else {
    return Usage();
  }

  // The checkers prove they can fail before they are trusted to pass.
  bool checkers_ok = RunSelfTest(options.seed);
  Tracer::Get().Enable(options.trace);
  Outcome outcome = run();
  outcome.correct = outcome.correct && checkers_ok;
  std::string rounds;
  for (double s : outcome.round_seconds) rounds += " " + Num(s).substr(0, 6);
  std::string ops;
  for (const auto& kind : outcome.op_seconds) {
    ops += " " + Num(Median(kind)).substr(0, 6);
  }
  Log("rounds:%s; op medians:%s", rounds.c_str(), ops.c_str());

  std::vector<Metric> metrics =
      options.trace ? PerLayerMetrics(outcome) : EndToEndMetrics(outcome);
  std::string metrics_json = MetricsJson(metrics);
  if (options.trace) {
    std::string nesting = Tracer::Get().CheckNesting();
    if (!nesting.empty()) {
      Log("trace: %s", nesting.c_str());
      outcome.correct = false;
    }
    std::string path = options.out_dir + "/trace-" + options.workload +
                       "-" + std::to_string(options.seed) + ".json";
    std::string file = "{\"workload\": \"" + options.workload +
                       "\", \"seed\": " + std::to_string(options.seed) +
                       ",\n\"per_layer\": " + metrics_json + ",\n\"trace\": " +
                       Tracer::Get().SpansJson() + "}\n";
    if (!WriteTextFile(path, file)) Log("cannot write %s", path.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              outcome.correct ? "true" : "false", outcome.attempted,
              outcome.failed, metrics_json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) { return e2ebench::Main(argc, argv); }
