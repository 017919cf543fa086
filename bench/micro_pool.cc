// Batch/session-pool micro-bench: many Food-derived datasets served
// through one Engine vs the same jobs as sequential standalone sessions
// with private per-session pools.
//
// The serving workload runs two rounds over the same dataset fleet — the
// multi-tenant pattern the Engine exists for. The per-session baseline
// pays a cold session (pool spin-up, detect, compile, learn, infer) for
// every job; the Engine runs the fleet concurrently over one shared pool
// and parks each job's session in its LRU, so round two reuses the cached
// stage artifacts (a bit-identical incremental re-run) instead of
// recomputing them. Repairs are cross-checked against the standalone
// baseline job by job.
//
// Emits JSON-lines metrics via HOLOCLEAN_BENCH_JSON (aggregated into
// BENCH_ci.json by CI): serving throughput for both paths, the headline
// speedup, and cold-batch throughput vs shared-pool size.

#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "holoclean/core/engine.h"
#include "holoclean/data/food.h"
#include "holoclean/util/timer.h"

using namespace holoclean;         // NOLINT
using namespace holoclean::bench;  // NOLINT

namespace {

constexpr size_t kFleet = 4;   // Distinct Food-derived datasets.
constexpr size_t kRounds = 2;  // Serving rounds over the fleet.

std::shared_ptr<GeneratedData> MakeVariant(size_t i, size_t rows) {
  FoodOptions options;
  options.num_rows = rows;
  options.error_rate = 0.05 + 0.01 * static_cast<double>(i);
  options.seed = 901 + i;
  return std::make_shared<GeneratedData>(MakeFood(options));
}

CleaningInputs InputsOf(const std::shared_ptr<GeneratedData>& data) {
  return CleaningInputs::Owned(
      std::shared_ptr<Dataset>(data, &data->dataset),
      std::shared_ptr<const std::vector<DenialConstraint>>(data,
                                                           &data->dcs));
}

}  // namespace

int main() {
  size_t rows = static_cast<size_t>(1500 * BenchScale());
  if (rows < 300) rows = 300;
  HoloCleanConfig config = PaperConfig("food");

  std::printf(
      "Micro: batch serving throughput (Food profile, %zu datasets x %zu "
      "rounds, %zu rows each)\n\n",
      kFleet, kRounds, rows);

  std::vector<std::shared_ptr<GeneratedData>> fleet;
  for (size_t i = 0; i < kFleet; ++i) fleet.push_back(MakeVariant(i, rows));

  // --- Baseline: sequential standalone runs, one private pool per
  // session (the legacy deployment). Job i uses the batch-derived per-job
  // seed, so the comparison below is apples-to-apples and bit-identical.
  std::vector<std::vector<Repair>> baseline_repairs(kFleet);
  Timer per_session_timer;
  for (size_t round = 0; round < kRounds; ++round) {
    for (size_t i = 0; i < kFleet; ++i) {
      HoloCleanConfig job_config = config;
      job_config.seed = Engine::PerJobSeed(config.seed, i);
      SessionOptions session_options;
      session_options.config = job_config;
      auto report = CleanOnce(
          CleaningInputs::Borrowed(&fleet[i]->dataset, &fleet[i]->dcs),
          session_options);
      if (!report.ok()) {
        std::fprintf(stderr, "standalone run %zu failed: %s\n", i,
                     report.status().ToString().c_str());
        return 1;
      }
      baseline_repairs[i] = report.value().repairs;
    }
  }
  double per_session_seconds = per_session_timer.Seconds();

  // --- Engine serving: one shared pool, sessions parked in the LRU
  // between rounds. Round two's jobs are cached-report lookups.
  double engine_seconds = 0.0;
  bool identical = true;
  {
    EngineOptions engine_options;
    engine_options.session_cache_capacity = kFleet;
    Engine engine(engine_options);
    Timer timer;
    for (size_t round = 0; round < kRounds; ++round) {
      std::vector<Engine::BatchJob> jobs;
      for (size_t i = 0; i < kFleet; ++i) {
        Engine::BatchJob job;
        job.inputs = InputsOf(fleet[i]);
        job.options.config = config;
        job.options.config.seed = Engine::PerJobSeed(config.seed, i);
        job.options.cache_key = "food-" + std::to_string(i);
        jobs.push_back(std::move(job));
      }
      std::vector<std::future<Result<Report>>> futures =
          engine.SubmitBatch(std::move(jobs));
      for (size_t i = 0; i < futures.size(); ++i) {
        Result<Report> result = futures[i].get();
        if (!result.ok()) {
          std::fprintf(stderr, "engine job %zu failed: %s\n", i,
                       result.status().ToString().c_str());
          return 1;
        }
        const std::vector<Repair>& got = result.value().repairs;
        const std::vector<Repair>& want = baseline_repairs[i];
        if (got.size() != want.size()) identical = false;
        for (size_t r = 0; identical && r < got.size(); ++r) {
          identical = got[r].cell == want[r].cell &&
                      got[r].new_value == want[r].new_value &&
                      got[r].probability == want[r].probability;
        }
      }
    }
    engine_seconds = timer.Seconds();
  }

  size_t total_jobs = kFleet * kRounds;
  double per_session_rate =
      static_cast<double>(total_jobs) / per_session_seconds;
  double engine_rate = static_cast<double>(total_jobs) / engine_seconds;
  double speedup = per_session_seconds / engine_seconds;

  std::vector<int> widths = {26, 12, 14, 10};
  PrintRule(widths);
  PrintRow({"Path", "Seconds", "Datasets/sec", "Repairs"}, widths);
  PrintRule(widths);
  PrintRow({"per-session pools", Fmt(per_session_seconds, 2),
            Fmt(per_session_rate, 2), identical ? "match" : "MISMATCH"},
           widths);
  PrintRow({"engine (shared+LRU)", Fmt(engine_seconds, 2),
            Fmt(engine_rate, 2), Fmt(speedup, 2) + "x"},
           widths);
  PrintRule(widths);

  AppendBenchMetric("micro_pool", "per_session_seconds", per_session_seconds);
  AppendBenchMetric("micro_pool", "engine_seconds", engine_seconds);
  AppendBenchMetric("micro_pool", "per_session_datasets_per_sec",
                    per_session_rate);
  AppendBenchMetric("micro_pool", "engine_datasets_per_sec", engine_rate);
  AppendBenchMetric("micro_pool", "pool_speedup", speedup);
  AppendBenchMetric("micro_pool", "repairs_identical", identical ? 1 : 0);

  // --- Cold-batch throughput vs shared-pool size: one round, no session
  // reuse — isolates the concurrency and pool-amortization component (on
  // a single-core host this hovers around 1x; the LRU provides the
  // serving win above).
  std::printf("\nCold batch (no session reuse) vs shared-pool size:\n");
  std::vector<int> cold_widths = {12, 12, 14};
  PrintRule(cold_widths);
  PrintRow({"Pool size", "Seconds", "Datasets/sec"}, cold_widths);
  PrintRule(cold_widths);
  for (size_t pool_size : {size_t{1}, size_t{2}, size_t{4}}) {
    EngineOptions engine_options;
    engine_options.num_threads = pool_size;
    engine_options.session_cache_capacity = 0;  // No parking: cold jobs.
    Engine engine(engine_options);
    std::vector<CleaningInputs> inputs;
    for (size_t i = 0; i < kFleet; ++i) inputs.push_back(InputsOf(fleet[i]));
    SessionOptions common;
    common.config = config;
    Timer timer;
    std::vector<std::future<Result<Report>>> futures =
        engine.SubmitBatch(std::move(inputs), common);
    for (auto& f : futures) {
      if (!f.get().ok()) {
        std::fprintf(stderr, "cold batch job failed\n");
        return 1;
      }
    }
    double seconds = timer.Seconds();
    double rate = static_cast<double>(kFleet) / seconds;
    PrintRow({std::to_string(pool_size), Fmt(seconds, 2), Fmt(rate, 2)},
             cold_widths);
    AppendBenchMetric("micro_pool",
                      "cold_batch_datasets_per_sec_pool" +
                          std::to_string(pool_size),
                      rate);
  }
  PrintRule(cold_widths);

  if (!identical) {
    std::fprintf(stderr,
                 "error: engine repairs diverged from standalone runs\n");
    return 1;
  }
  return 0;
}
