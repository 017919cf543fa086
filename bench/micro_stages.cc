// Per-stage wall times of the staged pipeline engine on the generated
// scaling dataset: sequential vs partition-parallel execution of the
// compile (grounding) and infer (Gibbs) stages, and the cost of an
// incremental re-run from InferStage against the cached context.

#include <cstdio>
#include <thread>

#include "common.h"
#include "holoclean/data/food.h"
#include "holoclean/util/timer.h"

using namespace holoclean;         // NOLINT
using namespace holoclean::bench;  // NOLINT

namespace {

struct StageRun {
  std::vector<StageTiming> timings;
  double total = 0.0;
  size_t repairs = 0;
};

StageRun RunStaged(size_t rows, size_t threads) {
  GeneratedData data = MakeFood({rows, 0.06, 7});
  HoloCleanConfig config;
  config.tau = 0.5;
  config.num_threads = threads;
  config.dc_mode = DcMode::kBoth;
  config.partitioning = true;
  config.gibbs_burn_in = 10;
  config.gibbs_samples = 40;
  SessionOptions session_options;
  session_options.config = config;
  auto session = OpenStandaloneSession(
      CleaningInputs::Borrowed(&data.dataset, &data.dcs), session_options);
  if (!session.ok()) return {};
  auto report = session.value().Run();
  if (!report.ok()) return {};
  StageRun out;
  out.timings = report.value().stats.stage_timings;
  out.total = report.value().stats.TotalSeconds();
  out.repairs = report.value().repairs.size();
  return out;
}

}  // namespace

int main() {
  size_t rows = static_cast<size_t>(4000 * BenchScale());
  size_t hw = std::thread::hardware_concurrency();
  std::printf("Staged pipeline on generated Food (%zu rows), "
              "DC factors + partitioning\n\n", rows);

  StageRun seq = RunStaged(rows, 1);
  StageRun par = RunStaged(rows, 0);
  if (seq.timings.empty() || par.timings.empty()) {
    std::fprintf(stderr, "staged run failed\n");
    return 1;
  }

  std::vector<int> widths = {9, 14, 16, 9, 14};
  PrintRule(widths);
  PrintRow({"Stage", "1 thread (s)",
            "parallel (s, " + std::to_string(hw) + " hw)", "speedup",
            "peak rss (MiB)"},
           widths);
  PrintRule(widths);
  for (size_t i = 0; i < seq.timings.size(); ++i) {
    double s = seq.timings[i].seconds;
    double p = par.timings[i].seconds;
    double rss = static_cast<double>(par.timings[i].peak_rss_bytes) /
                 (1024.0 * 1024.0);
    PrintRow({seq.timings[i].name, Fmt(s), Fmt(p),
              p > 0.0 ? Fmt(s / p, 2) + "x" : "-", Fmt(rss, 1)},
             widths);
    AppendBenchMetric("micro_stages",
                      seq.timings[i].name + std::string("_seconds"), p);
    AppendBenchMetric("micro_stages",
                      seq.timings[i].name + std::string("_peak_rss_bytes"),
                      static_cast<double>(par.timings[i].peak_rss_bytes));
  }
  PrintRule(widths);
  PrintRow({"total", Fmt(seq.total), Fmt(par.total),
            par.total > 0.0 ? Fmt(seq.total / par.total, 2) + "x" : "-"},
           widths);
  PrintRule(widths);
  std::printf("(repairs: sequential %zu, parallel %zu — identical by "
              "construction)\n\n", seq.repairs, par.repairs);

  // Incremental re-run: invalidate inference only and re-execute against
  // the cached factor graph and weights.
  GeneratedData data = MakeFood({rows, 0.06, 7});
  HoloCleanConfig config;
  config.tau = 0.5;
  config.dc_mode = DcMode::kBoth;
  config.partitioning = true;
  config.gibbs_burn_in = 10;
  config.gibbs_samples = 40;
  SessionOptions session_options;
  session_options.config = config;
  auto session = OpenStandaloneSession(
      CleaningInputs::Borrowed(&data.dataset, &data.dcs), session_options);
  if (!session.ok()) {
    std::fprintf(stderr, "open failed\n");
    return 1;
  }
  Timer timer;
  if (!session.value().Run().ok()) return 1;
  double cold = timer.Seconds();
  session.value().Invalidate(StageId::kInfer);
  timer.Reset();
  if (!session.value().Run().ok()) return 1;
  double warm = timer.Seconds();
  std::printf("incremental re-run from infer: %ss vs %ss cold (%sx)\n",
              Fmt(warm).c_str(), Fmt(cold).c_str(),
              warm > 0.0 ? Fmt(cold / warm, 1).c_str() : "-");
  AppendBenchMetric("micro_stages", "total_seconds", par.total);
  AppendBenchMetric("micro_stages", "rerun_from_infer_seconds", warm);
  AppendBenchMetric("micro_stages", "cold_seconds", cold);
  return 0;
}
