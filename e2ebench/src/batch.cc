// batch-feats and batch-factors: each paper dataset goes from CSV text to
// repairs plus the repaired CSV, in a fresh session per dataset on one
// Engine (kThreads workers).

#include <cmath>
#include <memory>

#include "checks.h"
#include "clean.h"
#include "trace.h"
#include "workloads.h"

namespace e2ebench {

namespace {

struct BatchDataset {
  const char* name;
  size_t rows;
};

/// Rounds cycle through this many draws of the datasets, and a run ends
/// on a whole cycle. How long inference takes depends on the size of the
/// largest component of the DC-factor graph, which differs from draw to
/// draw (on batch-factors, 2,700 to 6,800 variables over seeds 1, 4, 6
/// and 7, with infer times of 0.65 to 1.3 s), so one draw per run would
/// make the run's figures depend on its seed more than on the code.
inline constexpr size_t kDraws = 4;

/// Row counts: about half the repo's default bench scale, so one pass
/// takes on the order of a second and a run holds several passes.
const std::vector<BatchDataset>& DatasetsFor(bool factors) {
  static const std::vector<BatchDataset> feats = {
      {"hospital", 1000}, {"flights", 1200}, {"food", 2000},
      {"physicians", 4000}};
  static const std::vector<BatchDataset> both = {{"food", 2000},
                                                 {"hospital", 500}};
  return factors ? both : feats;
}

holoclean::HoloCleanConfig ConfigFor(const DatasetText& text, bool factors,
                                     uint64_t seed) {
  return DatasetConfig(text,
                       factors ? holoclean::DcMode::kBoth
                               : holoclean::DcMode::kFeatures,
                       /*partitioning=*/factors, seed);
}

/// The output checks of one dataset's clean (outside the timed region).
void CheckDataset(const DatasetText& text, const CleanResult& result,
                  bool factors, const Options& options, Verdict* verdict,
                  double* f1) {
  const holoclean::PipelineContext& ctx = result.session->context();
  const holoclean::Table& dirty = ctx.dataset->dirty();
  std::vector<TextRepair> repairs =
      RepairsAsText(dirty, result.report.repairs);
  CheckRepairedTable(text.dirty_csv, result.repaired_csv, repairs, verdict);
  CheckRepairsOnDomains(ctx, result.report.repairs, verdict);
  CheckViolations(text.dirty_csv, text.dc_text,
                  ViolationPairs(ctx.violations), 200, 24, options.seed,
                  verdict);
  // The MAP the report publishes for each query cell must be the argmax
  // of that variable's marginal.
  std::vector<std::vector<double>> probs;
  std::vector<int> map_index;
  ExtractMarginals(ctx, &probs, &map_index);
  for (size_t i = 0; i < ctx.graph.query_vars().size() &&
                     i < result.report.posteriors.size();
       ++i) {
    const holoclean::Variable& var =
        ctx.graph.variable(ctx.graph.query_vars()[i]);
    const holoclean::CellPosterior& post = result.report.posteriors[i];
    int index = -1;
    for (size_t k = 0; k < var.domain.size(); ++k) {
      if (var.domain[k] == post.map_value) index = static_cast<int>(k);
    }
    if (!(post.cell == var.cell)) index = -1;
    map_index[i] = index;
  }
  CheckMarginals(ctx.graph, probs, map_index, verdict);
  Quality quality = ScoreRepairs(text.dirty_csv, text.clean_csv, repairs);
  *f1 = quality.f1;
  Log("%s: %zu rows, %zu repairs, precision %.3f recall %.3f F1 %.4f",
      text.name.c_str(), dirty.num_rows(), repairs.size(), quality.precision,
      quality.recall, quality.f1);

  // Thread-count invariance: the same clean on one thread.
  CleanRequest single;
  single.text = &text;
  single.config = ConfigFor(text, factors, options.seed);
  single.config.num_threads = 1;
  single.write_csv = false;
  CleanResult one;
  holoclean::Status st = StagedClean(single, &one);
  if (!st.ok()) {
    verdict->Fail(text.name + ": one-thread clean failed: " + st.ToString());
    return;
  }
  std::vector<TextRepair> one_repairs =
      RepairsAsText(one.inputs.dataset->dirty(), one.report.repairs);
  bool same = one_repairs.size() == repairs.size();
  for (size_t i = 0; same && i < repairs.size(); ++i) {
    same = repairs[i].tid == one_repairs[i].tid &&
           repairs[i].attr == one_repairs[i].attr &&
           repairs[i].new_value == one_repairs[i].new_value &&
           repairs[i].probability == one_repairs[i].probability;
  }
  if (!same) verdict->Fail(text.name + ": repairs differ at 1 and 4 threads");
}

}  // namespace

Outcome RunBatch(const Options& options, bool factors) {
  Tracer& tracer = Tracer::Get();
  const std::vector<BatchDataset>& specs = DatasetsFor(factors);
  Outcome outcome;
  outcome.op_seconds.resize(specs.size());
  std::vector<DatasetText> texts;
  std::unique_ptr<holoclean::Engine> engine;
  std::vector<CleanResult> results;
  const Clock::time_point run_start = Clock::now();
  for (size_t round = 0;
       !DoneRounds(outcome, options.seconds, run_start) ||
       outcome.round_seconds.size() % kDraws != 0;
       ++round) {
    tracer.BeginGroup("round " + std::to_string(round));
    results.clear();  // sessions go before the engine they run on
    engine.reset();
    Clock::time_point setup_start = Clock::now();
    {
      ScopedSpan span("setup");
      texts.clear();
      for (size_t i = 0; i < specs.size(); ++i) {
        texts.push_back(GenerateDataset(specs[i].name, specs[i].rows, 0,
                                        Mix(Mix(options.seed, round % kDraws),
                                            i)));
      }
      holoclean::EngineOptions engine_options;
      engine_options.num_threads = kThreads;
      engine_options.session_cache_capacity = 0;
      engine = std::make_unique<holoclean::Engine>(engine_options);
      engine->shared_pool();  // start the workers as part of set-up
    }
    outcome.setup_seconds.push_back(SecondsSince(setup_start));

    Clock::time_point round_start = Clock::now();
    double extra_seconds = 0.0;
    ScopedSpan round_span("round");
    results.resize(texts.size());
    for (size_t i = 0; i < texts.size(); ++i) {
      ScopedSpan span("clean");
      CleanRequest request;
      request.text = &texts[i];
      request.config = ConfigFor(texts[i], factors, options.seed);
      request.engine = engine.get();
      request.snapshot_path = options.out_dir + "/batch.snapshot";
      ++outcome.attempted;
      holoclean::Status st = StagedClean(request, &results[i]);
      if (!st.ok()) {
        ++outcome.failed;
        Log("%s: clean failed: %s", texts[i].name.c_str(),
            st.ToString().c_str());
        continue;
      }
      if (!results[i].replay_problem.empty()) {
        outcome.correct = false;
        Log("%s: %s", texts[i].name.c_str(),
            results[i].replay_problem.c_str());
      }
      outcome.op_seconds[i].push_back(results[i].seconds);
      extra_seconds += results[i].extra_seconds;
    }
    outcome.round_seconds.push_back(SecondsSince(round_start) -
                                    extra_seconds);
    outcome.extra_seconds += extra_seconds;
  }

  // The last round's sessions are still alive here, as they were at the
  // end of the round.
  outcome.peak_rss_mib = PeakRssMib();

  // Checks, untraced and untimed.
  bool traced = tracer.enabled();
  tracer.Enable(false);
  Verdict verdict;
  double f1_sum = 0.0;
  for (size_t i = 0; i < texts.size(); ++i) {
    if (!results[i].session.has_value()) {
      verdict.Fail(texts[i].name + ": no result to check");
      continue;
    }
    double f1 = 0.0;
    CheckDataset(texts[i], results[i], factors, options, &verdict, &f1);
    f1_sum += f1;
  }
  outcome.f1 = texts.empty() ? 0.0 : f1_sum / static_cast<double>(texts.size());
  results.clear();
  engine.reset();
  tracer.Enable(traced);
  outcome.correct = outcome.correct && verdict.ok();
  return outcome;
}

}  // namespace e2ebench
