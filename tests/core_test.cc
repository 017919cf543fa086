#include <gtest/gtest.h>

#include "holoclean/constraints/parser.h"
#include "holoclean/core/calibration.h"
#include "holoclean/core/evaluation.h"
#include "holoclean/core/engine.h"

#include "session_helpers.h"

namespace holoclean {
namespace {

// ---------- Evaluation ----------

struct EvalFixture {
  EvalFixture() : dataset([] {
    Table dirty(Schema({"A"}), std::make_shared<Dictionary>());
    dirty.AppendRow({"x"});
    dirty.AppendRow({"wrong"});
    dirty.AppendRow({"also_wrong"});
    return Dataset(std::move(dirty));
  }()) {
    Table clean = dataset.dirty().Clone();
    clean.SetString(1, 0, "y");
    clean.SetString(2, 0, "z");
    dataset.set_clean(std::move(clean));
  }
  Dataset dataset;
  ValueId Id(const std::string& s) {
    return dataset.dirty().dict().Intern(s);
  }
};

TEST(Evaluation, PerfectRepairs) {
  EvalFixture f;
  std::vector<Repair> repairs = {
      {{1, 0}, f.Id("wrong"), f.Id("y"), 0.9},
      {{2, 0}, f.Id("also_wrong"), f.Id("z"), 0.9},
  };
  EvalResult e = EvaluateRepairs(f.dataset, repairs);
  EXPECT_EQ(e.total_errors, 2u);
  EXPECT_EQ(e.correct_repairs, 2u);
  EXPECT_DOUBLE_EQ(e.precision, 1.0);
  EXPECT_DOUBLE_EQ(e.recall, 1.0);
  EXPECT_DOUBLE_EQ(e.f1, 1.0);
}

TEST(Evaluation, PartialAndWrongRepairs) {
  EvalFixture f;
  std::vector<Repair> repairs = {
      {{1, 0}, f.Id("wrong"), f.Id("y"), 0.9},     // Correct.
      {{0, 0}, f.Id("x"), f.Id("bogus"), 0.6},     // Breaks a clean cell.
  };
  EvalResult e = EvaluateRepairs(f.dataset, repairs);
  EXPECT_EQ(e.correct_repairs, 1u);
  EXPECT_DOUBLE_EQ(e.precision, 0.5);
  EXPECT_DOUBLE_EQ(e.recall, 0.5);
  EXPECT_NEAR(e.f1, 0.5, 1e-12);
}

TEST(Evaluation, NoopRepairsIgnored) {
  EvalFixture f;
  std::vector<Repair> repairs = {{{1, 0}, f.Id("wrong"), f.Id("wrong"), 1.0}};
  EvalResult e = EvaluateRepairs(f.dataset, repairs);
  EXPECT_EQ(e.total_repairs, 0u);
  EXPECT_DOUBLE_EQ(e.precision, 0.0);
}

// ---------- Calibration ----------

TEST(Calibration, BucketsRepairsByProbability) {
  EvalFixture f;
  std::vector<Repair> repairs = {
      {{1, 0}, f.Id("wrong"), f.Id("y"), 0.55},       // Correct, [.5,.6).
      {{2, 0}, f.Id("also_wrong"), f.Id("q"), 0.58},  // Wrong, [.5,.6).
      {{0, 0}, f.Id("x"), f.Id("bogus"), 0.95},       // Wrong, [.9,1].
  };
  auto buckets = ComputeCalibration(f.dataset, repairs);
  ASSERT_EQ(buckets.size(), 5u);
  EXPECT_EQ(buckets[0].total, 2u);
  EXPECT_EQ(buckets[0].wrong, 1u);
  EXPECT_DOUBLE_EQ(buckets[0].ErrorRate(), 0.5);
  EXPECT_EQ(buckets[4].total, 1u);
  EXPECT_DOUBLE_EQ(buckets[4].ErrorRate(), 1.0);
  EXPECT_EQ(buckets[2].total, 0u);
  EXPECT_DOUBLE_EQ(buckets[2].ErrorRate(), 0.0);
}

TEST(Calibration, TopBucketIncludesProbabilityOne) {
  EvalFixture f;
  std::vector<Repair> repairs = {{{1, 0}, f.Id("wrong"), f.Id("y"), 1.0}};
  auto buckets = ComputeCalibration(f.dataset, repairs);
  EXPECT_EQ(buckets[4].total, 1u);
}

// ---------- Config ----------

TEST(Config, DcModeNames) {
  EXPECT_EQ(DcModeName(DcMode::kFactors), "DC Factors");
  EXPECT_EQ(DcModeName(DcMode::kFeatures), "DC Feats");
  EXPECT_EQ(DcModeName(DcMode::kBoth), "DC Feats + DC Factors");
}

TEST(Config, GroundingOptionsMirrorConfig) {
  HoloCleanConfig config;
  config.dc_mode = DcMode::kBoth;
  config.partitioning = true;
  config.dc_factor_weight = 7.0;
  config.minimality_weight = 0.25;
  GroundingOptions g = config.ToGroundingOptions();
  EXPECT_EQ(g.dc_mode, DcMode::kBoth);
  EXPECT_TRUE(g.use_partitioning);
  EXPECT_DOUBLE_EQ(g.dc_factor_weight, 7.0);
  EXPECT_DOUBLE_EQ(g.minimality_weight, 0.25);
}

// ---------- Pipeline on a small controlled instance ----------

struct PipelineFixture {
  PipelineFixture() : dataset([] {
    Table dirty(Schema({"Name", "Zip", "City"}),
                std::make_shared<Dictionary>());
    // 10 clean duplicated rows + 2 corrupted ones.
    for (int i = 0; i < 5; ++i) dirty.AppendRow({"a", "60608", "Chicago"});
    for (int i = 0; i < 5; ++i) dirty.AppendRow({"b", "60201", "Evanston"});
    dirty.AppendRow({"a", "60609", "Chicago"});   // t10: wrong zip.
    dirty.AppendRow({"b", "60201", "Evnaston"});  // t11: typo city.
    return Dataset(std::move(dirty));
  }()) {
    Table clean = dataset.dirty().Clone();
    clean.SetString(10, 1, "60608");
    clean.SetString(11, 2, "Evanston");
    dataset.set_clean(std::move(clean));
    auto parsed = ParseDenialConstraints(
        "t1&t2&EQ(t1.Name,t2.Name)&IQ(t1.Zip,t2.Zip)\n"
        "t1&t2&EQ(t1.Zip,t2.Zip)&IQ(t1.City,t2.City)\n",
        dataset.dirty().schema());
    EXPECT_TRUE(parsed.ok());
    dcs = parsed.value();
  }
  Dataset dataset;
  std::vector<DenialConstraint> dcs;
};

TEST(Pipeline, RepairsInjectedErrors) {
  PipelineFixture f;
  HoloCleanConfig config;
  config.tau = 0.3;
  auto report = test_helpers::RunOnce(config, &f.dataset, f.dcs);
  ASSERT_TRUE(report.ok());
  EvalResult e = EvaluateRepairs(f.dataset, report.value().repairs);
  EXPECT_EQ(e.total_errors, 2u);
  EXPECT_EQ(e.correct_repairs, 2u);
  EXPECT_DOUBLE_EQ(e.precision, 1.0);
  EXPECT_DOUBLE_EQ(e.recall, 1.0);
}

TEST(Pipeline, CleanDataYieldsNoRepairs) {
  PipelineFixture f;
  Dataset clean_ds(f.dataset.clean().Clone());
  clean_ds.set_clean(f.dataset.clean().Clone());
  auto report = test_helpers::RunOnce(HoloCleanConfig{}, &clean_ds, f.dcs);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().repairs.empty());
  EXPECT_EQ(report.value().stats.num_violations, 0u);
}

TEST(Pipeline, ReportStatsPopulated) {
  PipelineFixture f;
  auto report = test_helpers::RunOnce(HoloCleanConfig{}, &f.dataset, f.dcs);
  ASSERT_TRUE(report.ok());
  const RunStats& s = report.value().stats;
  EXPECT_GT(s.num_violations, 0u);
  EXPECT_GT(s.num_noisy_cells, 0u);
  EXPECT_EQ(s.num_query_vars, s.num_noisy_cells);
  EXPECT_GT(s.num_candidates, 0u);
  EXPECT_GT(s.num_grounded_factors, 0u);
  EXPECT_GE(s.TotalSeconds(), 0.0);
  EXPECT_FALSE(report.value().ddlog.empty());
  EXPECT_FALSE(report.value().posteriors.empty());
}

TEST(Pipeline, DeterministicForSeed) {
  PipelineFixture f1;
  PipelineFixture f2;
  HoloCleanConfig config;
  config.seed = 7;
  auto r1 = test_helpers::RunOnce(config, &f1.dataset, f1.dcs);
  auto r2 = test_helpers::RunOnce(config, &f2.dataset, f2.dcs);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r1.value().repairs.size(), r2.value().repairs.size());
  for (size_t i = 0; i < r1.value().repairs.size(); ++i) {
    EXPECT_EQ(r1.value().repairs[i].cell, r2.value().repairs[i].cell);
    EXPECT_EQ(r1.value().repairs[i].new_value,
              r2.value().repairs[i].new_value);
    EXPECT_DOUBLE_EQ(r1.value().repairs[i].probability,
                     r2.value().repairs[i].probability);
  }
}

TEST(Pipeline, GibbsModeAlsoRepairs) {
  PipelineFixture f;
  HoloCleanConfig config;
  config.tau = 0.3;
  config.dc_mode = DcMode::kBoth;
  config.partitioning = true;
  config.gibbs_burn_in = 20;
  config.gibbs_samples = 100;
  auto report = test_helpers::RunOnce(config, &f.dataset, f.dcs);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report.value().stats.num_dc_factors, 0u);
  EvalResult e = EvaluateRepairs(f.dataset, report.value().repairs);
  EXPECT_GE(e.recall, 0.5);
}

TEST(Pipeline, RepairProbabilitiesAreValid) {
  PipelineFixture f;
  auto report = test_helpers::RunOnce(HoloCleanConfig{}, &f.dataset, f.dcs);
  ASSERT_TRUE(report.ok());
  for (const Repair& r : report.value().repairs) {
    EXPECT_GT(r.probability, 0.0);
    EXPECT_LE(r.probability, 1.0);
    EXPECT_NE(r.new_value, r.old_value);
  }
}

TEST(Pipeline, ApplyWritesRepairs) {
  PipelineFixture f;
  HoloCleanConfig config;
  config.tau = 0.3;
  auto report = test_helpers::RunOnce(config, &f.dataset, f.dcs);
  ASSERT_TRUE(report.ok());
  Table repaired = f.dataset.dirty().Clone();
  report.value().Apply(&repaired);
  EXPECT_EQ(repaired.GetString(10, 1), "60608");
  EXPECT_EQ(repaired.GetString(11, 2), "Evanston");
}

TEST(Pipeline, NullDatasetRejected) {
  EXPECT_FALSE(test_helpers::RunOnce(HoloCleanConfig{}, nullptr, {}).ok());
  EXPECT_FALSE(test_helpers::OpenSessionOver(HoloCleanConfig{}, nullptr, {}).ok());
}

// ---------- Staged session ----------

TEST(Stage, NamesRoundTrip) {
  for (int i = 0; i < kNumStages; ++i) {
    StageId id = static_cast<StageId>(i);
    auto parsed = ParseStageName(StageName(id));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), id);
  }
  EXPECT_FALSE(ParseStageName("ground").ok());
  EXPECT_FALSE(ParseStageName("").ok());
}

TEST(Session, StagedRunMatchesLegacyRunExactly) {
  PipelineFixture f1;
  PipelineFixture f2;
  HoloCleanConfig config;
  config.tau = 0.3;
  config.dc_mode = DcMode::kBoth;
  config.partitioning = true;
  config.gibbs_burn_in = 10;
  config.gibbs_samples = 40;

  auto legacy = test_helpers::RunOnce(config, &f1.dataset, f1.dcs);
  ASSERT_TRUE(legacy.ok());

  auto opened = test_helpers::OpenSessionOver(config, &f2.dataset, f2.dcs);
  ASSERT_TRUE(opened.ok());
  Session session = std::move(opened).value();
  auto staged = session.Run();
  ASSERT_TRUE(staged.ok());

  const Report& a = legacy.value();
  const Report& b = staged.value();
  ASSERT_EQ(a.repairs.size(), b.repairs.size());
  for (size_t i = 0; i < a.repairs.size(); ++i) {
    EXPECT_EQ(a.repairs[i].cell, b.repairs[i].cell);
    EXPECT_EQ(a.repairs[i].old_value, b.repairs[i].old_value);
    EXPECT_EQ(a.repairs[i].new_value, b.repairs[i].new_value);
    EXPECT_DOUBLE_EQ(a.repairs[i].probability, b.repairs[i].probability);
  }
  ASSERT_EQ(a.posteriors.size(), b.posteriors.size());
  for (size_t i = 0; i < a.posteriors.size(); ++i) {
    EXPECT_EQ(a.posteriors[i].cell, b.posteriors[i].cell);
    EXPECT_EQ(a.posteriors[i].map_value, b.posteriors[i].map_value);
    EXPECT_DOUBLE_EQ(a.posteriors[i].map_prob, b.posteriors[i].map_prob);
  }
  EXPECT_EQ(a.stats.num_violations, b.stats.num_violations);
  EXPECT_EQ(a.stats.num_noisy_cells, b.stats.num_noisy_cells);
  EXPECT_EQ(a.stats.num_query_vars, b.stats.num_query_vars);
  EXPECT_EQ(a.stats.num_grounded_factors, b.stats.num_grounded_factors);
  EXPECT_EQ(a.ddlog, b.ddlog);
}

TEST(Session, StageTimingsRecordedUniformly) {
  PipelineFixture f;
  auto opened = test_helpers::OpenSessionOver(HoloCleanConfig{}, &f.dataset, f.dcs);
  ASSERT_TRUE(opened.ok());
  Session session = std::move(opened).value();
  auto report = session.Run();
  ASSERT_TRUE(report.ok());
  const auto& timings = report.value().stats.stage_timings;
  ASSERT_EQ(timings.size(), static_cast<size_t>(kNumStages));
  const char* expected[] = {"detect", "compile", "learn", "infer", "repair"};
  for (int i = 0; i < kNumStages; ++i) {
    EXPECT_EQ(timings[static_cast<size_t>(i)].name, expected[i]);
    EXPECT_FALSE(timings[static_cast<size_t>(i)].cached);
    EXPECT_GE(timings[static_cast<size_t>(i)].seconds, 0.0);
  }
}

TEST(Session, PeakRssRecordedPerStage) {
  PipelineFixture f;
  auto opened = test_helpers::OpenSessionOver(HoloCleanConfig{}, &f.dataset, f.dcs);
  ASSERT_TRUE(opened.ok());
  Session session = std::move(opened).value();
  auto report = session.Run();
  ASSERT_TRUE(report.ok());
  const auto& timings = report.value().stats.stage_timings;
  ASSERT_EQ(timings.size(), static_cast<size_t>(kNumStages));
  // The per-stage samples are process peak RSS at stage completion:
  // non-zero (on platforms with procfs or getrusage) and monotone
  // non-decreasing in stage order.
  size_t previous = 0;
  for (int i = 0; i < kNumStages; ++i) {
    size_t rss = timings[static_cast<size_t>(i)].peak_rss_bytes;
    EXPECT_GT(rss, 0u) << "stage " << i;
    EXPECT_GE(rss, previous) << "stage " << i;
    previous = rss;
  }
}

TEST(Session, RerunFromInferReusesCachedGraph) {
  PipelineFixture f;
  HoloCleanConfig config;
  config.tau = 0.3;
  config.dc_mode = DcMode::kBoth;
  config.partitioning = true;
  config.gibbs_burn_in = 10;
  config.gibbs_samples = 40;
  auto opened = test_helpers::OpenSessionOver(config, &f.dataset, f.dcs);
  ASSERT_TRUE(opened.ok());
  Session session = std::move(opened).value();

  auto first = session.Run();
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(session.context().ground_runs, 1u);
  Grounder::Stats stats_before = session.context().grounder_stats;

  session.Invalidate(StageId::kInfer);
  EXPECT_TRUE(session.StageIsValid(StageId::kLearn));
  EXPECT_FALSE(session.StageIsValid(StageId::kInfer));
  auto second = session.Run();
  ASSERT_TRUE(second.ok());

  // No re-grounding happened: the cached FactorGraph was reused.
  EXPECT_EQ(session.context().ground_runs, 1u);
  EXPECT_EQ(session.context().grounder_stats.num_query_vars,
            stats_before.num_query_vars);
  EXPECT_EQ(session.context().grounder_stats.num_dc_factors,
            stats_before.num_dc_factors);
  const auto& timings = second.value().stats.stage_timings;
  EXPECT_TRUE(timings[0].cached);
  EXPECT_TRUE(timings[1].cached);
  EXPECT_TRUE(timings[2].cached);
  EXPECT_FALSE(timings[3].cached);

  // Unchanged weights + same seed: identical repairs, bit for bit.
  const auto& a = first.value().repairs;
  const auto& b = second.value().repairs;
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cell, b[i].cell);
    EXPECT_EQ(a[i].new_value, b[i].new_value);
    EXPECT_DOUBLE_EQ(a[i].probability, b[i].probability);
  }
}

TEST(Session, RunThroughCompileGroundsWithoutRepairing) {
  PipelineFixture f;
  auto opened = test_helpers::OpenSessionOver(HoloCleanConfig{}, &f.dataset, f.dcs);
  ASSERT_TRUE(opened.ok());
  Session session = std::move(opened).value();
  auto report = session.RunThrough(StageId::kCompile);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report.value().stats.num_query_vars, 0u);
  EXPECT_TRUE(report.value().repairs.empty());
  EXPECT_EQ(session.context().weights.size(), 0u);
  EXPECT_TRUE(session.StageIsValid(StageId::kCompile));
  EXPECT_FALSE(session.StageIsValid(StageId::kLearn));

  // Finishing the run executes only the remaining stages.
  auto full = session.Run();
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(session.context().ground_runs, 1u);
  EXPECT_FALSE(full.value().repairs.empty());
}

TEST(Session, UpdateConfigInvalidatesMinimalSuffix) {
  PipelineFixture f;
  HoloCleanConfig config;
  config.tau = 0.3;
  config.dc_mode = DcMode::kBoth;
  config.partitioning = true;
  auto opened = test_helpers::OpenSessionOver(config, &f.dataset, f.dcs);
  ASSERT_TRUE(opened.ok());
  Session session = std::move(opened).value();
  ASSERT_TRUE(session.Run().ok());
  ASSERT_EQ(session.context().ground_runs, 1u);

  // Inference knob: only infer and repair re-execute.
  HoloCleanConfig infer_knob = config;
  infer_knob.gibbs_samples += 10;
  session.UpdateConfig(infer_knob);
  EXPECT_TRUE(session.StageIsValid(StageId::kLearn));
  EXPECT_FALSE(session.StageIsValid(StageId::kInfer));
  ASSERT_TRUE(session.Run().ok());
  EXPECT_EQ(session.context().ground_runs, 1u);

  // Pruning knob: compile re-executes (re-grounding).
  HoloCleanConfig compile_knob = infer_knob;
  compile_knob.tau = 0.5;
  session.UpdateConfig(compile_knob);
  EXPECT_TRUE(session.StageIsValid(StageId::kDetect));
  EXPECT_FALSE(session.StageIsValid(StageId::kCompile));
  ASSERT_TRUE(session.Run().ok());
  EXPECT_EQ(session.context().ground_runs, 2u);

  // Identical config: everything stays valid, Run is a cache hit.
  session.UpdateConfig(compile_knob);
  EXPECT_TRUE(session.StageIsValid(StageId::kRepair));
  ASSERT_TRUE(session.Run().ok());
  EXPECT_EQ(session.context().ground_runs, 2u);
}

TEST(Session, CachedStagesReportZeroLegacySeconds) {
  PipelineFixture f;
  HoloCleanConfig config;
  config.tau = 0.3;
  auto opened = test_helpers::OpenSessionOver(config, &f.dataset, f.dcs);
  ASSERT_TRUE(opened.ok());
  Session session = std::move(opened).value();
  auto first = session.Run();
  ASSERT_TRUE(first.ok());

  // Incremental re-run from infer: detect/compile/learn are cached and the
  // run spent no time in them, so the legacy phase view must not re-report
  // the prior run's wall times.
  session.Invalidate(StageId::kInfer);
  auto second = session.Run();
  ASSERT_TRUE(second.ok());
  const RunStats& s = second.value().stats;
  EXPECT_DOUBLE_EQ(s.detect_seconds, 0.0);
  EXPECT_DOUBLE_EQ(s.compile_seconds, 0.0);
  EXPECT_DOUBLE_EQ(s.learn_seconds, 0.0);
  EXPECT_GE(s.infer_seconds, 0.0);
  // The per-stage view keeps the prior wall time for reference, flagged.
  EXPECT_TRUE(s.stage_timings[0].cached);
  EXPECT_DOUBLE_EQ(s.stage_timings[0].seconds,
                   first.value().stats.stage_timings[0].seconds);

  // A prefix re-run reports nothing for the stages it never visited.
  session.Invalidate(StageId::kCompile);
  auto prefix = session.RunThrough(StageId::kCompile);
  ASSERT_TRUE(prefix.ok());
  EXPECT_DOUBLE_EQ(prefix.value().stats.detect_seconds, 0.0);
  EXPECT_GE(prefix.value().stats.compile_seconds, 0.0);
  EXPECT_DOUBLE_EQ(prefix.value().stats.learn_seconds, 0.0);
  EXPECT_DOUBLE_EQ(prefix.value().stats.infer_seconds, 0.0);
}

TEST(Session, PinCellSkipsDetectionAndRemovesQueryVariable) {
  PipelineFixture f;
  HoloCleanConfig config;
  config.tau = 0.3;
  auto opened = test_helpers::OpenSessionOver(config, &f.dataset, f.dcs);
  ASSERT_TRUE(opened.ok());
  Session session = std::move(opened).value();
  auto first = session.Run();
  ASSERT_TRUE(first.ok());
  ASSERT_FALSE(first.value().repairs.empty());

  Repair verified = first.value().repairs.front();
  session.PinCell(verified.cell, verified.new_value);
  EXPECT_TRUE(session.StageIsValid(StageId::kDetect));
  EXPECT_FALSE(session.StageIsValid(StageId::kCompile));

  auto second = session.Run();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(session.context().ground_runs, 2u);
  EXPECT_EQ(f.dataset.dirty().Get(verified.cell), verified.new_value);
  for (const Repair& r : second.value().repairs) {
    EXPECT_FALSE(r.cell == verified.cell);
  }
  for (const CellPosterior& p : second.value().posteriors) {
    EXPECT_FALSE(p.cell == verified.cell);
  }
  const auto& timings = second.value().stats.stage_timings;
  EXPECT_TRUE(timings[0].cached);
  EXPECT_FALSE(timings[1].cached);
}

}  // namespace
}  // namespace holoclean
