// End-to-end integration tests: the full pipeline against the generated
// paper datasets, the baselines beside it, and the qualitative claims of
// the paper's evaluation (who wins, in which direction) as assertions.

#include <gtest/gtest.h>

#include "holoclean/baselines/holistic.h"
#include "holoclean/baselines/katara.h"
#include "holoclean/baselines/scare.h"
#include "holoclean/core/calibration.h"
#include "holoclean/core/evaluation.h"
#include "holoclean/core/engine.h"
#include "holoclean/data/flights.h"
#include "holoclean/data/food.h"
#include "holoclean/data/hospital.h"
#include "holoclean/data/physicians.h"

#include "session_helpers.h"

namespace holoclean {
namespace {

// Reduced sizes keep the suite fast; the bench binaries run full scale.

TEST(Integration, HospitalHoloCleanHighPrecisionGoodRecall) {
  GeneratedData data = MakeHospital({600, 0.05, 51});
  HoloCleanConfig config;
  config.tau = 0.5;
  auto report = test_helpers::RunOnce(config, &data.dataset, data.dcs);
  ASSERT_TRUE(report.ok());
  EvalResult e = EvaluateRepairs(data.dataset, report.value().repairs);
  EXPECT_GT(e.precision, 0.9);
  EXPECT_GT(e.recall, 0.55);
  EXPECT_GT(e.f1, 0.7);
}

TEST(Integration, HospitalBeatsAllBaselines) {
  GeneratedData data = MakeHospital({600, 0.05, 52});
  HoloCleanConfig config;
  config.tau = 0.5;
  auto report = test_helpers::RunOnce(config, &data.dataset, data.dcs);
  ASSERT_TRUE(report.ok());
  double holo = EvaluateRepairs(data.dataset, report.value().repairs).f1;
  double holistic =
      EvaluateRepairs(data.dataset, Holistic().Run(data.dataset, data.dcs)).f1;
  double katara =
      EvaluateRepairs(data.dataset,
                      Katara().Run(&data.dataset, data.dicts, data.mds))
          .f1;
  double scare = EvaluateRepairs(data.dataset, Scare().Run(data.dataset)).f1;
  EXPECT_GT(holo, holistic);
  EXPECT_GT(holo, katara);
  EXPECT_GT(holo, scare);
}

TEST(Integration, FlightsTrustBeatsMinimality) {
  FlightsOptions options;
  options.num_rows = 1200;
  GeneratedData data = MakeFlights(options);
  HoloCleanConfig config;
  config.tau = 0.3;
  auto report = test_helpers::RunOnce(config, &data.dataset, data.dcs);
  ASSERT_TRUE(report.ok());
  EvalResult holo = EvaluateRepairs(data.dataset, report.value().repairs);
  EvalResult holistic =
      EvaluateRepairs(data.dataset, Holistic().Run(data.dataset, data.dcs));
  // The paper's headline on Flights: constraints + minimality alone fail
  // badly; the unified model with source trust works.
  EXPECT_GT(holo.f1, 0.5);
  EXPECT_LT(holistic.f1, holo.f1 / 2.0);
}

TEST(Integration, FoodNonSystematicErrors) {
  GeneratedData data = MakeFood({1500, 0.06, 53});
  HoloCleanConfig config;
  config.tau = 0.5;
  auto report = test_helpers::RunOnce(config, &data.dataset, data.dcs);
  ASSERT_TRUE(report.ok());
  EvalResult holo = EvaluateRepairs(data.dataset, report.value().repairs);
  EvalResult holistic =
      EvaluateRepairs(data.dataset, Holistic().Run(data.dataset, data.dcs));
  EXPECT_GT(holo.f1, 0.6);
  EXPECT_GT(holo.f1, holistic.f1);
  // KATARA: high precision, low recall (dictionary covers only geography).
  EvalResult katara = EvaluateRepairs(
      data.dataset, Katara().Run(&data.dataset, data.dicts, data.mds));
  EXPECT_GT(katara.precision, 0.7);
  EXPECT_LT(katara.recall, holo.recall);
}

TEST(Integration, PhysiciansSystematicErrors) {
  PhysiciansOptions options;
  options.num_rows = 3000;
  GeneratedData data = MakePhysicians(options);
  HoloCleanConfig config;
  config.tau = 0.7;
  auto report = test_helpers::RunOnce(config, &data.dataset, data.dcs);
  ASSERT_TRUE(report.ok());
  EvalResult holo = EvaluateRepairs(data.dataset, report.value().repairs);
  EXPECT_GT(holo.precision, 0.9);
  EXPECT_GT(holo.f1, 0.65);
  // KATARA performs no repairs: zip format mismatch (paper Table 3 note).
  auto katara = Katara().Run(&data.dataset, data.dicts, data.mds);
  EXPECT_TRUE(katara.empty());
}

TEST(Integration, ExternalDictImprovesOrMatchesFood) {
  GeneratedData without = MakeFood({1500, 0.06, 54});
  GeneratedData with = MakeFood({1500, 0.06, 54});
  HoloCleanConfig config;
  config.tau = 0.5;
  auto base = test_helpers::RunOnce(config, &without.dataset, without.dcs);
  auto dict = test_helpers::RunOnce(config, &with.dataset, with.dcs, &with.dicts,
                                    &with.mds);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(dict.ok());
  double f1_base =
      EvaluateRepairs(without.dataset, base.value().repairs).f1;
  double f1_dict = EvaluateRepairs(with.dataset, dict.value().repairs).f1;
  // §6.3.2: gains are small but not negative (limited coverage).
  EXPECT_GE(f1_dict, f1_base - 0.02);
}

TEST(Integration, CalibrationErrorRateDecreases) {
  GeneratedData data = MakeHospital({800, 0.08, 55});
  HoloCleanConfig config;
  config.tau = 0.3;
  auto report = test_helpers::RunOnce(config, &data.dataset, data.dcs);
  ASSERT_TRUE(report.ok());
  auto buckets = ComputeCalibration(data.dataset, report.value().repairs);
  // Compare the aggregate low-confidence vs high-confidence error rate
  // (individual buckets may be sparse).
  size_t low_total = buckets[0].total + buckets[1].total;
  size_t low_wrong = buckets[0].wrong + buckets[1].wrong;
  size_t high_total = buckets[3].total + buckets[4].total;
  size_t high_wrong = buckets[3].wrong + buckets[4].wrong;
  ASSERT_GT(high_total, 0u);
  double high_rate = static_cast<double>(high_wrong) / high_total;
  if (low_total > 0) {
    double low_rate = static_cast<double>(low_wrong) / low_total;
    EXPECT_GE(low_rate, high_rate - 0.05);
  }
  EXPECT_LT(high_rate, 0.2);
}

TEST(Integration, PartitioningPreservesQuality) {
  // §5.1.2: partitioning loses at most a few points of F1.
  GeneratedData a = MakeFood({1200, 0.06, 56});
  GeneratedData b = MakeFood({1200, 0.06, 56});
  HoloCleanConfig config;
  config.tau = 0.5;
  config.dc_mode = DcMode::kBoth;
  config.partitioning = false;
  auto full = test_helpers::RunOnce(config, &a.dataset, a.dcs);
  config.partitioning = true;
  auto part = test_helpers::RunOnce(config, &b.dataset, b.dcs);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(part.ok());
  double f1_full = EvaluateRepairs(a.dataset, full.value().repairs).f1;
  double f1_part = EvaluateRepairs(b.dataset, part.value().repairs).f1;
  EXPECT_GE(f1_part, f1_full - 0.08);
  EXPECT_LE(part.value().stats.num_dc_factors,
            full.value().stats.num_dc_factors);
}

TEST(Integration, RelaxedModelMatchesFactorModelQuality) {
  // §5.2 / §6.3.1: the relaxation achieves comparable repair quality.
  GeneratedData a = MakeHospital({500, 0.05, 57});
  GeneratedData b = MakeHospital({500, 0.05, 57});
  HoloCleanConfig config;
  config.tau = 0.5;
  config.dc_mode = DcMode::kFeatures;
  auto relaxed = test_helpers::RunOnce(config, &a.dataset, a.dcs);
  config.dc_mode = DcMode::kBoth;
  config.partitioning = true;
  auto factors = test_helpers::RunOnce(config, &b.dataset, b.dcs);
  ASSERT_TRUE(relaxed.ok());
  ASSERT_TRUE(factors.ok());
  double f1_relaxed =
      EvaluateRepairs(a.dataset, relaxed.value().repairs).f1;
  double f1_factors =
      EvaluateRepairs(b.dataset, factors.value().repairs).f1;
  EXPECT_NEAR(f1_relaxed, f1_factors, 0.1);
}

TEST(Integration, RepairedTableHasFewerViolations) {
  GeneratedData data = MakeHospital({500, 0.05, 58});
  ViolationDetector before(&data.dataset.dirty(), &data.dcs);
  size_t violations_before = before.Detect().size();
  HoloCleanConfig config;
  config.tau = 0.5;
  auto report = test_helpers::RunOnce(config, &data.dataset, data.dcs);
  ASSERT_TRUE(report.ok());
  Table repaired = data.dataset.dirty().Clone();
  report.value().Apply(&repaired);
  ViolationDetector after(&repaired, &data.dcs);
  EXPECT_LT(after.Detect().size(), violations_before / 2);
}

}  // namespace
}  // namespace holoclean
