// Property-style tests (parameterized sweeps) over the system's invariants:
// the τ tradeoff of Algorithm 2, grounding monotonicity, marginal validity,
// determinism, and robustness to error rates.

#include <gtest/gtest.h>

#include "holoclean/core/evaluation.h"
#include "holoclean/core/engine.h"
#include "holoclean/data/food.h"
#include "holoclean/data/hospital.h"
#include "holoclean/detect/violation_detector.h"
#include "holoclean/model/domain_pruning.h"

#include "session_helpers.h"

namespace holoclean {
namespace {

// ---------- τ sweep: Algorithm 2's scalability/quality dial ----------

class TauSweep : public ::testing::TestWithParam<double> {};

TEST_P(TauSweep, CandidateCountShrinksWithTau) {
  GeneratedData data = MakeHospital({400, 0.05, 61});
  std::vector<AttrId> attrs = data.dataset.RepairableAttrs();
  CooccurrenceStats cooc =
      CooccurrenceStats::BuildColumnar(data.dataset.dirty(), attrs);
  ViolationDetector detector(&data.dataset.dirty(), &data.dcs);
  NoisyCells noisy =
      ViolationDetector::NoisyFromViolations(detector.Detect());

  DomainPruningOptions low;
  low.tau = 0.1;
  DomainPruningOptions here;
  here.tau = GetParam();
  size_t low_count =
      PruneDomainsColumnar(data.dataset.dirty(), noisy.cells(), attrs, cooc,
                           low)
          .TotalCandidates();
  size_t here_count =
      PruneDomainsColumnar(data.dataset.dirty(), noisy.cells(), attrs, cooc,
                           here)
          .TotalCandidates();
  EXPECT_LE(here_count, low_count);
}

TEST_P(TauSweep, PipelineProducesValidMarginals) {
  GeneratedData data = MakeHospital({300, 0.05, 62});
  HoloCleanConfig config;
  config.tau = GetParam();
  auto report = test_helpers::RunOnce(config, &data.dataset, data.dcs);
  ASSERT_TRUE(report.ok());
  for (const CellPosterior& p : report.value().posteriors) {
    EXPECT_GT(p.map_prob, 0.0);
    EXPECT_LE(p.map_prob, 1.0 + 1e-9);
  }
  for (const Repair& r : report.value().repairs) {
    EXPECT_NE(r.new_value, r.old_value);
  }
}

INSTANTIATE_TEST_SUITE_P(Taus, TauSweep,
                         ::testing::Values(0.3, 0.5, 0.7, 0.9));

// τ quality tradeoff across the whole pipeline: recall at high τ must not
// exceed recall at low τ by more than noise.
TEST(TauTradeoff, RecallDecreasesAcrossSweep) {
  double recall_low = 0.0;
  double recall_high = 0.0;
  {
    GeneratedData data = MakeFood({1200, 0.06, 63});
    HoloCleanConfig config;
    config.tau = 0.3;
    auto report = test_helpers::RunOnce(config, &data.dataset, data.dcs);
    ASSERT_TRUE(report.ok());
    recall_low = EvaluateRepairs(data.dataset, report.value().repairs).recall;
  }
  {
    GeneratedData data = MakeFood({1200, 0.06, 63});
    HoloCleanConfig config;
    config.tau = 0.9;
    auto report = test_helpers::RunOnce(config, &data.dataset, data.dcs);
    ASSERT_TRUE(report.ok());
    recall_high =
        EvaluateRepairs(data.dataset, report.value().repairs).recall;
  }
  EXPECT_LE(recall_high, recall_low + 0.02);
}

// ---------- Error-rate sweep: graceful degradation ----------

class ErrorRateSweep : public ::testing::TestWithParam<double> {};

TEST_P(ErrorRateSweep, PrecisionStaysHighOnHospital) {
  GeneratedData data = MakeHospital({400, GetParam(), 64});
  HoloCleanConfig config;
  config.tau = 0.5;
  auto report = test_helpers::RunOnce(config, &data.dataset, data.dcs);
  ASSERT_TRUE(report.ok());
  EvalResult e = EvaluateRepairs(data.dataset, report.value().repairs);
  EXPECT_GT(e.precision, 0.8) << "error rate " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Rates, ErrorRateSweep,
                         ::testing::Values(0.02, 0.05, 0.10, 0.15));

// ---------- Detector invariants on random instances ----------

class SeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeedSweep, NoisyCellsAreExactlyViolationCells) {
  GeneratedData data = MakeHospital({200, 0.08, GetParam()});
  ViolationDetector detector(&data.dataset.dirty(), &data.dcs);
  auto violations = detector.Detect();
  NoisyCells noisy = ViolationDetector::NoisyFromViolations(violations);
  // Every violation cell is noisy and every noisy cell appears in some
  // violation (definitional round trip).
  size_t from_violations = 0;
  std::unordered_set<CellRef, CellRefHash> seen;
  for (const auto& v : violations) {
    for (const auto& c : v.cells) {
      EXPECT_TRUE(noisy.Contains(c));
      if (seen.insert(c).second) ++from_violations;
    }
  }
  EXPECT_EQ(from_violations, noisy.size());
}

TEST_P(SeedSweep, RepairsOnlyTouchNoisyCells) {
  GeneratedData data = MakeHospital({200, 0.08, GetParam()});
  ViolationDetector detector(&data.dataset.dirty(), &data.dcs);
  NoisyCells noisy =
      ViolationDetector::NoisyFromViolations(detector.Detect());
  HoloCleanConfig config;
  auto report = test_helpers::RunOnce(config, &data.dataset, data.dcs);
  ASSERT_TRUE(report.ok());
  for (const Repair& r : report.value().repairs) {
    EXPECT_TRUE(noisy.Contains(r.cell));
  }
}

TEST_P(SeedSweep, PosteriorsCoverEveryNoisyCell) {
  GeneratedData data = MakeHospital({200, 0.08, GetParam()});
  HoloCleanConfig config;
  auto report = test_helpers::RunOnce(config, &data.dataset, data.dcs);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().posteriors.size(),
            report.value().stats.num_noisy_cells);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(71, 72, 73, 74, 75));

// ---------- Idempotence: repairing repaired data changes little ----------

TEST(Idempotence, SecondPassMakesFewRepairs) {
  GeneratedData data = MakeHospital({400, 0.05, 65});
  HoloCleanConfig config;
  config.tau = 0.5;
  auto first = test_helpers::RunOnce(config, &data.dataset, data.dcs);
  ASSERT_TRUE(first.ok());
  first.value().Apply(&data.dataset.dirty());
  auto second = test_helpers::RunOnce(config, &data.dataset, data.dcs);
  ASSERT_TRUE(second.ok());
  EXPECT_LT(second.value().repairs.size(),
            first.value().repairs.size() / 2 + 5);
}

}  // namespace
}  // namespace holoclean
