// Hospital audit: clean the Hospital benchmark end-to-end, compare against
// ground truth, and show how the calibrated marginal probabilities let an
// auditor focus manual review on low-confidence repairs (paper §2.2, §6.3.3).

#include <algorithm>
#include <cstdio>

#include "holoclean/core/calibration.h"
#include "holoclean/core/evaluation.h"
#include "holoclean/core/engine.h"
#include "holoclean/data/hospital.h"

using namespace holoclean;  // NOLINT — example brevity.

int main() {
  HospitalOptions data_options;
  data_options.num_rows = 1000;
  GeneratedData data = MakeHospital(data_options);

  HoloCleanConfig config;
  config.tau = 0.5;
  holoclean::SessionOptions session_options;
  session_options.config = config;
  auto report = holoclean::CleanOnce(
      holoclean::CleaningInputs::Borrowed(&data.dataset, &data.dcs,
                                          &data.dicts, &data.mds),
      session_options);
  if (!report.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }

  EvalResult eval = EvaluateRepairs(data.dataset, report.value().repairs);
  std::printf("Hospital: %zu rows, %zu true errors\n",
              data.dataset.dirty().num_rows(),
              data.dataset.TrueErrors().size());
  std::printf("Repairs: %zu (correct %zu)  P=%.3f R=%.3f F1=%.3f\n",
              eval.total_repairs, eval.correct_repairs, eval.precision,
              eval.recall, eval.f1);

  // Calibration: error rate per marginal-probability bucket (Figure 6).
  std::printf("\nConfidence buckets (repair error-rate by marginal):\n");
  for (const CalibrationBucket& b :
       ComputeCalibration(data.dataset, report.value().repairs)) {
    std::printf("  [%.1f-%.1f): %4zu repairs, error-rate %.2f\n", b.lo, b.hi,
                b.total, b.ErrorRate());
  }

  // An auditor reviews the least confident repairs first.
  std::vector<Repair> by_confidence = report.value().repairs;
  std::sort(by_confidence.begin(), by_confidence.end(),
            [](const Repair& a, const Repair& b) {
              return a.probability < b.probability;
            });
  const Table& table = data.dataset.dirty();
  std::printf("\n5 least-confident repairs (review these first):\n");
  for (size_t i = 0; i < std::min<size_t>(5, by_confidence.size()); ++i) {
    const Repair& r = by_confidence[i];
    std::printf("  t%d.%-12s %-24s -> %-24s (p=%.2f)\n", r.cell.tid,
                table.schema().name(r.cell.attr).c_str(),
                table.dict().GetString(r.old_value).c_str(),
                table.dict().GetString(r.new_value).c_str(), r.probability);
  }
  return 0;
}
