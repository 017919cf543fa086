// Flights fusion: repair conflicting flight times reported by web sources
// of very different reliability (paper §6.1/§6.2.1). Demonstrates the
// provenance signal: HoloClean's EM-estimated source trust lets it side
// with a reliable minority against a coordinated wrong majority, where
// minimality-based repair follows the (wrong) majority.

#include <cstdio>

#include "holoclean/baselines/holistic.h"
#include "holoclean/core/evaluation.h"
#include "holoclean/core/engine.h"
#include "holoclean/data/flights.h"
#include "holoclean/stats/source_reliability.h"

using namespace holoclean;  // NOLINT — example brevity.

int main() {
  FlightsOptions data_options;
  GeneratedData data = MakeFlights(data_options);
  const Table& table = data.dataset.dirty();

  // What the trust estimator recovers about the sources.
  SourceReliability trust = SourceReliability::Estimate(
      table, table.schema().IndexOf("Flight"), data.dataset.source_attr());
  std::printf("Estimated source reliabilities (EM, SLiMFast-style):\n");
  for (const auto& [src, r] : trust.All()) {
    std::printf("  %-8s %.3f\n", table.dict().GetString(src).c_str(), r);
  }

  HoloCleanConfig config;
  config.tau = 0.3;  // Paper Table 3 uses tau=0.3 for Flights.
  holoclean::SessionOptions session_options;
  session_options.config = config;
  auto report = holoclean::CleanOnce(
      holoclean::CleaningInputs::Borrowed(&data.dataset, &data.dcs),
      session_options);
  if (!report.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  EvalResult holo = EvaluateRepairs(data.dataset, report.value().repairs);

  Holistic holistic;
  EvalResult minimal =
      EvaluateRepairs(data.dataset, holistic.Run(data.dataset, data.dcs));

  std::printf("\n%zu rows, %zu true errors\n", table.num_rows(),
              data.dataset.TrueErrors().size());
  std::printf("HoloClean: P=%.3f R=%.3f F1=%.3f\n", holo.precision,
              holo.recall, holo.f1);
  std::printf("Holistic (minimality): P=%.3f R=%.3f F1=%.3f\n",
              minimal.precision, minimal.recall, minimal.f1);
  return 0;
}
