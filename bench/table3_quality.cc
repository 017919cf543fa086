// Reproduces Table 3 of the paper: precision, recall, and F1 of HoloClean
// against Holistic, KATARA, and SCARE on the four datasets (per-dataset
// pruning threshold τ in parentheses, as in the paper). HoloClean's F1 per
// dataset is also appended to the HOLOCLEAN_BENCH_JSON metrics file as
// holoclean_f1_<dataset>.

#include <cstdio>

#include "common.h"
#include "holoclean/baselines/holistic.h"
#include "holoclean/baselines/katara.h"
#include "holoclean/baselines/scare.h"

using namespace holoclean;        // NOLINT
using namespace holoclean::bench; // NOLINT

namespace {

std::string Cell(const EvalResult& e) {
  return Fmt(e.precision) + "/" + Fmt(e.recall) + "/" + Fmt(e.f1);
}

}  // namespace

int main() {
  std::printf("Table 3: Precision/Recall/F1 per dataset and method\n");
  std::printf("(paper F1: Hospital .832/.435/.379/.593, Flights .763/0/n-a/"
              ".104,\n Food .783/.235/.473/0, Physicians .897/.512/0/0)\n\n");
  std::vector<int> widths = {16, 19, 19, 19, 19};
  PrintRule(widths);
  PrintRow({"Dataset (tau)", "HoloClean P/R/F1", "Holistic P/R/F1",
            "KATARA P/R/F1", "SCARE P/R/F1"},
           widths);
  PrintRule(widths);

  double holo_f1_sum = 0.0;
  double best_baseline_f1_sum = 0.0;
  for (const std::string& name : AllDatasetNames()) {
    GeneratedData data = MakeDataset(name);

    RunOutcome holo = RunPipeline(&data, PaperConfig(name), false);

    Holistic holistic;
    EvalResult holistic_eval =
        EvaluateRepairs(data.dataset, holistic.Run(data.dataset, data.dcs));

    std::string katara_cell = "n/a";
    EvalResult katara_eval;
    if (!data.dicts.empty()) {
      Katara katara;
      katara_eval = EvaluateRepairs(
          data.dataset, katara.Run(&data.dataset, data.dicts, data.mds));
      katara_cell = Cell(katara_eval);
    }

    Scare scare;
    EvalResult scare_eval =
        EvaluateRepairs(data.dataset, scare.Run(data.dataset));

    PrintRow({name + " (" + Fmt(PaperTau(name), 1) + ")", Cell(holo.eval),
              Cell(holistic_eval), katara_cell, Cell(scare_eval)},
             widths);
    // CI gates each dataset's F1 against a floor (bench-smoke job).
    AppendBenchMetric("table3_quality", "holoclean_f1_" + name, holo.eval.f1);
    holo_f1_sum += holo.eval.f1;
    double best = std::max(
        {holistic_eval.f1, katara_eval.f1, scare_eval.f1});
    best_baseline_f1_sum += best;
  }
  PrintRule(widths);
  std::printf("\nAverage F1: HoloClean %.3f vs best baseline %.3f "
              "(improvement %.2fx; paper reports >2x on average)\n",
              holo_f1_sum / 4.0, best_baseline_f1_sum / 4.0,
              best_baseline_f1_sum > 0
                  ? holo_f1_sum / best_baseline_f1_sum
                  : 0.0);
  return 0;
}
