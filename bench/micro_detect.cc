// Detect+compile wall time of the production scans vs the row-at-a-time
// reference of tests/oracle/ on generated Food at three sizes. Each side
// detects violations, counts co-occurrence statistics and prunes domains
// with its own code; both then sample evidence and ground with the same
// production code (from the production statistics, whose contents the
// bench checks equal to the reference's). The bench doubles as a
// bit-identity cross-check: it exits 1 when the violations, noisy set,
// co-occurrence contents or domains diverge. CI pins the speedup at the
// largest size against the committed BENCH_ci.json ratio.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "holoclean/data/food.h"
#include "holoclean/model/grounding.h"
#include "holoclean/util/rng.h"
#include "holoclean/util/timer.h"
#include "oracle/reference.h"

using namespace holoclean;         // NOLINT
using namespace holoclean::bench;  // NOLINT

namespace {

/// One side's artifacts and stage times.
struct Side {
  double detect = 0.0;
  double compile = 0.0;
  DetectResult detected;
  NoisyCells noisy;
  PrunedDomains domains;
  /// Kept past the timed region, as the pipeline context keeps it.
  FactorGraph graph;
};

/// The inputs both sides read, as the detect and compile stages see them.
struct Workload {
  explicit Workload(size_t rows)
      : data(MakeFood({rows, 0.06, 7})),
        table(data.dataset.dirty()),
        attrs(data.dataset.RepairableAttrs()) {
    config.tau = 0.5;
    detect_options.sim_threshold = config.sim_threshold;
    detect_options.pool = &pool;
    prune_options.tau = config.tau;
    prune_options.max_candidates = config.max_candidates;
  }

  GeneratedData data;
  const Table& table;
  std::vector<AttrId> attrs;
  HoloCleanConfig config;
  ThreadPool pool;
  ViolationDetector::Options detect_options;
  DomainPruningOptions prune_options;
};

/// Evidence sample of the compile stage: clean non-NULL cells, capped.
std::vector<CellRef> SampleEvidence(const Workload& w,
                                    const NoisyCells& noisy) {
  std::vector<CellRef> evidence;
  for (size_t t = 0; t < w.table.num_rows(); ++t) {
    for (AttrId a : w.attrs) {
      CellRef c{static_cast<TupleId>(t), a};
      if (noisy.Contains(c) || w.table.Get(c) == Dictionary::kNull) continue;
      evidence.push_back(c);
    }
  }
  if (evidence.size() > w.config.max_training_cells) {
    Rng rng(w.config.seed);
    rng.Shuffle(&evidence);
    evidence.resize(w.config.max_training_cells);
    std::sort(evidence.begin(), evidence.end());
  }
  return evidence;
}

/// The shared tail of compile: grounding over one side's artifacts.
bool Ground(Workload& w, Side* side, const std::vector<CellRef>& evidence,
            const CooccurrenceStats& cooc) {
  GroundingInput input;
  input.table = &w.table;
  input.dcs = &w.data.dcs;
  input.attrs = &w.attrs;
  input.cooc = &cooc;
  input.query_cells = &side->noisy.cells();
  input.evidence_cells = &evidence;
  input.domains = &side->domains;
  input.violations = &side->detected.violations;
  input.source_attr = w.data.dataset.source_attr();
  GroundingOptions options = w.config.ToGroundingOptions();
  options.pool = &w.pool;
  Result<FactorGraph> graph = Grounder(input, options).Ground();
  if (!graph.ok()) return false;
  side->graph = std::move(graph).value();
  return true;
}

std::vector<CellRef> AllCells(const NoisyCells& noisy,
                              const std::vector<CellRef>& evidence) {
  std::vector<CellRef> cells = noisy.cells();
  cells.insert(cells.end(), evidence.begin(), evidence.end());
  return cells;
}

bool RunProduction(Workload& w, Side* side, CooccurrenceStats* cooc) {
  Timer detect;
  side->detected =
      ViolationDetector(&w.table, &w.data.dcs, w.detect_options).DetectAll();
  side->noisy =
      ViolationDetector::NoisyFromViolations(side->detected.violations);
  side->detect = detect.Seconds();

  Timer compile;
  *cooc = CooccurrenceStats::BuildColumnar(w.table, w.attrs, &w.pool);
  std::vector<CellRef> evidence = SampleEvidence(w, side->noisy);
  side->domains =
      PruneDomainsColumnar(w.table, AllCells(side->noisy, evidence), w.attrs,
                           *cooc, w.prune_options, &w.pool);
  bool ok = Ground(w, side, evidence, *cooc);
  side->compile = compile.Seconds();
  return ok;
}

bool RunReference(Workload& w, Side* side, oracle::Cooccurrence* ref_cooc,
                  const CooccurrenceStats& grounding_cooc) {
  Timer detect;
  side->detected = oracle::DetectAll(w.table, w.data.dcs, w.detect_options);
  side->noisy =
      ViolationDetector::NoisyFromViolations(side->detected.violations);
  side->detect = detect.Seconds();

  Timer compile;
  *ref_cooc = oracle::BuildCooccurrence(w.table, w.attrs);
  std::vector<CellRef> evidence = SampleEvidence(w, side->noisy);
  side->domains =
      oracle::PruneDomains(w.table, AllCells(side->noisy, evidence), w.attrs,
                           *ref_cooc, w.prune_options);
  bool ok = Ground(w, side, evidence, grounding_cooc);
  side->compile = compile.Seconds();
  return ok;
}

bool SameViolations(const std::vector<Violation>& a,
                    const std::vector<Violation>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].dc_index != b[i].dc_index || a[i].t1 != b[i].t1 ||
        a[i].t2 != b[i].t2 || a[i].cells != b[i].cells) {
      return false;
    }
  }
  return true;
}

bool SameCooccurrence(const std::vector<AttrId>& attrs,
                      const CooccurrenceStats& a,
                      const oracle::Cooccurrence& b) {
  if (a.num_pair_entries() != b.num_pair_entries()) return false;
  for (AttrId x : attrs) {
    if (a.Domain(x) != b.Domain(x)) return false;
    for (ValueId v : a.Domain(x)) {
      if (a.Count(x, v) != b.Count(x, v)) return false;
    }
    for (AttrId y : attrs) {
      if (x == y) continue;
      for (ValueId ctx : a.Domain(y)) {
        if (a.CooccurringValues(x, y, ctx) != b.CooccurringValues(x, y, ctx)) {
          return false;
        }
      }
    }
  }
  return true;
}

/// Names the first artifact on which the sides diverge, or nullptr.
const char* Divergence(const Workload& w, const Side& prod, const Side& ref,
                       const CooccurrenceStats& cooc,
                       const oracle::Cooccurrence& ref_cooc) {
  if (!SameViolations(prod.detected.violations, ref.detected.violations) ||
      prod.detected.truncated_dcs != ref.detected.truncated_dcs) {
    return "violations";
  }
  if (prod.noisy.cells() != ref.noisy.cells()) return "noisy set";
  if (!SameCooccurrence(w.attrs, cooc, ref_cooc)) return "co-occurrence";
  if (!(prod.domains.candidates == ref.domains.candidates)) return "domains";
  return nullptr;
}

}  // namespace

int main() {
  const std::vector<std::pair<std::string, size_t>> sizes = {
      {"4k", 4000}, {"40k", 40000}, {"100k", 100000}};
  std::printf("Detect+compile: columnar scans vs row reference "
              "(generated Food)\n\n");

  std::vector<int> widths = {6, 9, 13, 13, 13, 13, 12, 9};
  PrintRule(widths);
  PrintRow({"size", "rows", "det col (s)", "det row (s)", "cmp col (s)",
            "cmp row (s)", "rows/s col", "speedup"},
           widths);
  PrintRule(widths);

  double largest_speedup = 0.0;
  for (const auto& [label, nominal] : sizes) {
    size_t rows = static_cast<size_t>(static_cast<double>(nominal) *
                                      BenchScale());
    if (rows == 0) rows = 1;
    Workload w(rows);
    Side col;
    Side row;
    CooccurrenceStats cooc;
    oracle::Cooccurrence ref_cooc;
    if (!RunProduction(w, &col, &cooc) ||
        !RunReference(w, &row, &ref_cooc, cooc)) {
      std::fprintf(stderr, "run failed at %s\n", label.c_str());
      return 1;
    }
    if (const char* what = Divergence(w, col, row, cooc, ref_cooc)) {
      std::fprintf(stderr,
                   "columnar/row %s diverge at %s (violations %zu vs %zu, "
                   "noisy %zu vs %zu)\n",
                   what, label.c_str(), col.detected.violations.size(),
                   row.detected.violations.size(), col.noisy.size(),
                   row.noisy.size());
      return 1;
    }
    double col_total = col.detect + col.compile;
    double row_total = row.detect + row.compile;
    double speedup = col_total > 0.0 ? row_total / col_total : 0.0;
    double rows_per_sec =
        col_total > 0.0 ? static_cast<double>(rows) / col_total : 0.0;
    PrintRow({label, std::to_string(rows), Fmt(col.detect), Fmt(row.detect),
              Fmt(col.compile), Fmt(row.compile), Fmt(rows_per_sec, 0),
              Fmt(speedup, 2) + "x"},
             widths);
    AppendBenchMetric("micro_detect",
                      "detect_compile_seconds_columnar_" + label, col_total);
    AppendBenchMetric("micro_detect", "detect_compile_seconds_row_" + label,
                      row_total);
    AppendBenchMetric("micro_detect", "rows_per_sec_columnar_" + label,
                      rows_per_sec);
    largest_speedup = speedup;
  }
  PrintRule(widths);
  std::printf("(violations, noisy set, co-occurrence statistics and domains "
              "bit-identical across paths at every size)\n");
  AppendBenchMetric("micro_detect", "speedup_100k", largest_speedup);
  return 0;
}
