// Infrastructure micro-benchmarks (google-benchmark): throughput of the
// hot paths that determine HoloClean's scalability — violation detection
// (blocked vs naive), co-occurrence statistics, domain pruning, grounding,
// SGD learning, and Gibbs sweeps (the reference interpreter of
// tests/oracle/ vs the compiled kernel).
//
// After the registered benchmarks, main() runs the compiled-vs-reference
// kernel comparison on the Food 4k workload (learn/infer wall times and
// throughput, repairs cross-checked bit-identical; exits 1 when they
// diverge) and appends the numbers to the HOLOCLEAN_BENCH_JSON metrics
// file — CI's bench-smoke job aggregates them into BENCH_ci.json. Pass
// --benchmark_filter='^$' to run only the kernel comparison.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

#include "common.h"
#include "holoclean/data/food.h"
#include "holoclean/data/hospital.h"
#include "holoclean/detect/violation_detector.h"
#include "holoclean/infer/gibbs.h"
#include "holoclean/infer/learner.h"
#include "holoclean/model/compiled_graph.h"
#include "holoclean/model/domain_pruning.h"
#include "holoclean/model/grounding.h"
#include "holoclean/stats/cooccurrence.h"
#include "holoclean/util/timer.h"
#include "oracle/reference.h"

namespace holoclean {
namespace {

GeneratedData& SharedHospital() {
  static GeneratedData* data = [] {
    HospitalOptions options;
    options.num_rows = 1000;
    return new GeneratedData(MakeHospital(options));
  }();
  return *data;
}

void BM_ViolationDetection(benchmark::State& state) {
  GeneratedData& data = SharedHospital();
  for (auto _ : state) {
    ViolationDetector detector(&data.dataset.dirty(), &data.dcs);
    benchmark::DoNotOptimize(detector.Detect());
  }
  state.SetItemsProcessed(state.iterations() *
                          data.dataset.dirty().num_rows());
}
BENCHMARK(BM_ViolationDetection);

void BM_CooccurrenceBuild(benchmark::State& state) {
  GeneratedData& data = SharedHospital();
  std::vector<AttrId> attrs = data.dataset.RepairableAttrs();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        CooccurrenceStats::BuildColumnar(data.dataset.dirty(), attrs));
  }
  state.SetItemsProcessed(state.iterations() *
                          data.dataset.dirty().num_cells());
}
BENCHMARK(BM_CooccurrenceBuild);

void BM_DomainPruning(benchmark::State& state) {
  GeneratedData& data = SharedHospital();
  std::vector<AttrId> attrs = data.dataset.RepairableAttrs();
  CooccurrenceStats cooc =
      CooccurrenceStats::BuildColumnar(data.dataset.dirty(), attrs);
  ViolationDetector detector(&data.dataset.dirty(), &data.dcs);
  NoisyCells noisy =
      ViolationDetector::NoisyFromViolations(detector.Detect());
  DomainPruningOptions options;
  options.tau = static_cast<double>(state.range(0)) / 10.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(PruneDomainsColumnar(data.dataset.dirty(),
                                                  noisy.cells(), attrs, cooc,
                                                  options));
  }
  state.SetItemsProcessed(state.iterations() * noisy.size());
}
BENCHMARK(BM_DomainPruning)->Arg(3)->Arg(5)->Arg(9);

struct GroundedModel {
  GroundedModel(GeneratedData& data, DcMode mode) {
    attrs = data.dataset.RepairableAttrs();
    table = &data.dataset.dirty();
    cooc = CooccurrenceStats::BuildColumnar(*table, attrs);
    ViolationDetector detector(table, &data.dcs);
    violations = detector.Detect();
    noisy = ViolationDetector::NoisyFromViolations(violations);
    for (size_t t = 0; t < table->num_rows(); ++t) {
      for (AttrId a : attrs) {
        CellRef c{static_cast<TupleId>(t), a};
        if (!noisy.Contains(c) && table->Get(c) != Dictionary::kNull &&
            evidence.size() < 4000) {
          evidence.push_back(c);
        }
      }
    }
    std::vector<CellRef> all = noisy.cells();
    all.insert(all.end(), evidence.begin(), evidence.end());
    DomainPruningOptions prune;
    prune.tau = 0.5;
    domains = PruneDomainsColumnar(*table, all, attrs, cooc, prune);

    input.table = table;
    input.dcs = &data.dcs;
    input.attrs = &attrs;
    input.query_cells = &noisy.cells();
    input.evidence_cells = &evidence;
    input.domains = &domains;
    input.cooc = &cooc;
    input.violations = &violations;
    options.dc_mode = mode;
    options.use_partitioning = mode != DcMode::kFeatures;
  }

  const Table* table;
  std::vector<AttrId> attrs;
  CooccurrenceStats cooc;
  std::vector<Violation> violations;
  NoisyCells noisy;
  std::vector<CellRef> evidence;
  PrunedDomains domains;
  GroundingInput input;
  GroundingOptions options;
};

void BM_Grounding(benchmark::State& state) {
  GroundedModel model(SharedHospital(),
                      state.range(0) == 0 ? DcMode::kFeatures
                                          : DcMode::kBoth);
  for (auto _ : state) {
    Grounder grounder(model.input, model.options);
    auto graph = grounder.Ground();
    benchmark::DoNotOptimize(graph);
  }
}
BENCHMARK(BM_Grounding)->Arg(0)->Arg(1);

void BM_SgdEpoch(benchmark::State& state) {
  GroundedModel model(SharedHospital(), DcMode::kFeatures);
  Grounder grounder(model.input, model.options);
  auto graph = grounder.Ground();
  LearnerOptions options;
  options.epochs = 1;
  for (auto _ : state) {
    WeightStore weights;
    benchmark::DoNotOptimize(oracle::Train(graph.value(), options, &weights));
  }
  state.SetItemsProcessed(state.iterations() * model.evidence.size());
}
BENCHMARK(BM_SgdEpoch);

void BM_SgdEpochCompiled(benchmark::State& state) {
  GeneratedData& data = SharedHospital();
  GroundedModel model(data, DcMode::kFeatures);
  Grounder grounder(model.input, model.options);
  auto graph = grounder.Ground();
  CompiledGraph compiled =
      CompiledGraph::Build(graph.value(), *model.table, data.dcs);
  LearnerOptions options;
  options.epochs = 1;
  SgdLearner learner(&graph.value(), options);
  for (auto _ : state) {
    WeightStore weights;
    benchmark::DoNotOptimize(learner.Train(compiled, &weights));
  }
  state.SetItemsProcessed(state.iterations() * model.evidence.size());
}
BENCHMARK(BM_SgdEpochCompiled);

void BM_GibbsSweep(benchmark::State& state) {
  GeneratedData& data = SharedHospital();
  GroundedModel model(data, DcMode::kBoth);
  Grounder grounder(model.input, model.options);
  auto graph = grounder.Ground();
  WeightStore weights;
  GibbsOptions options;
  options.burn_in = 0;
  options.samples = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle::Gibbs(graph.value(), *model.table,
                                           data.dcs, weights, options,
                                           model.options.sim_threshold));
  }
  state.SetItemsProcessed(state.iterations() *
                          graph.value().query_vars().size());
}
BENCHMARK(BM_GibbsSweep);

void BM_GibbsSweepCompiled(benchmark::State& state) {
  GeneratedData& data = SharedHospital();
  GroundedModel model(data, DcMode::kBoth);
  Grounder grounder(model.input, model.options);
  auto graph = grounder.Ground();
  CompiledGraph compiled =
      CompiledGraph::Build(graph.value(), *model.table, data.dcs);
  WeightStore weights;
  GibbsOptions options;
  options.burn_in = 0;
  options.samples = 1;
  for (auto _ : state) {
    GibbsSampler sampler(&graph.value(), compiled, model.table, &data.dcs,
                         &weights, options);
    benchmark::DoNotOptimize(sampler.Run());
  }
  state.SetItemsProcessed(state.iterations() *
                          graph.value().query_vars().size());
}
BENCHMARK(BM_GibbsSweepCompiled);

// ---------------------------------------------------------------------------
// Compiled-vs-reference kernel comparison on the Food 4k workload.
// ---------------------------------------------------------------------------

struct StageRun {
  double learn_seconds = 0.0;
  double infer_seconds = 0.0;
  size_t evidence_vars = 0;
  size_t query_vars = 0;
  std::vector<Repair> repairs;
};

/// Learn/infer on both runtimes over one Food 4k compile. The reference
/// interpreter runs on the session's graph and is timed here; the
/// compiled run is the session's own learn/infer/repair stages, timed by
/// its stage timings (it pays its CompiledGraph build inside the learn
/// stage, so the comparison is end to end). Repair extraction then runs
/// once more over the reference artifacts, so both repair lists come from
/// the same repair stage.
void RunFoodStages(const HoloCleanConfig& config, StageRun* ref,
                   StageRun* comp) {
  FoodOptions options;
  options.num_rows = 4000;  // The acceptance workload; bench scale exempt.
  GeneratedData data = MakeFood(options);
  SessionOptions session_options;
  session_options.config = config;
  auto opened = OpenStandaloneSession(
      CleaningInputs::Borrowed(&data.dataset, &data.dcs), session_options);
  if (!opened.ok()) {
    std::fprintf(stderr, "food open failed: %s\n",
                 opened.status().ToString().c_str());
    std::abort();
  }
  Session session = std::move(opened).value();
  auto check = [](const Result<Report>& report) {
    if (!report.ok()) {
      std::fprintf(stderr, "food run failed: %s\n",
                   report.status().ToString().c_str());
      std::abort();
    }
  };
  check(session.RunThrough(StageId::kCompile));
  PipelineContext& ctx = session.context();

  Timer timer;
  WeightStore ref_weights = oracle::Learn(ctx);
  ref->learn_seconds = timer.Seconds();
  timer.Reset();
  Marginals ref_marginals = oracle::Infer(ctx, ref_weights);
  ref->infer_seconds = timer.Seconds();

  auto report = session.Run();
  check(report);
  const auto& timings = report.value().stats.stage_timings;
  comp->learn_seconds = timings[static_cast<size_t>(StageId::kLearn)].seconds;
  comp->infer_seconds =
      timings[static_cast<size_t>(StageId::kInfer)].seconds +
      timings[static_cast<size_t>(StageId::kRepair)].seconds;
  comp->evidence_vars = ref->evidence_vars =
      report.value().stats.num_evidence_vars;
  comp->query_vars = ref->query_vars = report.value().stats.num_query_vars;
  comp->repairs = std::move(report.value().repairs);

  ctx.weights = std::move(ref_weights);
  ctx.marginals = std::move(ref_marginals);
  session.Invalidate(StageId::kRepair);
  auto ref_report = session.Run();
  check(ref_report);
  ref->infer_seconds +=
      ref_report.value()
          .stats.stage_timings[static_cast<size_t>(StageId::kRepair)]
          .seconds;
  ref->repairs = std::move(ref_report.value().repairs);
}

bool RepairsIdentical(const std::vector<Repair>& a,
                      const std::vector<Repair>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].cell == b[i].cell) || a[i].new_value != b[i].new_value ||
        a[i].probability != b[i].probability) {
      return false;
    }
  }
  return true;
}

void ReportKernelComparison(const char* label, const HoloCleanConfig& base,
                            int sweeps) {
  StageRun ref;
  StageRun comp;
  RunFoodStages(base, &ref, &comp);
  bool identical = RepairsIdentical(ref.repairs, comp.repairs);
  std::string prefix = std::string("food4k_") + label;
  bench::AppendBenchMetric("micro_perf", prefix + "_repairs_identical",
                           identical ? 1.0 : 0.0);
  if (!identical) {
    // The bench doubles as CI's bit-identity cross-check: a divergence
    // must fail the job, not just print — after recording the failed
    // check in the metrics artifact. (The speedup itself stays advisory —
    // shared runners are too noisy to gate on.)
    std::fprintf(stderr,
                 "FATAL: compiled kernel repairs diverge from the reference "
                 "path on food4k %s\n",
                 label);
    std::exit(1);
  }

  double ref_total = ref.learn_seconds + ref.infer_seconds;
  double comp_total = comp.learn_seconds + comp.infer_seconds;
  double speedup = comp_total > 0.0 ? ref_total / comp_total : 0.0;
  double learn_examples =
      static_cast<double>(ref.evidence_vars) * base.epochs;
  double infer_var_sweeps =
      static_cast<double>(ref.query_vars) * static_cast<double>(sweeps);

  std::printf(
      "\nfood4k %s: learn %.3fs -> %.3fs, infer %.3fs -> %.3fs, "
      "combined speedup %.2fx, repairs bit-identical\n",
      label, ref.learn_seconds, comp.learn_seconds, ref.infer_seconds,
      comp.infer_seconds, speedup);
  std::printf(
      "  learn vars/s %.0f -> %.0f; infer var-sweeps/s %.0f -> %.0f\n",
      learn_examples / ref.learn_seconds,
      learn_examples / comp.learn_seconds,
      infer_var_sweeps / ref.infer_seconds,
      infer_var_sweeps / comp.infer_seconds);

  bench::AppendBenchMetric("micro_perf", prefix + "_learn_seconds_reference",
                           ref.learn_seconds);
  bench::AppendBenchMetric("micro_perf", prefix + "_learn_seconds_compiled",
                           comp.learn_seconds);
  bench::AppendBenchMetric("micro_perf", prefix + "_infer_seconds_reference",
                           ref.infer_seconds);
  bench::AppendBenchMetric("micro_perf", prefix + "_infer_seconds_compiled",
                           comp.infer_seconds);
  bench::AppendBenchMetric("micro_perf", prefix + "_learn_infer_speedup",
                           speedup);
  bench::AppendBenchMetric("micro_perf",
                           prefix + "_learn_vars_per_sec_reference",
                           learn_examples / ref.learn_seconds);
  bench::AppendBenchMetric("micro_perf",
                           prefix + "_learn_vars_per_sec_compiled",
                           learn_examples / comp.learn_seconds);
  bench::AppendBenchMetric("micro_perf",
                           prefix + "_infer_var_sweeps_per_sec_reference",
                           infer_var_sweeps / ref.infer_seconds);
  bench::AppendBenchMetric("micro_perf",
                           prefix + "_infer_var_sweeps_per_sec_compiled",
                           infer_var_sweeps / comp.infer_seconds);
}

void RunKernelComparison() {
  // The paper's Food configuration (DC features, exact marginals): learn
  // dominates, infer is the closed-form softmax pass.
  HoloCleanConfig feats = bench::PaperConfig("food");
  ReportKernelComparison("feats", feats, /*sweeps=*/1);

  // DC factors + partitioning with the default Gibbs chain: sweeps scored
  // through the precomputed violation tables.
  HoloCleanConfig factors = bench::PaperConfig("food");
  factors.dc_mode = DcMode::kBoth;
  factors.partitioning = true;
  ReportKernelComparison(
      "factors", factors,
      /*sweeps=*/factors.gibbs_burn_in + factors.gibbs_samples);
}

}  // namespace
}  // namespace holoclean

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  holoclean::RunKernelComparison();
  return 0;
}
