// Differential tests for the compiled inference kernel: CompiledGraph
// scores, learned weights, marginals, and sampled repairs must be
// bit-identical to the reference interpreter in tests/oracle/ run on the
// same graph from the same initial weights — including across the
// violation-table fallback boundary and for any thread count — and
// snapshots of either run's artifacts must be byte-identical.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "holoclean/constraints/parser.h"
#include "holoclean/core/engine.h"
#include "holoclean/data/hospital.h"
#include "holoclean/infer/gibbs.h"
#include "holoclean/infer/learner.h"
#include "holoclean/infer/marginals.h"
#include "holoclean/io/session_snapshot.h"
#include "holoclean/model/compiled_graph.h"
#include "holoclean/util/rng.h"

#include "oracle/reference.h"
#include "session_helpers.h"

namespace holoclean {
namespace {

// ---------- Randomized unary graphs ----------

/// A random factor graph of unary-featured variables: random candidate
/// counts, biases, activations, and weight keys drawn from a small pool so
/// features collide across variables (the dense remap must dedupe them).
FactorGraph RandomUnaryGraph(uint64_t seed, int num_vars) {
  Rng rng(seed);
  std::vector<uint64_t> key_pool;
  for (int i = 0; i < 40; ++i) key_pool.push_back(rng.Next());
  FactorGraph graph;
  for (int v = 0; v < num_vars; ++v) {
    Variable var;
    var.cell = {static_cast<TupleId>(v), 0};
    var.is_evidence = (v % 3) != 0;
    size_t num_cand = 1 + rng.Below(5);
    var.init_index = static_cast<int>(rng.Below(num_cand));
    var.domain.resize(num_cand);
    for (size_t k = 0; k < num_cand; ++k) {
      var.domain[k] = static_cast<ValueId>(100 + k);
    }
    var.feat_begin.push_back(0);
    for (size_t k = 0; k < num_cand; ++k) {
      var.prior_bias.push_back(rng.Uniform() * 2.0 - 1.0);
      size_t num_feats = rng.Below(6);
      for (size_t i = 0; i < num_feats; ++i) {
        FeatureInstance f;
        f.weight_key = key_pool[rng.Below(key_pool.size())];
        f.activation = static_cast<float>(rng.Uniform() * 3.0);
        var.features.push_back(f);
      }
      var.feat_begin.push_back(static_cast<int32_t>(var.features.size()));
    }
    graph.AddVariable(std::move(var));
  }
  return graph;
}

WeightStore RandomWeights(uint64_t seed, const FactorGraph& graph) {
  Rng rng(seed);
  WeightStore weights;
  for (const Variable& var : graph.variables()) {
    for (const FeatureInstance& f : var.features) {
      if (rng.Chance(0.7)) {
        weights.Set(f.weight_key, rng.Uniform() * 4.0 - 2.0);
      }
    }
  }
  return weights;
}

TEST(CompiledGraph, DenseRemapIsSortedAndComplete) {
  FactorGraph graph = RandomUnaryGraph(1, 30);
  Table table(Schema({"A"}), std::make_shared<Dictionary>());
  std::vector<DenialConstraint> dcs;
  CompiledGraph compiled = CompiledGraph::Build(graph, table, dcs);

  const auto& keys = compiled.weight_keys();
  for (size_t i = 1; i < keys.size(); ++i) {
    EXPECT_LT(keys[i - 1], keys[i]);  // Sorted, unique.
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(compiled.WeightIdOf(keys[i]), static_cast<int32_t>(i));
  }
  EXPECT_EQ(compiled.WeightIdOf(0xDEADBEEFDEADBEEFULL), -1);
  // Every feature key of the graph is mapped.
  for (const Variable& var : graph.variables()) {
    for (const FeatureInstance& f : var.features) {
      EXPECT_GE(compiled.WeightIdOf(f.weight_key), 0);
    }
  }
  EXPECT_EQ(compiled.num_variables(), graph.num_variables());
}

TEST(CompiledGraph, UnaryScoresBitIdenticalOnRandomGraphs) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    FactorGraph graph = RandomUnaryGraph(seed, 40);
    WeightStore weights = RandomWeights(seed ^ 0x9E37ULL, graph);
    Table table(Schema({"A"}), std::make_shared<Dictionary>());
    std::vector<DenialConstraint> dcs;
    CompiledGraph compiled = CompiledGraph::Build(graph, table, dcs);
    std::vector<double> dense = compiled.GatherWeights(weights);
    ASSERT_EQ(dense.size(), compiled.num_weights());
    for (size_t v = 0; v < graph.num_variables(); ++v) {
      const Variable& var = graph.variable(static_cast<int>(v));
      ASSERT_EQ(compiled.NumCandidates(static_cast<int>(v)),
                static_cast<int32_t>(var.NumCandidates()));
      for (size_t k = 0; k < var.NumCandidates(); ++k) {
        double ref = graph.UnaryScore(static_cast<int>(v),
                                      static_cast<int>(k), weights);
        double comp = compiled.UnaryScore(static_cast<int>(v),
                                          static_cast<int>(k), dense);
        EXPECT_EQ(ref, comp) << "seed " << seed << " var " << v
                             << " candidate " << k;
      }
    }
  }
}

void ExpectStoresBitIdentical(const WeightStore& a, const WeightStore& b) {
  // Entry for entry: same keys present (the lazy create-on-touch
  // semantics), same exact values.
  ASSERT_EQ(a.raw().size(), b.raw().size());
  for (const auto& [key, value] : a.raw()) {
    auto it = b.raw().find(key);
    ASSERT_NE(it, b.raw().end()) << "missing key " << key;
    EXPECT_EQ(value, it->second) << "key " << key;
  }
}

void ExpectMarginalsBitIdentical(const Marginals& a, const Marginals& b) {
  ASSERT_EQ(a.probs().size(), b.probs().size());
  for (size_t v = 0; v < a.probs().size(); ++v) {
    ASSERT_EQ(a.probs()[v].size(), b.probs()[v].size()) << "var " << v;
    for (size_t k = 0; k < a.probs()[v].size(); ++k) {
      EXPECT_EQ(a.probs()[v][k], b.probs()[v][k])
          << "var " << v << " candidate " << k;
    }
  }
}

TEST(CompiledGraph, LearnedWeightsAndNllBitIdentical) {
  for (uint64_t seed = 11; seed <= 13; ++seed) {
    FactorGraph graph = RandomUnaryGraph(seed, 60);
    Table table(Schema({"A"}), std::make_shared<Dictionary>());
    std::vector<DenialConstraint> dcs;
    CompiledGraph compiled = CompiledGraph::Build(graph, table, dcs);

    LearnerOptions options;
    options.epochs = 7;
    options.seed = seed * 31;
    SgdLearner learner(&graph, options);

    WeightStore ref = RandomWeights(seed ^ 0x1234ULL, graph);
    WeightStore comp = ref;  // Same starting parameters.
    WeightStore on_graph = ref;
    std::vector<double> ref_nll = oracle::Train(graph, options, &ref);
    std::vector<double> comp_nll = learner.Train(compiled, &comp);
    // The warm-start path over the full evidence set is the same SGD.
    std::vector<double> on_nll =
        learner.TrainOn(graph.evidence_vars(), &on_graph);

    ASSERT_EQ(ref_nll.size(), comp_nll.size());
    for (size_t e = 0; e < ref_nll.size(); ++e) {
      EXPECT_EQ(ref_nll[e], comp_nll[e]) << "epoch " << e;
    }
    EXPECT_EQ(ref_nll, on_nll);
    ExpectStoresBitIdentical(ref, comp);
    ExpectStoresBitIdentical(ref, on_graph);
  }
}

TEST(CompiledGraph, UntouchedWeightsStayAbsentFromTheStore) {
  // A single-candidate evidence variable: softmax prob is exactly 1.0, the
  // gradient coefficient is exactly 0, and the reference loop never
  // creates the weight. The compiled scatter must preserve that.
  FactorGraph graph;
  Variable var;
  var.cell = {0, 0};
  var.is_evidence = true;
  var.init_index = 0;
  var.domain = {100};
  var.prior_bias = {0.0};
  var.feat_begin = {0, 1};
  var.features = {{/*weight_key=*/77, 1.0f}};
  graph.AddVariable(std::move(var));

  Table table(Schema({"A"}), std::make_shared<Dictionary>());
  std::vector<DenialConstraint> dcs;
  CompiledGraph compiled = CompiledGraph::Build(graph, table, dcs);

  WeightStore ref, comp;
  oracle::Train(graph, LearnerOptions{}, &ref);
  SgdLearner(&graph, LearnerOptions{}).Train(compiled, &comp);
  EXPECT_EQ(ref.raw().count(77), 0u);
  EXPECT_EQ(comp.raw().count(77), 0u);
  EXPECT_EQ(ref.raw().size(), comp.raw().size());
}

TEST(CompiledGraph, ExactMarginalsBitIdentical) {
  FactorGraph graph = RandomUnaryGraph(21, 50);
  WeightStore weights = RandomWeights(22, graph);
  Table table(Schema({"A"}), std::make_shared<Dictionary>());
  std::vector<DenialConstraint> dcs;
  CompiledGraph compiled = CompiledGraph::Build(graph, table, dcs);

  ExpectMarginalsBitIdentical(oracle::ExactIndependentMarginals(graph, weights),
                              ExactIndependentMarginals(compiled, weights));
}

// ---------- End-to-end with DC factors ----------

HoloCleanConfig FactorConfig() {
  HoloCleanConfig config;
  config.dc_mode = DcMode::kBoth;
  config.partitioning = true;
  config.gibbs_burn_in = 4;
  config.gibbs_samples = 12;
  config.epochs = 5;
  return config;
}

/// One full pipeline run over its own hospital instance. Owns the dataset
/// the session borrows, so sessions stay inspectable after the run.
struct RunInstance {
  explicit RunInstance(const HoloCleanConfig& config)
      : data([] {
          HospitalOptions options;
          options.num_rows = 150;
          return MakeHospital(options);
        }()) {
    auto opened =
        test_helpers::OpenSessionOver(config, &data.dataset, data.dcs);
    EXPECT_TRUE(opened.ok()) << opened.status();
    if (!opened.ok()) return;
    session.emplace(std::move(opened).value());
    auto run = session->Run();
    EXPECT_TRUE(run.ok()) << run.status();
    if (run.ok()) report = run.value();
  }

  GeneratedData data;
  std::optional<Session> session;
  Report report;
};

HoloCleanConfig ThreadConfig(size_t num_threads) {
  HoloCleanConfig c = FactorConfig();
  c.num_threads = num_threads;
  return c;
}

void ExpectReportsBitIdentical(const Report& a, const Report& b) {
  ASSERT_EQ(a.repairs.size(), b.repairs.size());
  for (size_t i = 0; i < a.repairs.size(); ++i) {
    EXPECT_EQ(a.repairs[i].cell, b.repairs[i].cell);
    EXPECT_EQ(a.repairs[i].old_value, b.repairs[i].old_value);
    EXPECT_EQ(a.repairs[i].new_value, b.repairs[i].new_value);
    EXPECT_EQ(a.repairs[i].probability, b.repairs[i].probability);
  }
  ASSERT_EQ(a.posteriors.size(), b.posteriors.size());
  for (size_t i = 0; i < a.posteriors.size(); ++i) {
    EXPECT_EQ(a.posteriors[i].cell, b.posteriors[i].cell);
    EXPECT_EQ(a.posteriors[i].map_value, b.posteriors[i].map_value);
    EXPECT_EQ(a.posteriors[i].map_prob, b.posteriors[i].map_prob);
  }
}

/// Replays the learn and infer stages of a finished run on the reference
/// interpreter — same graph, same initial weights, same seeds — checks the
/// run's weights, per-epoch NLL and marginals against it bit for bit, then
/// installs the reference artifacts and re-runs repair extraction on them.
/// Returns that reference report; the session is left holding the
/// reference artifacts with every stage valid.
Report ReplayOnOracle(Session* session) {
  PipelineContext& ctx = session->context();
  std::vector<double> ref_nll;
  WeightStore ref_weights = oracle::Learn(ctx, &ref_nll);
  Marginals ref_marginals = oracle::Infer(ctx, ref_weights);
  ExpectStoresBitIdentical(ref_weights, ctx.weights);
  ExpectMarginalsBitIdentical(ref_marginals, ctx.marginals);
  // The kernel's per-epoch NLL on the same graph and starting weights.
  WeightStore comp_weights = ctx.InitialWeights();
  std::vector<double> comp_nll =
      SgdLearner(&ctx.graph, ctx.config.ToLearnerOptions())
          .Train(*ctx.compiled, &comp_weights);
  EXPECT_EQ(ref_nll, comp_nll);

  ctx.weights = std::move(ref_weights);
  ctx.marginals = std::move(ref_marginals);
  session->Invalidate(StageId::kRepair);
  auto report = session->Run();
  EXPECT_TRUE(report.ok()) << report.status();
  return report.ok() ? report.value() : Report{};
}

TEST(CompiledKernel, GibbsRepairsBitIdenticalToReference) {
  RunInstance comp(ThreadConfig(/*threads=*/1));
  ASSERT_TRUE(comp.session.has_value());
  EXPECT_FALSE(comp.report.repairs.empty());
  ExpectReportsBitIdentical(ReplayOnOracle(&*comp.session), comp.report);
}

TEST(CompiledKernel, BitIdenticalForAnyThreadCount) {
  RunInstance comp_pool(ThreadConfig(/*threads=*/0));
  ASSERT_TRUE(comp_pool.session.has_value());
  ExpectReportsBitIdentical(ReplayOnOracle(&*comp_pool.session),
                            comp_pool.report);
}

TEST(CompiledKernel, FallbackBoundaryBitIdentical) {
  // Samples the same learned model through compiled graphs built at three
  // violation-table caps; every chain must match the reference chain.
  RunInstance run(ThreadConfig(1));
  ASSERT_TRUE(run.session.has_value());
  const PipelineContext& ctx = run.session->context();
  Marginals ref = oracle::Infer(ctx, ctx.weights);
  ExpectMarginalsBitIdentical(ref, ctx.marginals);

  auto sample_with_cap = [&](size_t cap) {
    CompiledGraphOptions copts;
    copts.violation_table_cap = cap;
    copts.sim_threshold = ctx.config.sim_threshold;
    CompiledGraph compiled = CompiledGraph::Build(
        ctx.graph, ctx.dataset->dirty(), *ctx.dcs, copts);
    GibbsSampler sampler(&ctx.graph, compiled, &ctx.dataset->dirty(),
                         ctx.dcs, &ctx.weights, ctx.config.ToGibbsOptions());
    ExpectMarginalsBitIdentical(ref, sampler.Run());
    return compiled.stats();
  };

  // Cap 0: every factor falls back to the evaluator path.
  CompiledGraph::Stats all_fallback = sample_with_cap(0);
  EXPECT_EQ(all_fallback.num_tabled_factors, 0u);
  EXPECT_GT(all_fallback.num_fallback_factors, 0u);

  // A small cap right at the boundary: some factors tabled, some fall
  // back — both paths must agree inside one sampler run.
  CompiledGraph::Stats mixed = sample_with_cap(16);
  EXPECT_GT(mixed.num_tabled_factors, 0u);

  // Default cap.
  CompiledGraph::Stats tabled = sample_with_cap(4096);
  EXPECT_GT(tabled.table_entries, 0u);
}

TEST(CompiledKernel, ViolationTablesFollowTheConfiguredSimThreshold) {
  // Two-tuple SIM constraint: within a state, similar names must share a
  // city. "Alice" vs "Alicia" is 0.67 similar, so the pairs violate at a
  // 0.6 threshold but not at the 0.8 default — the compiled graph must
  // score them at the configured threshold, the one detection and
  // grounding used.
  Table dirty(Schema({"Name", "City", "State"}),
              std::make_shared<Dictionary>());
  for (int i = 0; i < 3; ++i) dirty.AppendRow({"Alice", "Boston", "MA"});
  for (int i = 0; i < 2; ++i) dirty.AppendRow({"Alicia", "Denver", "MA"});
  for (int i = 0; i < 3; ++i) dirty.AppendRow({"Bob", "Austin", "TX"});
  Dataset dataset(std::move(dirty));
  auto dcs = ParseDenialConstraints(
      "t1&t2&EQ(t1.State,t2.State)&SIM(t1.Name,t2.Name)&"
      "IQ(t1.City,t2.City)",
      dataset.dirty().schema());
  ASSERT_TRUE(dcs.ok()) << dcs.status();

  HoloCleanConfig config;
  config.dc_mode = DcMode::kFactors;
  config.sim_threshold = 0.6;
  config.tau = 0.1;
  config.num_threads = 1;
  auto opened = test_helpers::OpenSessionOver(config, &dataset, dcs.value());
  ASSERT_TRUE(opened.ok()) << opened.status();
  Session session = std::move(opened).value();
  auto run = session.Run();
  ASSERT_TRUE(run.ok()) << run.status();
  ASSERT_FALSE(session.context().graph.dc_factors().empty());
  ASSERT_NE(session.context().compiled, nullptr);
  EXPECT_EQ(session.context().compiled->sim_threshold(), 0.6);
  ExpectReportsBitIdentical(ReplayOnOracle(&session), run.value());
}

TEST(CompiledKernel, ViolationTablesMatchEvaluatorExhaustively) {
  HospitalOptions options;
  options.num_rows = 150;
  GeneratedData fresh = MakeHospital(options);
  auto opened =
      test_helpers::OpenSessionOver(FactorConfig(), &fresh.dataset, fresh.dcs);
  ASSERT_TRUE(opened.ok());
  Session session = std::move(opened).value();
  ASSERT_TRUE(session.RunThrough(StageId::kCompile).ok());

  const FactorGraph& graph = session.context().graph;
  const Table& table = fresh.dataset.dirty();
  CompiledGraph compiled = CompiledGraph::Build(graph, table, fresh.dcs);
  ASSERT_GT(compiled.stats().num_tabled_factors, 0u);

  DcEvaluator evaluator(&table);
  std::vector<CellOverride> overrides;
  size_t checked = 0;
  for (size_t fid = 0; fid < graph.dc_factors().size(); ++fid) {
    if (!compiled.HasViolationTable(static_cast<int>(fid))) continue;
    const DcFactor& factor = graph.dc_factors()[fid];
    // Enumerate every candidate combination through a fake assignment and
    // compare the table verdict with a direct evaluator call.
    std::vector<int> assignment(graph.num_variables(), 0);
    std::vector<size_t> combo(factor.var_ids.size(), 0);
    bool done = factor.var_ids.empty();
    while (!done) {
      overrides.clear();
      for (size_t i = 0; i < factor.var_ids.size(); ++i) {
        const Variable& var = graph.variable(factor.var_ids[i]);
        assignment[static_cast<size_t>(factor.var_ids[i])] =
            static_cast<int>(combo[i]);
        overrides.push_back({var.cell, var.domain[combo[i]]});
      }
      bool expected = evaluator.ViolatesWith(
          fresh.dcs[static_cast<size_t>(factor.dc_index)], factor.t1,
          factor.t2, overrides);
      // Score through the first factor variable; the others read from
      // `assignment`.
      bool got = compiled.TableViolated(
          static_cast<int>(fid), factor.var_ids[0],
          static_cast<int>(combo[0]), assignment);
      ASSERT_EQ(expected, got) << "factor " << fid;
      ++checked;
      for (size_t i = factor.var_ids.size(); i-- > 0;) {
        const Variable& var = graph.variable(factor.var_ids[i]);
        if (++combo[i] < var.NumCandidates()) break;
        combo[i] = 0;
        if (i == 0) done = true;
      }
    }
  }
  EXPECT_GT(checked, 0u);
}

// ---------- Snapshot compatibility ----------

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

struct SnapshotPaths {
  SnapshotPaths() {
    std::string base =
        testing::TempDir() + "holoclean_compiled_test_" +
        testing::UnitTest::GetInstance()->current_test_info()->name();
    ref_path = base + "_ref.snapshot";
    comp_path = base + "_comp.snapshot";
  }
  ~SnapshotPaths() {
    std::remove(ref_path.c_str());
    std::remove(comp_path.c_str());
  }
  std::string ref_path;
  std::string comp_path;
};

/// A run's snapshot is byte-identical to the snapshot of the same session
/// holding the reference interpreter's artifacts: the dense↔sparse weight
/// conversion must not perturb the persisted sparse view in any format
/// version.
void CheckSnapshotBytesIdentical(uint32_t format_version, SectionCodec codec) {
  SnapshotPaths paths;
  HospitalOptions options;
  options.num_rows = 120;

  SnapshotSaveOptions save;
  save.format_version = format_version;
  save.codec = codec;

  GeneratedData data = MakeHospital(options);
  HoloCleanConfig config;
  config.dc_mode = DcMode::kBoth;
  config.partitioning = true;
  config.gibbs_burn_in = 2;
  config.gibbs_samples = 6;
  config.epochs = 3;
  auto session = test_helpers::OpenSessionOver(config, &data.dataset, data.dcs);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.value().Run().ok());
  ASSERT_TRUE(session.value().Save(paths.comp_path, save).ok());
  Report ref_report = ReplayOnOracle(&session.value());
  ASSERT_TRUE(session.value().Save(paths.ref_path, save).ok());

  std::string ref_bytes = ReadFileBytes(paths.ref_path);
  std::string comp_bytes = ReadFileBytes(paths.comp_path);
  ASSERT_FALSE(ref_bytes.empty());
  EXPECT_EQ(ref_bytes, comp_bytes);

  // Cross-restore: the snapshot of the reference artifacts restores into
  // a fresh session and re-runs from infer on the kernel bit-identically.
  GeneratedData fresh = MakeHospital(options);
  auto restored = test_helpers::RestoreSessionOver(config, paths.ref_path,
                                                   &fresh.dataset, fresh.dcs);
  ASSERT_TRUE(restored.ok()) << restored.status();
  Session resumed = std::move(restored).value();
  resumed.Invalidate(StageId::kInfer);
  auto resumed_report = resumed.Run();
  ASSERT_TRUE(resumed_report.ok());
  ExpectReportsBitIdentical(ref_report, resumed_report.value());
}

TEST(CompiledKernel, SnapshotV2PackedBytesIdenticalAcrossKernels) {
  CheckSnapshotBytesIdentical(kSnapshotFormatVersion, SectionCodec::kPacked);
}

TEST(CompiledKernel, SnapshotV1BytesIdenticalAcrossKernels) {
  CheckSnapshotBytesIdentical(kSnapshotFormatV1, SectionCodec::kRaw);
}

// ---------- Parallel build ----------

TEST(CompiledGraph, ParallelBuildByteIdenticalToSequential) {
  // The pool-parallel arena fill and violation-table precompute must
  // produce exactly the bytes the sequential build produces, for any pool
  // size — including across the tabled/fallback boundary.
  HospitalOptions options;
  options.num_rows = 150;
  GeneratedData fresh = MakeHospital(options);
  auto opened =
      test_helpers::OpenSessionOver(FactorConfig(), &fresh.dataset, fresh.dcs);
  ASSERT_TRUE(opened.ok());
  Session session = std::move(opened).value();
  ASSERT_TRUE(session.RunThrough(StageId::kCompile).ok());
  const FactorGraph& graph = session.context().graph;
  const Table& table = fresh.dataset.dirty();

  CompiledGraphOptions copts;
  copts.violation_table_cap = 512;  // Keep some factors on the fallback.
  CompiledGraph sequential =
      CompiledGraph::Build(graph, table, fresh.dcs, copts, nullptr);
  ASSERT_GT(sequential.stats().num_tabled_factors, 0u);

  for (size_t threads : {size_t{2}, size_t{4}}) {
    ThreadPool pool(threads);
    CompiledGraph parallel =
        CompiledGraph::Build(graph, table, fresh.dcs, copts, &pool);

    EXPECT_EQ(parallel.weight_keys(), sequential.weight_keys());
    EXPECT_EQ(parallel.feat_weight(), sequential.feat_weight());
    EXPECT_EQ(parallel.feat_act(), sequential.feat_act());
    EXPECT_EQ(parallel.fov(), sequential.fov());
    EXPECT_EQ(parallel.factor_vars(), sequential.factor_vars());
    EXPECT_EQ(parallel.stats().num_tabled_factors,
              sequential.stats().num_tabled_factors);
    EXPECT_EQ(parallel.stats().num_fallback_factors,
              sequential.stats().num_fallback_factors);
    EXPECT_EQ(parallel.stats().table_entries,
              sequential.stats().table_entries);

    ASSERT_EQ(parallel.num_variables(), sequential.num_variables());
    for (size_t v = 0; v < sequential.num_variables(); ++v) {
      int var = static_cast<int>(v);
      ASSERT_EQ(parallel.NumCandidates(var), sequential.NumCandidates(var));
      EXPECT_EQ(parallel.IsEvidence(var), sequential.IsEvidence(var));
      EXPECT_EQ(parallel.InitIndex(var), sequential.InitIndex(var));
      EXPECT_EQ(parallel.FovBegin(var), sequential.FovBegin(var));
      for (int k = 0; k < sequential.NumCandidates(var); ++k) {
        EXPECT_EQ(parallel.FeatBegin(var, k), sequential.FeatBegin(var, k));
        EXPECT_EQ(parallel.FeatEnd(var, k), sequential.FeatEnd(var, k));
      }
    }

    ASSERT_EQ(parallel.num_factors(), sequential.num_factors());
    std::vector<double> zero(sequential.num_weights(), 0.0);
    for (size_t f = 0; f < sequential.num_factors(); ++f) {
      int fid = static_cast<int>(f);
      EXPECT_DOUBLE_EQ(parallel.FactorWeight(fid),
                       sequential.FactorWeight(fid));
      EXPECT_EQ(parallel.FactorDcIndex(fid), sequential.FactorDcIndex(fid));
      EXPECT_EQ(parallel.FactorT1(fid), sequential.FactorT1(fid));
      EXPECT_EQ(parallel.FactorT2(fid), sequential.FactorT2(fid));
      ASSERT_EQ(parallel.HasViolationTable(fid),
                sequential.HasViolationTable(fid));
      if (!sequential.HasViolationTable(fid)) continue;
      size_t entries = 1;
      for (int32_t i = sequential.FactorVarBegin(fid);
           i < sequential.FactorVarEnd(fid); ++i) {
        entries *= static_cast<size_t>(sequential.NumCandidates(
            sequential.factor_vars()[static_cast<size_t>(i)]));
      }
      EXPECT_EQ(std::memcmp(parallel.ViolationTableEntry(fid, 0),
                            sequential.ViolationTableEntry(fid, 0), entries),
                0);
    }
  }
}

}  // namespace
}  // namespace holoclean
