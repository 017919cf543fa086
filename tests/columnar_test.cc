// Differential tests for the detect/compile scans: every artifact the
// pipeline produces — violations, noisy set, co-occurrence statistics,
// pruned domains, grounded context features, repairs and posteriors — must
// be bit-identical to the row-at-a-time reference in tests/oracle/ run on
// the same inputs, for any seed, dataset, and thread count. Plus the
// ColumnStore invariants the scans rely on and the snapshot back-compat
// contract for the kColumnStore section.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "holoclean/constraints/parser.h"
#include "holoclean/core/engine.h"
#include "holoclean/data/food.h"
#include "holoclean/data/hospital.h"
#include "holoclean/io/binary_io.h"
#include "holoclean/io/session_snapshot.h"
#include "holoclean/model/feature_registry.h"
#include "holoclean/stats/cooccurrence.h"
#include "holoclean/util/hash.h"
#include "holoclean/util/rng.h"
#include "oracle/reference.h"

#include "session_helpers.h"

namespace holoclean {
namespace {

// ---------- Full-pipeline differential ----------

/// One completed run plus the artifacts the differential compares. The
/// session keeps the context alive.
struct PipelineRun {
  std::unique_ptr<GeneratedData> data;
  std::unique_ptr<Session> session;
  Report report;
};

PipelineRun RunOver(std::unique_ptr<GeneratedData> data,
                    const HoloCleanConfig& config) {
  PipelineRun run;
  run.data = std::move(data);
  auto opened = test_helpers::OpenSessionOver(config, &run.data->dataset,
                                              run.data->dcs);
  EXPECT_TRUE(opened.ok());
  run.session = std::make_unique<Session>(std::move(opened).value());
  auto report = run.session->Run();
  EXPECT_TRUE(report.ok());
  run.report = std::move(report).value();
  return run;
}

PipelineRun RunFood(size_t rows, uint64_t seed, size_t threads) {
  HoloCleanConfig config;
  config.tau = 0.5;
  config.num_threads = threads;
  return RunOver(std::make_unique<GeneratedData>(MakeFood({rows, 0.06, seed})),
                 config);
}

PipelineRun RunHospital(size_t rows, uint64_t seed, size_t threads) {
  HospitalOptions options;
  options.num_rows = rows;
  options.seed = seed;
  HoloCleanConfig config;
  config.num_threads = threads;
  return RunOver(std::make_unique<GeneratedData>(MakeHospital(options)),
                 config);
}

void ExpectViolationsIdentical(const std::vector<Violation>& a,
                               const std::vector<Violation>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].dc_index, b[i].dc_index) << "violation " << i;
    EXPECT_EQ(a[i].t1, b[i].t1) << "violation " << i;
    EXPECT_EQ(a[i].t2, b[i].t2) << "violation " << i;
    ASSERT_EQ(a[i].cells.size(), b[i].cells.size()) << "violation " << i;
    for (size_t c = 0; c < a[i].cells.size(); ++c) {
      EXPECT_EQ(a[i].cells[c], b[i].cells[c])
          << "violation " << i << " cell " << c;
    }
  }
}

void ExpectCoocIdentical(const std::vector<AttrId>& attrs,
                         const CooccurrenceStats& a,
                         const oracle::Cooccurrence& ref) {
  EXPECT_EQ(a.num_pair_entries(), ref.num_pair_entries());
  for (AttrId x : attrs) {
    ASSERT_EQ(a.Domain(x), ref.Domain(x)) << "attr " << x;
    for (ValueId v : a.Domain(x)) {
      EXPECT_EQ(a.Count(x, v), ref.Count(x, v));
    }
    for (AttrId y : attrs) {
      if (x == y) continue;
      for (ValueId ctx : a.Domain(y)) {
        ASSERT_EQ(a.CooccurringValues(x, y, ctx),
                  ref.CooccurringValues(x, y, ctx))
            << "attrs (" << x << "," << y << ") ctx " << ctx;
        for (const auto& [v, count] : a.CooccurringValues(x, y, ctx)) {
          EXPECT_EQ(a.PairCount(x, v, y, ctx), count);
          EXPECT_EQ(ref.PairCount(x, v, y, ctx), count);
          EXPECT_EQ(a.CondProb(x, v, y, ctx), ref.CondProb(x, v, y, ctx));
        }
      }
    }
  }
}

/// Each variable's domain is the reference candidate set of its cell, and
/// each candidate's feature list opens with the reference context features
/// — no other co-occurrence or conditional-probability feature follows.
void ExpectContextFeaturesMatch(const PipelineContext& ctx,
                                const oracle::Cooccurrence& cooc,
                                const PrunedDomains& domains) {
  const Table& table = ctx.dataset->dirty();
  const FactorGraph& graph = ctx.graph;
  for (size_t v = 0; v < graph.num_variables(); ++v) {
    const Variable& var = graph.variables()[v];
    EXPECT_EQ(var.domain, domains.For(var.cell)) << "var " << v;
    ASSERT_EQ(var.feat_begin.size(), var.domain.size() + 1) << "var " << v;
    for (size_t k = 0; k < var.domain.size(); ++k) {
      std::vector<FeatureInstance> ref = oracle::ContextFeatures(
          table, ctx.attrs, cooc, var.cell, var.domain[k]);
      const size_t begin = static_cast<size_t>(var.feat_begin[k]);
      const size_t end = static_cast<size_t>(var.feat_begin[k + 1]);
      ASSERT_LE(begin + ref.size(), end) << "var " << v << " candidate " << k;
      for (size_t f = 0; f < ref.size(); ++f) {
        const FeatureInstance& got = var.features[begin + f];
        EXPECT_EQ(got.weight_key, ref[f].weight_key)
            << "var " << v << " candidate " << k << " feature " << f;
        EXPECT_EQ(got.activation, ref[f].activation)
            << "var " << v << " candidate " << k << " feature " << f;
      }
      for (size_t f = begin + ref.size(); f < end; ++f) {
        FeatureKind kind = WeightKeyCodec::Kind(var.features[f].weight_key);
        EXPECT_NE(kind, FeatureKind::kCooccurrence)
            << "var " << v << " candidate " << k << " feature " << f - begin;
        EXPECT_NE(kind, FeatureKind::kCondProb)
            << "var " << v << " candidate " << k << " feature " << f - begin;
      }
    }
  }
}

void ExpectReportsIdentical(const Report& a, const Report& b) {
  ASSERT_EQ(a.repairs.size(), b.repairs.size());
  for (size_t i = 0; i < a.repairs.size(); ++i) {
    const Repair& x = a.repairs[i];
    const Repair& y = b.repairs[i];
    EXPECT_EQ(x.cell, y.cell) << "repair " << i;
    EXPECT_EQ(x.old_value, y.old_value) << "repair " << i;
    EXPECT_EQ(x.new_value, y.new_value) << "repair " << i;
    EXPECT_EQ(x.probability, y.probability) << "repair " << i;
  }
  ASSERT_EQ(a.posteriors.size(), b.posteriors.size());
  for (size_t i = 0; i < a.posteriors.size(); ++i) {
    const CellPosterior& x = a.posteriors[i];
    const CellPosterior& y = b.posteriors[i];
    EXPECT_EQ(x.cell, y.cell) << "posterior " << i;
    EXPECT_EQ(x.old_value, y.old_value) << "posterior " << i;
    EXPECT_EQ(x.map_value, y.map_value) << "posterior " << i;
    EXPECT_EQ(x.map_prob, y.map_prob) << "posterior " << i;
  }
}

/// Replays a finished run on the reference in tests/oracle/ over the run's
/// own inputs (table, constraints, config, evidence sample) and checks
/// every detect/compile artifact against the run's, bit for bit. Then
/// learns and infers on the reference interpreter over the run's graph,
/// re-extracts repairs from that, and checks the report.
void ExpectRunMatchesOracle(PipelineRun* run) {
  PipelineContext& ctx = run->session->context();
  const Table& table = ctx.dataset->dirty();
  const HoloCleanConfig& config = ctx.config;

  ViolationDetector::Options detect_options;
  detect_options.sim_threshold = config.sim_threshold;
  DetectResult detected = oracle::DetectAll(table, *ctx.dcs, detect_options);
  ExpectViolationsIdentical(ctx.violations, detected.violations);
  EXPECT_EQ(run->report.stats.num_truncated_dcs,
            detected.truncated_dcs.size());
  // Noisy set: same cells in the same first-seen order.
  NoisyCells noisy =
      ViolationDetector::NoisyFromViolations(detected.violations);
  ASSERT_EQ(ctx.noisy.size(), noisy.size());
  for (size_t i = 0; i < noisy.cells().size(); ++i) {
    EXPECT_EQ(ctx.noisy.cells()[i], noisy.cells()[i]) << "noisy cell " << i;
  }

  oracle::Cooccurrence cooc = oracle::BuildCooccurrence(table, ctx.attrs);
  ExpectCoocIdentical(ctx.attrs, ctx.cooc, cooc);

  DomainPruningOptions prune_options;
  prune_options.tau = config.tau;
  prune_options.max_candidates = config.max_candidates;
  std::vector<CellRef> cells = noisy.cells();
  cells.insert(cells.end(), ctx.evidence_cells.begin(),
               ctx.evidence_cells.end());
  PrunedDomains domains =
      oracle::PruneDomains(table, cells, ctx.attrs, cooc, prune_options);
  // Unordered_map equality is order-free.
  EXPECT_TRUE(domains.candidates == ctx.domains.candidates);
  ExpectContextFeaturesMatch(ctx, cooc, domains);

  ctx.weights = oracle::Learn(ctx);
  ctx.marginals = oracle::Infer(ctx, ctx.weights);
  run->session->Invalidate(StageId::kRepair);
  auto replayed = run->session->Run();
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  ExpectReportsIdentical(run->report, replayed.value());
}

TEST(ColumnarPipeline, BitIdenticalToRowPathAcrossSeeds) {
  for (uint64_t seed : {11u, 12u}) {
    PipelineRun run = RunFood(400, seed, /*threads=*/1);
    ExpectRunMatchesOracle(&run);
  }
}

TEST(ColumnarPipeline, BitIdenticalAcrossThreadCounts) {
  // The scans parallelize per-DC detection, co-occurrence counting, and
  // domain pruning across the pool; the output must not depend on the
  // pool size (the reference runs single-threaded).
  for (size_t threads : {size_t{1}, size_t{4}}) {
    PipelineRun run = RunFood(400, 21, threads);
    ExpectRunMatchesOracle(&run);
  }
}

TEST(ColumnarPipeline, BitIdenticalOnHospitalProfile) {
  // A second data profile: few distinct values per column with heavy
  // duplication — the opposite dictionary shape from Food.
  PipelineRun run = RunHospital(150, 101, /*threads=*/4);
  ExpectRunMatchesOracle(&run);
}

// ---------- Co-occurrence differential ----------

Table RandomTable(size_t rows, size_t attrs, uint64_t seed,
                  size_t distinct_per_attr) {
  std::vector<std::string> names;
  for (size_t a = 0; a < attrs; ++a) names.push_back("A" + std::to_string(a));
  Table t(Schema(names), std::make_shared<Dictionary>());
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    std::vector<std::string> row;
    for (size_t a = 0; a < attrs; ++a) {
      // ~10% NULLs so the skip-null rule is exercised.
      if (rng.Next() % 10 == 0) {
        row.push_back("");
      } else {
        row.push_back("v" + std::to_string(rng.Next() % distinct_per_attr));
      }
    }
    t.AppendRow(row);
  }
  return t;
}

TEST(ColumnarCooccurrence, BuildColumnarMatchesBuildOnRandomTables) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Table t = RandomTable(300, 4, seed, 12);
    std::vector<AttrId> attrs = {0, 1, 2, 3};
    oracle::Cooccurrence ref = oracle::BuildCooccurrence(t, attrs);
    ExpectCoocIdentical(attrs, CooccurrenceStats::BuildColumnar(t, attrs),
                        ref);
    ThreadPool pool(4);
    ExpectCoocIdentical(
        attrs, CooccurrenceStats::BuildColumnar(t, attrs, &pool), ref);
  }
}

TEST(ColumnarCooccurrence, MatchesAfterCellMutations) {
  // Set() rewrites codes, counts, and the decoded mirror together; the
  // counting pass must see the post-mutation state.
  Table t = RandomTable(120, 3, 9, 8);
  Rng rng(77);
  for (int i = 0; i < 40; ++i) {
    TupleId tid = static_cast<TupleId>(rng.Next() % t.num_rows());
    AttrId attr = static_cast<AttrId>(rng.Next() % 3);
    t.SetString(tid, attr, "w" + std::to_string(rng.Next() % 5));
  }
  std::vector<AttrId> attrs = {0, 1, 2};
  ExpectCoocIdentical(attrs, CooccurrenceStats::BuildColumnar(t, attrs),
                      oracle::BuildCooccurrence(t, attrs));
}

// ---------- Detection fallback / truncation differential ----------

TEST(ColumnarDetect, TruncationDifferentialAndFlag) {
  // A constraint with no equality predicate falls back to the capped
  // brute-force pair scan. The scan and the reference must truncate at
  // the same point, report the same truncated set, and emit identical
  // violations.
  Table t(Schema({"Name", "Score"}), std::make_shared<Dictionary>());
  Rng rng(5);
  for (int i = 0; i < 60; ++i) {
    t.AppendRow({"n" + std::to_string(i),
                 std::to_string(rng.Next() % 40)});
  }
  auto dcs = ParseDenialConstraints(
      "t1&t2&GT(t1.Score,t2.Score)\n"
      "t1&t2&EQ(t1.Name,t2.Name)&IQ(t1.Score,t2.Score)\n",
      t.schema());
  ASSERT_TRUE(dcs.ok());

  ViolationDetector::Options options;
  options.max_fallback_pairs = 500;  // 60 rows -> 1770 pairs: truncates.
  DetectResult scan = ViolationDetector(&t, &dcs.value(), options).DetectAll();
  DetectResult ref = oracle::DetectAll(t, dcs.value(), options);

  ASSERT_EQ(scan.truncated_dcs, std::vector<int>{0});
  ASSERT_EQ(ref.truncated_dcs, std::vector<int>{0});
  ExpectViolationsIdentical(scan.violations, ref.violations);

  // A budget that covers the full scan reports no truncation.
  options.max_fallback_pairs = 4'000'000;
  DetectResult full = ViolationDetector(&t, &dcs.value(), options).DetectAll();
  EXPECT_TRUE(full.truncated_dcs.empty());
  EXPECT_GT(full.violations.size(), scan.violations.size());
  ExpectViolationsIdentical(full.violations,
                            oracle::DetectAll(t, dcs.value(), options)
                                .violations);
}

TEST(ColumnarDetect, RunStatsDefaultUntruncated) {
  // The session surfaces truncation in RunStats; the default budget is
  // far above these sizes, so the flag must stay clear.
  PipelineRun run = RunFood(200, 4, /*threads=*/1);
  EXPECT_FALSE(run.report.stats.detect_truncated);
  EXPECT_EQ(run.report.stats.num_truncated_dcs, 0u);
}

// ---------- ColumnStore invariants ----------

TEST(ColumnStore, FromCsvDictionariesSortedAndCountsExact) {
  CsvDocument doc;
  doc.header = {"City", "Zip"};
  doc.rows = {{"Chicago", "60608"}, {"Evanston", "60201"},
              {"Chicago", "60608"}, {"", "60609"},
              {"Aurora", "60506"},  {"Chicago", ""}};
  auto table = Table::FromCsv(doc);
  ASSERT_TRUE(table.ok());
  const Table& t = table.value();
  const ColumnStore& store = t.store();
  ASSERT_EQ(store.num_attrs(), 2u);
  ASSERT_EQ(store.num_rows(), 6u);

  for (size_t a = 0; a < 2; ++a) {
    const ColumnStore::Column& col = store.column(a);
    // Code 0 is NULL; the bulk load leaves the whole dictionary sorted.
    ASSERT_GE(col.code_to_value.size(), 1u);
    EXPECT_EQ(col.code_to_value[0], Dictionary::kNull);
    EXPECT_EQ(col.sorted_prefix, col.code_to_value.size());
    for (size_t c = 2; c < col.code_to_value.size(); ++c) {
      EXPECT_LT(t.dict().GetString(col.code_to_value[c - 1]),
                t.dict().GetString(col.code_to_value[c]))
          << "column " << a << " codes " << c - 1 << "," << c;
    }
    // The decoded mirror matches codes -> code_to_value, and counts are
    // exact occurrence counts.
    ASSERT_EQ(col.codes.size(), store.num_rows());
    ASSERT_EQ(col.values.size(), store.num_rows());
    std::vector<uint32_t> counts(col.code_to_value.size(), 0);
    for (size_t r = 0; r < col.codes.size(); ++r) {
      Code code = col.codes[r];
      ASSERT_GE(code, 0);
      ASSERT_LT(static_cast<size_t>(code), col.code_to_value.size());
      EXPECT_EQ(col.values[r], col.code_to_value[static_cast<size_t>(code)]);
      counts[static_cast<size_t>(code)]++;
    }
    EXPECT_EQ(counts, col.code_counts);
  }
  // City has 3 distinct non-null values; the active domain is ascending.
  std::vector<ValueId> dom = store.ActiveDomain(0);
  EXPECT_EQ(dom.size(), 3u);
  EXPECT_TRUE(std::is_sorted(dom.begin(), dom.end()));
}

TEST(ColumnStore, SetKeepsCodesCountsAndMirrorInSync) {
  Table t = RandomTable(50, 2, 13, 6);
  const ColumnStore& store = t.store();
  // Overwrite with a mix of existing values, fresh values (unsorted
  // dictionary tail), and NULL.
  t.SetString(0, 0, "zzz-new");
  t.SetString(1, 0, "v0");
  t.Set(2, 0, Dictionary::kNull);
  const ColumnStore::Column& col = store.column(0);
  EXPECT_EQ(t.GetString(0, 0), "zzz-new");
  EXPECT_EQ(t.GetString(1, 0), "v0");
  EXPECT_EQ(t.Get(2, 0), Dictionary::kNull);
  // The fresh value landed past the sorted prefix.
  EXPECT_LT(col.sorted_prefix, col.code_to_value.size());
  std::vector<uint32_t> counts(col.code_to_value.size(), 0);
  for (size_t r = 0; r < col.codes.size(); ++r) {
    EXPECT_EQ(col.values[r],
              col.code_to_value[static_cast<size_t>(col.codes[r])]);
    counts[static_cast<size_t>(col.codes[r])]++;
  }
  EXPECT_EQ(counts, col.code_counts);
}

// ---------- Snapshot back-compat: v2 without the kColumnStore section ----

struct SnapshotBackCompatFixture {
  SnapshotBackCompatFixture()
      : dataset(MakeDirty()), config() {
    auto parsed = ParseDenialConstraints(
        "t1&t2&EQ(t1.Name,t2.Name)&IQ(t1.Zip,t2.Zip)\n", schema());
    EXPECT_TRUE(parsed.ok());
    dcs = parsed.value();
    config.gibbs_burn_in = 10;
    config.gibbs_samples = 40;
    path = testing::TempDir() + "holoclean_columnar_test_" +
           testing::UnitTest::GetInstance()->current_test_info()->name() +
           ".snapshot";
  }
  ~SnapshotBackCompatFixture() { std::remove(path.c_str()); }

  static Dataset MakeDirty() {
    Table dirty(Schema({"Name", "Zip", "City"}),
                std::make_shared<Dictionary>());
    for (int i = 0; i < 5; ++i) dirty.AppendRow({"a", "60608", "Chicago"});
    for (int i = 0; i < 5; ++i) dirty.AppendRow({"b", "60201", "Evanston"});
    dirty.AppendRow({"a", "60609", "Chicago"});
    return Dataset(std::move(dirty));
  }
  static Schema schema() { return Schema({"Name", "Zip", "City"}); }

  Dataset dataset;
  std::vector<DenialConstraint> dcs;
  HoloCleanConfig config;
  std::string path;
};

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Rewrites a v2 snapshot to drop its trailing kColumnStore section —
/// producing exactly the byte layout a pre-columnar writer emitted — and
/// fixes up the header's directory offset, the directory, and the trailing
/// directory checksum.
std::string DropColumnStoreSection(const std::string& bytes) {
  constexpr size_t kHeaderBytes = 16;
  constexpr size_t kChecksumBytes = 8;
  constexpr size_t kDirEntryBytes = 32;

  BinaryReader header(
      std::string_view(bytes).substr(4, kHeaderBytes - 4));
  uint32_t version = 0;
  uint64_t dir_offset = 0;
  EXPECT_TRUE(header.ReadU32(&version).ok());
  EXPECT_TRUE(header.ReadU64(&dir_offset).ok());
  EXPECT_EQ(version, kSnapshotFormatVersion);

  std::string_view dir_bytes = std::string_view(bytes).substr(
      dir_offset, bytes.size() - dir_offset - kChecksumBytes);
  BinaryReader dir(dir_bytes);
  uint64_t count = 0;
  EXPECT_TRUE(dir.ReadU64(&count).ok());
  EXPECT_GE(count, 2u);

  // The last directory entry must be the kColumnStore section (id 9).
  std::string_view last_entry = dir_bytes.substr(
      8 + (count - 1) * kDirEntryBytes, kDirEntryBytes);
  BinaryReader last(last_entry);
  uint32_t last_id = 0, last_codec = 0;
  uint64_t last_offset = 0, last_size = 0;
  EXPECT_TRUE(last.ReadU32(&last_id).ok());
  EXPECT_TRUE(last.ReadU32(&last_codec).ok());
  EXPECT_TRUE(last.ReadU64(&last_offset).ok());
  EXPECT_TRUE(last.ReadU64(&last_size).ok());
  EXPECT_EQ(last_id, 9u);  // SectionId::kColumnStore.
  EXPECT_EQ(last_offset + last_size, dir_offset);

  // New directory: one fewer entry, earlier offsets unchanged (the dropped
  // section was last).
  BinaryWriter new_dir;
  new_dir.WriteU64(count - 1);
  new_dir.WriteBytes(dir_bytes.substr(8, (count - 1) * kDirEntryBytes));

  BinaryWriter new_header;
  new_header.WriteBytes(std::string_view(bytes).substr(0, 8));
  new_header.WriteU64(last_offset);  // Directory moves up by last_size.
  BinaryWriter trailer;
  trailer.WriteU64(HashBytes(new_dir.buffer()));

  std::string out;
  out += new_header.buffer();
  out += bytes.substr(kHeaderBytes, last_offset - kHeaderBytes);
  out += new_dir.buffer();
  out += trailer.buffer();
  return out;
}

TEST(ColumnarSnapshot, V2WithoutColumnStoreSectionStillRestores) {
  SnapshotBackCompatFixture f;
  auto opened = test_helpers::OpenSessionOver(f.config, &f.dataset, f.dcs);
  ASSERT_TRUE(opened.ok());
  Session session = std::move(opened).value();
  auto report = session.Run();
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(session.Save(f.path).ok());

  // Strip the kColumnStore section, emulating a snapshot written before
  // the columnar format extension.
  std::string original = ReadFileBytes(f.path);
  std::string stripped = DropColumnStoreSection(original);
  ASSERT_LT(stripped.size(), original.size());
  {
    std::ofstream out(f.path, std::ios::binary | std::ios::trunc);
    out.write(stripped.data(), static_cast<std::streamsize>(stripped.size()));
  }

  // The stripped file restores through the per-cell path and yields the
  // same table contents and repairs as the original run.
  SnapshotBackCompatFixture fresh;
  auto restored = test_helpers::RestoreSessionOver(f.config, f.path, &fresh.dataset, fresh.dcs);
  ASSERT_TRUE(restored.ok()) << restored.status();
  Session resumed = std::move(restored).value();
  EXPECT_TRUE(resumed.StageIsValid(StageId::kRepair));

  const Table& a = f.dataset.dirty();
  const Table& b = fresh.dataset.dirty();
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t t = 0; t < a.num_rows(); ++t) {
    for (size_t c = 0; c < a.schema().num_attrs(); ++c) {
      EXPECT_EQ(a.GetString(static_cast<TupleId>(t), static_cast<AttrId>(c)),
                b.GetString(static_cast<TupleId>(t), static_cast<AttrId>(c)));
    }
  }
  const std::vector<Repair>& ra = report.value().repairs;
  const std::vector<Repair>& rb = resumed.report().repairs;
  ASSERT_EQ(ra.size(), rb.size());
  for (size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].cell, rb[i].cell);
    EXPECT_EQ(ra[i].old_value, rb[i].old_value);
    EXPECT_EQ(ra[i].new_value, rb[i].new_value);
    EXPECT_EQ(ra[i].probability, rb[i].probability);
  }
}

TEST(ColumnarSnapshot, RoundTripInstallsIdenticalColumns) {
  // A snapshot WITH the section restores via InstallColumns; the resulting
  // store must match the save-time store exactly (codes, dictionaries,
  // counts, mirror, sorted prefixes).
  SnapshotBackCompatFixture f;
  auto opened = test_helpers::OpenSessionOver(f.config, &f.dataset, f.dcs);
  ASSERT_TRUE(opened.ok());
  Session session = std::move(opened).value();
  ASSERT_TRUE(session.Run().ok());
  ASSERT_TRUE(session.Save(f.path).ok());

  SnapshotBackCompatFixture fresh;
  auto restored = test_helpers::RestoreSessionOver(f.config, f.path, &fresh.dataset, fresh.dcs);
  ASSERT_TRUE(restored.ok()) << restored.status();

  const ColumnStore& a = f.dataset.dirty().store();
  const ColumnStore& b = fresh.dataset.dirty().store();
  ASSERT_EQ(a.num_attrs(), b.num_attrs());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t c = 0; c < a.num_attrs(); ++c) {
    const ColumnStore::Column& x = a.column(c);
    const ColumnStore::Column& y = b.column(c);
    EXPECT_EQ(x.codes, y.codes) << "column " << c;
    EXPECT_EQ(x.code_to_value, y.code_to_value) << "column " << c;
    EXPECT_EQ(x.code_counts, y.code_counts) << "column " << c;
    EXPECT_EQ(x.values, y.values) << "column " << c;
    EXPECT_EQ(x.sorted_prefix, y.sorted_prefix) << "column " << c;
  }
}

}  // namespace
}  // namespace holoclean
