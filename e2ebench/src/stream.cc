// stream-warm: StreamSession in warm mode over a Food base table,
// appending 64-row batches of held-back generated rows past the compaction
// threshold twice, then a few warm batches more. The program sees only the
// dirty rows; the benchmark scores the repairs against the clean rows.

#include <cmath>
#include <memory>
#include <set>
#include <tuple>

#include "checks.h"
#include "clean.h"
#include "holoclean/stream/stream_session.h"
#include "trace.h"
#include "workloads.h"

namespace e2ebench {

namespace {

inline constexpr size_t kBaseRows = 1000;
inline constexpr size_t kBatchRows = 64;
/// With the default threshold (half the rows at the last full compile)
/// batches 8 and 20 compact (ExpectedResyncs); the last three stay warm.
inline constexpr size_t kBatches = 23;
/// Largest F1 gap to a from-scratch clean of the final table that warm
/// maintenance may open (stated in the README).
inline constexpr double kF1Bound = 0.02;

std::string GrownCsv(const DatasetText& text, size_t appended,
                     bool clean) {
  TextTable table;
  ReadTextTable(clean ? text.clean_csv : text.dirty_csv, &table);
  const auto& tail = clean ? text.tail_clean : text.tail_dirty;
  for (size_t i = 0; i < appended; ++i) table.rows.push_back(tail[i]);
  return holoclean::WriteCsv({table.header, table.rows});
}

using ViolationKey = std::tuple<int, int64_t, int64_t>;

/// The stream's detect artifacts equal a from-scratch detect of the grown
/// table.
void CheckDetect(const DatasetText& text, size_t appended,
                 const holoclean::PipelineContext& stream_ctx,
                 Verdict* verdict) {
  std::string csv = GrownCsv(text, appended, false);
  holoclean::Result<ParsedInputs> parsed = ParseInputs(text, &csv);
  if (!parsed.ok()) {
    verdict->Fail("stream: grown table does not parse");
    return;
  }
  holoclean::SessionOptions options;
  options.config = stream_ctx.config;
  holoclean::Result<holoclean::Session> session =
      holoclean::OpenStandaloneSession(
          holoclean::CleaningInputs::Owned(parsed.value().dataset,
                                           parsed.value().dcs),
          options);
  if (!session.ok() ||
      !session.value().RunThrough(holoclean::StageId::kDetect).ok()) {
    verdict->Fail("stream: from-scratch detect failed");
    return;
  }
  const holoclean::PipelineContext& ctx = session.value().context();
  auto keys = [](const std::vector<holoclean::Violation>& vs) {
    std::vector<ViolationKey> out;
    for (const holoclean::Violation& v : vs) {
      out.emplace_back(v.dc_index, v.t1, v.t2);
    }
    return out;
  };
  if (keys(ctx.violations) != keys(stream_ctx.violations)) {
    verdict->Fail("stream: violations differ from a from-scratch detect "
                  "after " + std::to_string(appended) + " rows");
  }
  std::set<holoclean::CellRef> a(ctx.noisy.cells().begin(),
                                 ctx.noisy.cells().end());
  std::set<holoclean::CellRef> b(stream_ctx.noisy.cells().begin(),
                                 stream_ctx.noisy.cells().end());
  if (a != b) {
    verdict->Fail("stream: noisy set differs from a from-scratch detect "
                  "after " + std::to_string(appended) + " rows");
  }
}

/// A traced, from-scratch clean of the grown table.
holoclean::Status ScratchClean(const DatasetText& text, size_t appended,
                               const holoclean::HoloCleanConfig& config,
                               const Options& options, CleanResult* out) {
  std::string csv = GrownCsv(text, appended, false);
  CleanRequest request;
  request.text = &text;
  request.csv = &csv;
  request.config = config;
  request.write_csv = false;
  request.snapshot_path = options.out_dir + "/stream.snapshot";
  ScopedSpan span("check.clean");
  return StagedClean(request, out);
}

/// The batches (1-based) that must end in a resync: the stream compacts
/// once the rows appended since the last full compile reach
/// compact_threshold of the rows at that compile.
std::vector<size_t> ExpectedResyncs() {
  const double threshold = holoclean::StreamOptions().compact_threshold;
  std::vector<size_t> out;
  size_t rows_at_compile = kBaseRows;
  size_t since = 0;
  for (size_t b = 1; b <= kBatches; ++b) {
    since += kBatchRows;
    if (static_cast<double>(since) >=
        threshold * static_cast<double>(rows_at_compile)) {
      out.push_back(b);
      rows_at_compile = kBaseRows + b * kBatchRows;
      since = 0;
    }
  }
  return out;
}

bool SameRepairs(const std::vector<TextRepair>& a,
                 const std::vector<TextRepair>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].tid != b[i].tid || a[i].attr != b[i].attr ||
        a[i].new_value != b[i].new_value ||
        a[i].probability != b[i].probability) {
      return false;
    }
  }
  return true;
}

}  // namespace

Outcome RunStream(const Options& options) {
  Tracer& tracer = Tracer::Get();
  const bool traced = tracer.enabled();
  Outcome outcome;
  outcome.op_seconds.resize(1);
  Verdict verdict;
  DatasetText text;
  holoclean::HoloCleanConfig config;
  const std::vector<size_t> expected_resyncs = ExpectedResyncs();
  const Clock::time_point run_start = Clock::now();
  for (size_t round = 0;; ++round) {
    // After the timed rounds, one more round runs untimed and untraced,
    // with the output checks after each batch; peak memory is read
    // before it.
    const bool check = DoneRounds(outcome, options.seconds, run_start);
    if (check) {
      outcome.peak_rss_mib = PeakRssMib();
      tracer.Enable(false);
    } else {
      tracer.BeginGroup("round " + std::to_string(round));
    }
    // Set-up: inputs, an engine, the base clean and the stream over it.
    Clock::time_point setup_start = Clock::now();
    std::unique_ptr<holoclean::Engine> engine;
    CleanResult base;
    holoclean::Status st;
    {
      ScopedSpan span("setup");
      text = GenerateDataset("food", kBaseRows, kBatches * kBatchRows,
                             Mix(options.seed, 500));
      text.dict_csv.clear();
      text.md_text.clear();
      config = DatasetConfig(text, holoclean::DcMode::kFeatures, false,
                             options.seed);
      holoclean::EngineOptions engine_options;
      engine_options.num_threads = kThreads;
      engine_options.session_cache_capacity = 0;
      engine = std::make_unique<holoclean::Engine>(engine_options);
      CleanRequest request;
      request.text = &text;
      request.config = config;
      request.engine = engine.get();
      request.write_csv = false;
      request.snapshot_path = options.out_dir + "/stream.snapshot";
      st = StagedClean(request, &base);
    }
    if (!check) {
      outcome.setup_seconds.push_back(SecondsSince(setup_start) -
                                      base.extra_seconds);
      outcome.extra_seconds += base.extra_seconds;
    }
    if (!st.ok()) {
      verdict.Fail("stream base clean failed: " + st.ToString());
      break;
    }
    holoclean::StreamOptions stream_options;
    stream_options.mode = holoclean::StreamMode::kWarm;
    holoclean::StreamSession stream(&*base.session, stream_options);

    double measured = 0.0;
    std::vector<size_t> resyncs;
    size_t warm_query_vars = 0;
    holoclean::Report report;
    ScopedSpan round_span("round");
    for (size_t b = 0; b < kBatches; ++b) {
      std::vector<std::vector<std::string>> rows(
          text.tail_dirty.begin() + static_cast<ptrdiff_t>(b * kBatchRows),
          text.tail_dirty.begin() +
              static_cast<ptrdiff_t>((b + 1) * kBatchRows));
      if (!check) ++outcome.attempted;
      Clock::time_point start = Clock::now();
      holoclean::Result<holoclean::Report> appended = [&] {
        ScopedSpan span("stream.append");
        return stream.AppendRows(rows);
      }();
      double seconds = SecondsSince(start);
      if (!appended.ok()) {
        if (check) {
          verdict.Fail("stream: append failed in the check round");
        } else {
          ++outcome.failed;
        }
        Log("stream: append failed: %s",
            appended.status().ToString().c_str());
        continue;
      }
      if (!check) {
        measured += seconds;
        outcome.op_seconds[0].push_back(seconds);
      }
      report = std::move(appended).value();
      const holoclean::StreamBatchStats& batch = stream.stats().last_batch;
      tracer.Count("stream.resyncs", batch.resync ? 1 : 0);
      tracer.Count("stream.new_query_vars",
                   static_cast<double>(batch.new_query_vars));
      if (batch.resync) {
        resyncs.push_back(b + 1);
      } else {
        warm_query_vars += batch.new_query_vars;
      }
      if (!check) continue;
      // Output checks, outside the timed rounds.
      const size_t grown = (b + 1) * kBatchRows;
      const holoclean::PipelineContext& ctx = base.session->context();
      CheckDetect(text, grown, ctx, &verdict);
      if (batch.resync) {
        CleanResult scratch;
        holoclean::Status sst =
            ScratchClean(text, grown, config, options, &scratch);
        if (!sst.ok() ||
            !SameRepairs(RepairsAsText(ctx.dataset->dirty(), report.repairs),
                         RepairsAsText(scratch.inputs.dataset->dirty(),
                                       scratch.report.repairs))) {
          verdict.Fail("stream: repairs after a compaction differ from a "
                       "from-scratch clean");
        }
      }
    }
    // Every round must take the warm path: resyncs only where the
    // compaction threshold puts them, and warm batches that ground new
    // query variables.
    if (resyncs != expected_resyncs ||
        stream.stats().compactions != expected_resyncs.size()) {
      verdict.Fail("stream: resyncs at other batches than the compaction "
                   "threshold gives");
    }
    if (warm_query_vars == 0) {
      verdict.Fail("stream: no warm batch grounded a new query variable");
    }
    if (!check) {
      outcome.round_seconds.push_back(measured);
      continue;
    }
    // Final quality against the clean rows, and against a from-scratch
    // clean of the final table.
    const size_t grown = kBatches * kBatchRows;
    const holoclean::Table& dirty = base.session->context().dataset->dirty();
    std::string dirty_csv = GrownCsv(text, grown, false);
    std::string clean_csv = GrownCsv(text, grown, true);
    std::vector<TextRepair> repairs = RepairsAsText(dirty, report.repairs);
    Quality quality = ScoreRepairs(dirty_csv, clean_csv, repairs);
    outcome.f1 = quality.f1;
    CheckViolations(dirty_csv, text.dc_text,
                    ViolationPairs(base.session->context().violations), 200,
                    24, options.seed, &verdict);
    CleanResult scratch;
    if (!ScratchClean(text, grown, config, options, &scratch).ok()) {
      verdict.Fail("stream: final from-scratch clean failed");
    } else {
      Quality reference = ScoreRepairs(
          dirty_csv, clean_csv,
          RepairsAsText(scratch.inputs.dataset->dirty(),
                        scratch.report.repairs));
      Log("stream: warm F1 %.4f, from-scratch F1 %.4f", quality.f1,
          reference.f1);
      if (std::abs(quality.f1 - reference.f1) > kF1Bound) {
        verdict.Fail("stream: warm F1 strays beyond the bound");
      }
    }
    break;
  }
  tracer.Enable(traced);
  outcome.correct = verdict.ok();
  return outcome;
}

}  // namespace e2ebench
