// holoclean — command-line data repairing.
//
// Reads a dirty CSV table and a denial-constraint file, optionally an
// external dictionary CSV with matching dependencies, runs the HoloClean
// pipeline, and writes the repaired table plus a per-repair report.
//
//   holoclean --data dirty.csv --constraints dcs.txt
//             [--dict listing.csv --mds mds.txt]
//             [--output repaired.csv] [--repairs repairs.csv]
//             [--ground-truth clean.csv]
//             [--tau 0.5] [--mode feats|factors|both] [--partitioning]
//             [--min-confidence 0.0] [--seed 42] [--threads 0]
//             [--stages detect,compile] [--rerun-from infer]
//   holoclean --batch manifest.txt [--threads 0] [shared config flags]
//   holoclean --data growing.csv --constraints dcs.txt --follow
//             [--follow-batch-rows 64] [--follow-poll-ms 500]
//             [--follow-max-batches N] [--follow-idle-polls N]
//             [--follow-mode warm|exact]
//
// Constraint file: one denial constraint per line, e.g.
//   t1&t2&EQ(t1.Zip,t2.Zip)&IQ(t1.City,t2.City)
// Matching-dependency file: one per line, e.g.
//   m1: dict=0 Zip=Ext_Zip -> City=Ext_City
// Batch manifest: one dataset per line,
//   dirty.csv,dcs.txt[,repaired.csv[,repairs.csv]]
// ('#' starts a comment). All jobs run concurrently through one Engine
// over a shared worker pool, each with the CLI's configuration.

#include <chrono>
#include <climits>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "holoclean/constraints/parser.h"
#include "holoclean/core/engine.h"
#include "holoclean/core/evaluation.h"
#include "holoclean/discovery/fd_discovery.h"
#include "holoclean/io/report_json.h"
#include "holoclean/extdata/md_parser.h"
#include "holoclean/stream/stream_session.h"
#include "holoclean/util/csv.h"
#include "holoclean/util/string_util.h"
#include "holoclean/util/timer.h"

namespace holoclean {
namespace {

struct CliOptions {
  std::string data_path;
  /// Batch mode: a manifest of datasets run concurrently through one
  /// Engine (--batch). Mutually exclusive with --data.
  std::string batch_path;
  std::string constraints_path;
  std::string dict_path;
  std::string mds_path;
  std::string output_path;
  std::string repairs_path;
  /// Stable machine-readable report (io/report_json schema): the full
  /// report in single-run mode, a per-job status array in batch mode.
  std::string report_json_path;
  std::string ground_truth_path;
  double min_confidence = 0.0;
  bool discover = false;
  double discover_max_error = 0.1;
  /// Deepest stage to run (prefix execution on the staged session);
  /// parsed from the comma-separated --stages list at argument time so a
  /// typo fails before any data loads.
  StageId last_stage = StageId::kRepair;
  /// Stage to invalidate for the incremental re-run demo (--rerun-from),
  /// as an int to allow the "unset" sentinel; -1 = none.
  int rerun_from = -1;
  /// Snapshot to write after the run (--save-session) and to restore the
  /// session from instead of a cold start (--load-session).
  std::string save_session_path;
  std::string load_session_path;
  /// Section codec for --save-session (--snapshot-codec raw|packed).
  SnapshotSaveOptions save_options;
  /// --mmap-restore: map the snapshot and defer the factor-graph section
  /// to first stage access instead of parsing it at restore time.
  SnapshotLoadOptions load_options;
  /// True when --stages, --rerun-from, or the session-snapshot flags drive
  /// the staged session path.
  bool use_session = false;
  /// Streaming ingestion (--follow): after the initial clean, keep polling
  /// --data for appended rows and incrementally re-clean each batch.
  bool follow = false;
  size_t follow_batch_rows = 64;
  int follow_poll_ms = 500;
  /// Stop conditions so scripted runs terminate: after this many batches
  /// (0 = unlimited) or this many consecutive empty polls (0 = forever).
  int follow_max_batches = 0;
  int follow_idle_polls = 0;
  StreamMode follow_mode = StreamMode::kWarm;
  HoloCleanConfig config;
  bool show_help = false;
};

/// The last (deepest) stage named in a comma-separated list.
Result<StageId> ParseStagesFlag(const std::string& list) {
  StageId last = StageId::kDetect;
  size_t begin = 0;
  while (begin <= list.size()) {
    size_t end = list.find(',', begin);
    if (end == std::string::npos) end = list.size();
    HOLO_ASSIGN_OR_RETURN(id, ParseStageName(list.substr(begin, end - begin)));
    if (static_cast<int>(id) > static_cast<int>(last)) last = id;
    if (end == list.size()) break;
    begin = end + 1;
  }
  return last;
}

void PrintUsage() {
  std::printf(
      "usage: holoclean --data FILE --constraints FILE [options]\n"
      "       holoclean --batch MANIFEST [options]\n"
      "  --data FILE           dirty table (CSV with header)\n"
      "  --batch FILE          manifest of jobs, one per line:\n"
      "                        data.csv,dcs.txt[,output.csv[,repairs.csv]];\n"
      "                        all jobs run concurrently through one Engine\n"
      "                        (shared worker pool), each with this CLI\n"
      "                        configuration\n"
      "  --constraints FILE    denial constraints, one per line\n"
      "  --discover            discover approximate FDs as constraints\n"
      "  --discover-max-error E  discovery error budget (default 0.1)\n"
      "  --dict FILE           external dictionary (CSV)\n"
      "  --mds FILE            matching dependencies, one per line\n"
      "  --output FILE         write the repaired table (CSV)\n"
      "  --repairs FILE        write the repair report (CSV)\n"
      "  --report-json FILE    write the stable JSON report (the same\n"
      "                        schema the serve tier returns); in batch\n"
      "                        mode, a per-job status array\n"
      "  --ground-truth FILE   clean table for precision/recall scoring\n"
      "  --tau X               domain-pruning threshold (default 0.5)\n"
      "  --mode M              feats | factors | both (default feats)\n"
      "  --partitioning        ground DC factors within conflict groups\n"
      "  --min-confidence P    only apply repairs with marginal >= P\n"
      "  --seed N              master random seed (default 42)\n"
      "  --threads N           worker threads (0 = all cores)\n"
      "  --stages LIST         run only through the last stage named in the\n"
      "                        comma-separated LIST (detect, compile, learn,\n"
      "                        infer, repair)\n"
      "  --rerun-from STAGE    after the run, invalidate from STAGE and run\n"
      "                        again incrementally (cached stages are skipped)\n"
      "  --save-session FILE   after the run, serialize the session's cached\n"
      "                        stage artifacts into a snapshot file\n"
      "  --load-session FILE   restore the session from a snapshot saved by\n"
      "                        --save-session (same data, constraints, and\n"
      "                        config) instead of starting cold; restored\n"
      "                        stages are reused like an in-process rerun\n"
      "  --snapshot-codec C    section codec for --save-session: packed\n"
      "                        (varint/delta/RLE streams, the default) or\n"
      "                        raw (fixed-width)\n"
      "  --mmap-restore        mmap the --load-session snapshot and defer\n"
      "                        the factor-graph section to first stage\n"
      "                        access instead of parsing it up front\n"
      "  --follow              after the initial clean, keep polling --data\n"
      "                        for appended rows and incrementally re-clean\n"
      "                        each batch (streaming ingestion)\n"
      "  --follow-batch-rows N max rows ingested per batch (default 64)\n"
      "  --follow-poll-ms N    poll interval in milliseconds (default 500)\n"
      "  --follow-max-batches N  stop after N batches (0 = unlimited)\n"
      "  --follow-idle-polls N stop after N consecutive empty polls\n"
      "                        (0 = poll forever)\n"
      "  --follow-mode M       warm (default) maintains the model\n"
      "                        incrementally; exact re-compiles per batch\n"
      "                        for bit-identical-to-scratch repairs\n");
}

Result<CliOptions> ParseArgs(int argc, char** argv) {
  CliOptions options;
  auto need_value = [&](int i) -> Result<std::string> {
    if (i + 1 >= argc) {
      return Status::InvalidArgument(std::string(argv[i]) +
                                     " requires a value");
    }
    return std::string(argv[i + 1]);
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      options.show_help = true;
      return options;
    }
    if (arg == "--partitioning") {
      options.config.partitioning = true;
      continue;
    }
    if (arg == "--discover") {
      options.discover = true;
      continue;
    }
    if (arg == "--mmap-restore") {
      options.load_options.lazy_graph = true;
      continue;
    }
    if (arg == "--follow") {
      options.follow = true;
      continue;
    }
    HOLO_ASSIGN_OR_RETURN(value, need_value(i));
    ++i;
    if (arg == "--data") {
      options.data_path = value;
    } else if (arg == "--batch") {
      options.batch_path = value;
    } else if (arg == "--constraints") {
      options.constraints_path = value;
    } else if (arg == "--dict") {
      options.dict_path = value;
    } else if (arg == "--mds") {
      options.mds_path = value;
    } else if (arg == "--output") {
      options.output_path = value;
    } else if (arg == "--repairs") {
      options.repairs_path = value;
    } else if (arg == "--report-json") {
      options.report_json_path = value;
    } else if (arg == "--ground-truth") {
      options.ground_truth_path = value;
    } else if (arg == "--discover-max-error") {
      HOLO_ASSIGN_OR_RETURN(error, ParseNumber(arg, value, 0.0, 1.0));
      options.discover_max_error = error;
      options.discover = true;
    } else if (arg == "--tau") {
      HOLO_ASSIGN_OR_RETURN(tau, ParseNumber(arg, value, 0.0, 1.0));
      options.config.tau = tau;
    } else if (arg == "--min-confidence") {
      HOLO_ASSIGN_OR_RETURN(confidence, ParseNumber(arg, value, 0.0, 1.0));
      options.min_confidence = confidence;
    } else if (arg == "--seed") {
      HOLO_ASSIGN_OR_RETURN(seed, ParseNumber<uint64_t>(arg, value));
      options.config.seed = seed;
    } else if (arg == "--threads") {
      HOLO_ASSIGN_OR_RETURN(threads, ParseNumber<size_t>(arg, value));
      options.config.num_threads = threads;
    } else if (arg == "--stages") {
      HOLO_ASSIGN_OR_RETURN(last, ParseStagesFlag(value));
      options.last_stage = last;
      options.use_session = true;
    } else if (arg == "--rerun-from") {
      HOLO_ASSIGN_OR_RETURN(from, ParseStageName(value));
      options.rerun_from = static_cast<int>(from);
      options.use_session = true;
    } else if (arg == "--save-session") {
      options.save_session_path = value;
      options.use_session = true;
    } else if (arg == "--load-session") {
      options.load_session_path = value;
      options.use_session = true;
    } else if (arg == "--snapshot-codec") {
      if (value == "raw") {
        options.save_options.codec = SectionCodec::kRaw;
      } else if (value == "packed") {
        options.save_options.codec = SectionCodec::kPacked;
      } else {
        return Status::InvalidArgument("unknown --snapshot-codec: " + value);
      }
    } else if (arg == "--follow-batch-rows") {
      HOLO_ASSIGN_OR_RETURN(rows, ParseNumber<size_t>(arg, value, 1));
      options.follow_batch_rows = rows;
    } else if (arg == "--follow-poll-ms") {
      HOLO_ASSIGN_OR_RETURN(poll_ms, ParseNumber(arg, value, 0, INT_MAX));
      options.follow_poll_ms = poll_ms;
    } else if (arg == "--follow-max-batches") {
      HOLO_ASSIGN_OR_RETURN(batches, ParseNumber(arg, value, 0, INT_MAX));
      options.follow_max_batches = batches;
    } else if (arg == "--follow-idle-polls") {
      HOLO_ASSIGN_OR_RETURN(polls, ParseNumber(arg, value, 0, INT_MAX));
      options.follow_idle_polls = polls;
    } else if (arg == "--follow-mode") {
      if (value == "warm") {
        options.follow_mode = StreamMode::kWarm;
      } else if (value == "exact") {
        options.follow_mode = StreamMode::kExact;
      } else {
        return Status::InvalidArgument("unknown --follow-mode: " + value +
                                       " (expected warm|exact)");
      }
    } else if (arg == "--mode") {
      if (value == "feats") {
        options.config.dc_mode = DcMode::kFeatures;
      } else if (value == "factors") {
        options.config.dc_mode = DcMode::kFactors;
      } else if (value == "both") {
        options.config.dc_mode = DcMode::kBoth;
      } else {
        return Status::InvalidArgument("unknown --mode: " + value);
      }
    } else {
      return Status::InvalidArgument("unknown flag: " + arg);
    }
  }
  if (options.follow) {
    // --follow drives its own session loop; the staged-session demo flags
    // and batch mode would fight it over who owns the pipeline.
    if (!options.batch_path.empty() || options.use_session) {
      return Status::InvalidArgument(
          "--follow is incompatible with --batch, --stages, --rerun-from, "
          "and the session-snapshot flags");
    }
  }
  if (!options.batch_path.empty()) {
    if (!options.data_path.empty()) {
      return Status::InvalidArgument("--batch and --data are exclusive");
    }
    // Batch jobs are shaped entirely by the manifest plus the shared
    // pipeline configuration; flags that name extra per-run inputs or
    // outputs have no per-job meaning, so reject them loudly instead of
    // silently running every job without their effect.
    if (!options.constraints_path.empty() || options.discover ||
        !options.dict_path.empty() || !options.mds_path.empty() ||
        !options.output_path.empty() || !options.repairs_path.empty() ||
        !options.ground_truth_path.empty() ||
        !options.save_session_path.empty() ||
        !options.load_session_path.empty() || options.use_session ||
        options.min_confidence != 0.0) {
      return Status::InvalidArgument(
          "--batch supports only the pipeline-config flags; name "
          "constraints and output files in the manifest "
          "(data.csv,dcs.txt[,output.csv[,repairs.csv]])");
    }
    return options;
  }
  if (options.data_path.empty() ||
      (options.constraints_path.empty() && !options.discover)) {
    return Status::InvalidArgument(
        "--data and (--constraints or --discover) are required "
        "(see --help)");
  }
  return options;
}

void PrintStageTimings(const RunStats& stats) {
  for (const StageTiming& t : stats.stage_timings) {
    if (t.cached) {
      std::printf("  %-8s %8.3fs  (cached)\n", t.name.c_str(), t.seconds);
    } else if (t.peak_rss_bytes > 0) {
      std::printf("  %-8s %8.3fs  peak rss %7.1f MiB\n", t.name.c_str(),
                  t.seconds,
                  static_cast<double>(t.peak_rss_bytes) / (1024.0 * 1024.0));
    } else {
      std::printf("  %-8s %8.3fs\n", t.name.c_str(), t.seconds);
    }
  }
}

Result<std::string> ReadFileText(const std::string& path) {
  // CSV reader already handles files; reuse it for raw text via a small
  // detour is wrong — read directly.
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open " + path);
  std::string out;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    out.append(buffer, n);
  }
  std::fclose(f);
  return out;
}

Status WriteFileText(const std::string& path, const std::string& text) {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::InvalidArgument("cannot write " + path);
  size_t written = std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  if (written != text.size()) {
    return Status::Internal("short write to " + path);
  }
  return Status::OK();
}

/// One parsed manifest line of --batch.
struct BatchEntry {
  std::string data_path;
  std::string constraints_path;
  std::string output_path;
  std::string repairs_path;
};

Result<std::vector<BatchEntry>> ParseManifest(const std::string& text) {
  std::vector<BatchEntry> entries;
  size_t begin = 0;
  while (begin <= text.size()) {
    size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    std::string line = text.substr(begin, end - begin);
    begin = end + 1;
    size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    while (!line.empty() && (line.back() == ' ' || line.back() == '\r')) {
      line.pop_back();
    }
    if (line.empty()) {
      if (end == text.size()) break;
      continue;
    }
    BatchEntry entry;
    std::string* fields[] = {&entry.data_path, &entry.constraints_path,
                             &entry.output_path, &entry.repairs_path};
    size_t field = 0;
    size_t from = 0;
    while (field < 4) {
      size_t comma = line.find(',', from);
      if (comma == std::string::npos) comma = line.size();
      *fields[field++] = line.substr(from, comma - from);
      if (comma == line.size()) break;
      from = comma + 1;
    }
    if (entry.data_path.empty() || entry.constraints_path.empty()) {
      return Status::InvalidArgument(
          "manifest line needs data.csv,constraints.txt: " + line);
    }
    entries.push_back(std::move(entry));
    if (end == text.size()) break;
  }
  if (entries.empty()) {
    return Status::InvalidArgument("batch manifest names no datasets");
  }
  return entries;
}

/// Batch mode: every manifest dataset becomes one Engine job with an owned
/// input bundle; all jobs run concurrently over the engine's shared pool
/// and report per-job status — one malformed dataset fails its own job
/// without poisoning the siblings.
Status RunBatchCli(const CliOptions& options) {
  HOLO_ASSIGN_OR_RETURN(manifest_text, ReadFileText(options.batch_path));
  HOLO_ASSIGN_OR_RETURN(entries, ParseManifest(manifest_text));

  EngineOptions engine_options;
  engine_options.num_threads = options.config.num_threads;
  Engine engine(engine_options);

  struct Job {
    BatchEntry entry;
    std::shared_ptr<Dataset> dataset;
    Status load_status;
    std::future<Result<Report>> future;
  };
  std::vector<Job> jobs;
  jobs.reserve(entries.size());
  Timer timer;
  std::vector<Engine::BatchJob> batch;
  for (BatchEntry& entry : entries) {
    Job job;
    job.entry = std::move(entry);
    jobs.push_back(std::move(job));
  }
  // Load inputs up front (load failures are per-job, reported with the
  // results) and submit every loadable job in one batch.
  std::vector<size_t> submitted;
  for (size_t i = 0; i < jobs.size(); ++i) {
    Job& job = jobs[i];
    auto loaded = [&]() -> Status {
      HOLO_ASSIGN_OR_RETURN(doc, ReadCsvFile(job.entry.data_path));
      HOLO_ASSIGN_OR_RETURN(table, Table::FromCsv(doc));
      job.dataset = std::make_shared<Dataset>(std::move(table));
      HOLO_ASSIGN_OR_RETURN(dc_text,
                            ReadFileText(job.entry.constraints_path));
      HOLO_ASSIGN_OR_RETURN(
          dcs, ParseDenialConstraints(dc_text,
                                      job.dataset->dirty().schema()));
      Engine::BatchJob out;
      out.inputs = CleaningInputs::Owned(
          job.dataset,
          std::make_shared<const std::vector<DenialConstraint>>(
              std::move(dcs)));
      out.options.config = options.config;
      batch.push_back(std::move(out));
      submitted.push_back(i);
      return Status::OK();
    }();
    job.load_status = loaded;
  }
  std::vector<std::future<Result<Report>>> futures =
      engine.SubmitBatch(std::move(batch));
  for (size_t k = 0; k < submitted.size(); ++k) {
    jobs[submitted[k]].future = std::move(futures[k]);
  }

  size_t succeeded = 0;
  // Per-job status in the stable report_json schema (--report-json): the
  // same bytes a serve-tier clean response would carry for the job.
  JsonValue job_statuses = JsonValue::Array();
  auto append_failure = [&job_statuses](const std::string& data_path,
                                        const Status& status) {
    JsonValue entry = JsonValue::Object();
    entry.Set("data", JsonValue::String(data_path));
    entry.Set("ok", JsonValue::Bool(false));
    entry.Set("error", JsonValue::String(status.ToString()));
    job_statuses.Append(std::move(entry));
  };
  for (Job& job : jobs) {
    if (!job.load_status.ok()) {
      std::printf("%-32s FAILED (load): %s\n", job.entry.data_path.c_str(),
                  job.load_status.ToString().c_str());
      append_failure(job.entry.data_path, job.load_status);
      continue;
    }
    Result<Report> result = job.future.get();
    if (!result.ok()) {
      std::printf("%-32s FAILED: %s\n", job.entry.data_path.c_str(),
                  result.status().ToString().c_str());
      append_failure(job.entry.data_path, result.status());
      continue;
    }
    const Report& report = result.value();
    const Table& dirty = job.dataset->dirty();
    // Output-file trouble is this job's failure, not the batch's: the
    // remaining jobs still report (and write) their own results.
    Status write_status = [&]() -> Status {
      if (!job.entry.repairs_path.empty()) {
        CsvDocument out;
        out.header = {"tuple", "attribute", "old_value", "new_value",
                      "probability"};
        for (const Repair& r : report.repairs) {
          out.rows.push_back({std::to_string(r.cell.tid),
                              dirty.schema().name(r.cell.attr),
                              dirty.dict().GetString(r.old_value),
                              dirty.dict().GetString(r.new_value),
                              std::to_string(r.probability)});
        }
        HOLO_RETURN_NOT_OK(WriteCsvFile(job.entry.repairs_path, out));
      }
      if (!job.entry.output_path.empty()) {
        Table repaired = dirty.Clone();
        report.Apply(&repaired);
        HOLO_RETURN_NOT_OK(
            WriteCsvFile(job.entry.output_path, repaired.ToCsv()));
      }
      return Status::OK();
    }();
    if (!write_status.ok()) {
      std::printf("%-32s FAILED (write): %s\n", job.entry.data_path.c_str(),
                  write_status.ToString().c_str());
      append_failure(job.entry.data_path, write_status);
      continue;
    }
    ++succeeded;
    JsonValue entry = JsonValue::Object();
    entry.Set("data", JsonValue::String(job.entry.data_path));
    entry.Set("ok", JsonValue::Bool(true));
    entry.Set("report", ReportToJson(report, dirty));
    job_statuses.Append(std::move(entry));
    std::printf("%-32s %6zu rows  %5zu noisy  %5zu repairs  %6.2fs\n",
                job.entry.data_path.c_str(), job.dataset->dirty().num_rows(),
                report.stats.num_noisy_cells, report.repairs.size(),
                report.stats.TotalSeconds());
  }
  if (!options.report_json_path.empty()) {
    HOLO_RETURN_NOT_OK(WriteFileText(options.report_json_path,
                                     job_statuses.Dump() + "\n"));
    std::printf("wrote JSON job statuses to %s\n",
                options.report_json_path.c_str());
  }
  double seconds = timer.Seconds();
  std::printf("batch: %zu/%zu jobs succeeded in %.2fs (%.2f datasets/sec)\n",
              succeeded, jobs.size(), seconds,
              seconds > 0 ? static_cast<double>(succeeded) / seconds : 0.0);
  if (succeeded != jobs.size()) {
    return Status::InvalidArgument("batch had failing jobs");
  }
  return Status::OK();
}

/// Shared tail of the single-run and --follow paths: confidence filter,
/// summary lines, optional ground-truth scoring, and the output files.
Status FinishRun(const CliOptions& options, const Dataset& dataset,
                 const Report& report) {
  std::vector<Repair> applied;
  for (const Repair& r : report.repairs) {
    if (r.probability >= options.min_confidence) applied.push_back(r);
  }
  std::printf("%zu noisy cells, %zu repairs proposed, %zu above confidence "
              "%.2f\n",
              report.stats.num_noisy_cells, report.repairs.size(),
              applied.size(), options.min_confidence);
  std::printf("timing: detect %.2fs, compile %.2fs, learn %.2fs, infer "
              "%.2fs\n",
              report.stats.detect_seconds, report.stats.compile_seconds,
              report.stats.learn_seconds, report.stats.infer_seconds);

  if (dataset.has_clean()) {
    EvalResult eval = EvaluateRepairs(dataset, applied);
    std::printf("vs ground truth: precision %.3f, recall %.3f, F1 %.3f\n",
                eval.precision, eval.recall, eval.f1);
  }

  const Table& dirty = dataset.dirty();
  if (!options.repairs_path.empty()) {
    CsvDocument out;
    out.header = {"tuple", "attribute", "old_value", "new_value",
                  "probability"};
    for (const Repair& r : applied) {
      out.rows.push_back({std::to_string(r.cell.tid),
                          dirty.schema().name(r.cell.attr),
                          dirty.dict().GetString(r.old_value),
                          dirty.dict().GetString(r.new_value),
                          std::to_string(r.probability)});
    }
    HOLO_RETURN_NOT_OK(WriteCsvFile(options.repairs_path, out));
    std::printf("wrote repair report to %s\n", options.repairs_path.c_str());
  }
  if (!options.report_json_path.empty()) {
    HOLO_RETURN_NOT_OK(WriteFileText(options.report_json_path,
                                     ReportJsonString(report, dirty) + "\n"));
    std::printf("wrote JSON report to %s\n",
                options.report_json_path.c_str());
  }
  if (!options.output_path.empty()) {
    Table repaired = dirty.Clone();
    for (const Repair& r : applied) repaired.Set(r.cell, r.new_value);
    HOLO_RETURN_NOT_OK(
        WriteCsvFile(options.output_path, repaired.ToCsv()));
    std::printf("wrote repaired table to %s\n", options.output_path.c_str());
  }
  return Status::OK();
}

/// --follow: streaming ingestion. Cleans --data once, then keeps polling
/// it for appended rows; each poll's delta is ingested in batches of at
/// most --follow-batch-rows through StreamSession::AppendRows (delta
/// detection + incremental re-clean). The whole CSV is re-read and
/// re-parsed on every poll — robust to quoted newlines, which byte-offset
/// tailing would split mid-record — and rows beyond the already-ingested
/// count form the delta. Stops after --follow-max-batches batches or
/// --follow-idle-polls consecutive empty polls; the output files are
/// written from the final report.
Status RunFollowCli(const CliOptions& options) {
  HOLO_ASSIGN_OR_RETURN(doc, ReadCsvFile(options.data_path));
  size_t ingested_rows = doc.rows.size();
  HOLO_ASSIGN_OR_RETURN(table, Table::FromCsv(doc));
  Dataset dataset(std::move(table));
  std::printf("loaded %zu rows x %zu attributes from %s\n",
              dataset.dirty().num_rows(),
              dataset.dirty().schema().num_attrs(),
              options.data_path.c_str());

  std::vector<DenialConstraint> dcs;
  if (!options.constraints_path.empty()) {
    HOLO_ASSIGN_OR_RETURN(dc_text, ReadFileText(options.constraints_path));
    HOLO_ASSIGN_OR_RETURN(
        parsed, ParseDenialConstraints(dc_text, dataset.dirty().schema()));
    dcs = std::move(parsed);
    std::printf("parsed %zu denial constraints\n", dcs.size());
  }
  if (options.discover) {
    FdDiscoveryOptions discover_options;
    discover_options.max_error = options.discover_max_error;
    auto fds = DiscoverFds(dataset.dirty(), discover_options);
    auto discovered = ToDenialConstraints(dataset.dirty(), fds);
    std::printf("discovered %zu approximate FDs\n", fds.size());
    dcs.insert(dcs.end(), discovered.begin(), discovered.end());
  }
  if (dcs.empty()) {
    return Status::InvalidArgument("no constraints given or discovered");
  }

  ExtDictCollection dicts;
  std::vector<MatchingDependency> mds;
  if (!options.dict_path.empty()) {
    HOLO_ASSIGN_OR_RETURN(dict_doc, ReadCsvFile(options.dict_path));
    HOLO_ASSIGN_OR_RETURN(dict_table, Table::FromCsv(dict_doc));
    dicts.Add(options.dict_path, std::move(dict_table));
    if (options.mds_path.empty()) {
      return Status::InvalidArgument("--dict requires --mds");
    }
    HOLO_ASSIGN_OR_RETURN(md_text, ReadFileText(options.mds_path));
    HOLO_ASSIGN_OR_RETURN(parsed_mds, ParseMatchingDependencies(md_text));
    mds = std::move(parsed_mds);
  }
  if (!options.ground_truth_path.empty()) {
    HOLO_ASSIGN_OR_RETURN(clean_doc,
                          ReadCsvFile(options.ground_truth_path));
    Table clean(dataset.dirty().schema(), dataset.dirty().dict_ptr());
    for (const auto& row : clean_doc.rows) clean.AppendRow(row);
    dataset.set_clean(std::move(clean));
  }

  const ExtDictCollection* dicts_arg = dicts.empty() ? nullptr : &dicts;
  const std::vector<MatchingDependency>* mds_arg =
      mds.empty() ? nullptr : &mds;
  CleaningInputs inputs =
      CleaningInputs::Borrowed(&dataset, &dcs, dicts_arg, mds_arg);
  SessionOptions session_options;
  session_options.config = options.config;
  Result<Session> opened = OpenStandaloneSession(inputs, session_options);
  if (!opened.ok()) return opened.status();
  Session session = std::move(opened).value();

  HOLO_ASSIGN_OR_RETURN(initial, session.RunThrough(StageId::kRepair));
  Report report = std::move(initial);
  std::printf("initial clean: %zu noisy cells, %zu repairs\n",
              report.stats.num_noisy_cells, report.repairs.size());
  PrintStageTimings(report.stats);

  StreamOptions stream_options;
  stream_options.mode = options.follow_mode;
  StreamSession stream(&session, stream_options);

  int batches = 0;
  int idle_polls = 0;
  bool stop = false;
  while (!stop) {
    if (options.follow_max_batches > 0 &&
        batches >= options.follow_max_batches) {
      break;
    }
    HOLO_ASSIGN_OR_RETURN(snapshot, ReadCsvFile(options.data_path));
    if (snapshot.rows.size() <= ingested_rows) {
      ++idle_polls;
      if (options.follow_idle_polls > 0 &&
          idle_polls >= options.follow_idle_polls) {
        break;
      }
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options.follow_poll_ms > 0
                                        ? options.follow_poll_ms
                                        : 0));
      continue;
    }
    idle_polls = 0;
    while (ingested_rows < snapshot.rows.size()) {
      if (options.follow_max_batches > 0 &&
          batches >= options.follow_max_batches) {
        stop = true;
        break;
      }
      size_t take = snapshot.rows.size() - ingested_rows;
      if (take > options.follow_batch_rows) take = options.follow_batch_rows;
      std::vector<std::vector<std::string>> chunk(
          snapshot.rows.begin() + static_cast<std::ptrdiff_t>(ingested_rows),
          snapshot.rows.begin() +
              static_cast<std::ptrdiff_t>(ingested_rows + take));
      HOLO_ASSIGN_OR_RETURN(updated, stream.AppendRows(chunk));
      report = std::move(updated);
      ingested_rows += take;
      ++batches;
      const StreamBatchStats& b = stream.stats().last_batch;
      std::printf(
          "batch %d: +%zu rows  %zu new violations  %zu repairs  %.3fs%s%s  "
          "(%.0f tuples/sec)\n",
          batches, b.rows, b.new_violations, report.repairs.size(),
          b.total_seconds, b.resync ? "  [resync]" : "",
          b.full_run ? "  [full run]" : "", stream.stats().tuples_per_sec);
    }
  }
  std::printf(
      "follow done: %zu rows in %zu batches (%zu compactions), %.2fs "
      "streaming\n",
      stream.stats().appended_rows, stream.stats().batches,
      stream.stats().compactions, stream.stats().total_seconds);
  return FinishRun(options, dataset, report);
}

Status RunCli(const CliOptions& options) {
  if (!options.batch_path.empty()) return RunBatchCli(options);
  if (options.follow) return RunFollowCli(options);
  // Load the dirty table.
  HOLO_ASSIGN_OR_RETURN(doc, ReadCsvFile(options.data_path));
  HOLO_ASSIGN_OR_RETURN(table, Table::FromCsv(doc));
  Dataset dataset(std::move(table));
  std::printf("loaded %zu rows x %zu attributes from %s\n",
              dataset.dirty().num_rows(),
              dataset.dirty().schema().num_attrs(),
              options.data_path.c_str());

  // Constraints: from a file, from approximate-FD discovery, or both.
  std::vector<DenialConstraint> dcs;
  if (!options.constraints_path.empty()) {
    HOLO_ASSIGN_OR_RETURN(dc_text, ReadFileText(options.constraints_path));
    HOLO_ASSIGN_OR_RETURN(
        parsed, ParseDenialConstraints(dc_text, dataset.dirty().schema()));
    dcs = std::move(parsed);
    std::printf("parsed %zu denial constraints\n", dcs.size());
  }
  if (options.discover) {
    FdDiscoveryOptions discover_options;
    discover_options.max_error = options.discover_max_error;
    auto fds = DiscoverFds(dataset.dirty(), discover_options);
    std::printf("discovered %zu approximate FDs:\n", fds.size());
    for (const DiscoveredFd& fd : fds) {
      std::printf("  %-40s error %.3f\n",
                  fd.ToString(dataset.dirty().schema()).c_str(), fd.error);
    }
    auto discovered = ToDenialConstraints(dataset.dirty(), fds);
    dcs.insert(dcs.end(), discovered.begin(), discovered.end());
  }
  if (dcs.empty()) {
    return Status::InvalidArgument("no constraints given or discovered");
  }

  // Optional external data.
  ExtDictCollection dicts;
  std::vector<MatchingDependency> mds;
  if (!options.dict_path.empty()) {
    HOLO_ASSIGN_OR_RETURN(dict_doc, ReadCsvFile(options.dict_path));
    HOLO_ASSIGN_OR_RETURN(dict_table, Table::FromCsv(dict_doc));
    dicts.Add(options.dict_path, std::move(dict_table));
    if (options.mds_path.empty()) {
      return Status::InvalidArgument("--dict requires --mds");
    }
    HOLO_ASSIGN_OR_RETURN(md_text, ReadFileText(options.mds_path));
    HOLO_ASSIGN_OR_RETURN(parsed_mds, ParseMatchingDependencies(md_text));
    mds = std::move(parsed_mds);
    std::printf("loaded dictionary (%zu rows), %zu matching dependencies\n",
                dicts.Get(0).records().num_rows(), mds.size());
  }

  // Ground truth (optional).
  if (!options.ground_truth_path.empty()) {
    HOLO_ASSIGN_OR_RETURN(clean_doc,
                          ReadCsvFile(options.ground_truth_path));
    // Share the dirty table's dictionary so value ids are comparable.
    Table clean(dataset.dirty().schema(), dataset.dirty().dict_ptr());
    for (const auto& row : clean_doc.rows) clean.AppendRow(row);
    dataset.set_clean(std::move(clean));
  }

  // Run: the plain path uses the one-shot wrapper; --stages / --rerun-from
  // drive the staged session directly.
  const ExtDictCollection* dicts_arg = dicts.empty() ? nullptr : &dicts;
  const std::vector<MatchingDependency>* mds_arg =
      mds.empty() ? nullptr : &mds;
  CleaningInputs inputs =
      CleaningInputs::Borrowed(&dataset, &dcs, dicts_arg, mds_arg);
  Report report;
  if (!options.use_session) {
    SessionOptions session_options;
    session_options.config = options.config;
    HOLO_ASSIGN_OR_RETURN(full, CleanOnce(inputs, session_options));
    report = std::move(full);
  } else {
    StageId last = options.last_stage;
    SessionOptions session_options;
    session_options.config = options.config;
    session_options.snapshot_path = options.load_session_path;
    session_options.load_options = options.load_options;
    Result<Session> opened = OpenStandaloneSession(inputs, session_options);
    if (!opened.ok()) return opened.status();
    Session session = std::move(opened).value();
    if (!options.load_session_path.empty()) {
      int restored = 0;
      for (int i = 0; i < kNumStages; ++i) {
        if (session.StageIsValid(static_cast<StageId>(i))) restored = i + 1;
      }
      std::printf("restored session from %s (%d of %d stages cached%s%s)\n",
                  options.load_session_path.c_str(), restored, kNumStages,
                  restored > 0 ? ", valid through " : "",
                  restored > 0
                      ? StageName(static_cast<StageId>(restored - 1))
                      : "");
    }
    HOLO_ASSIGN_OR_RETURN(staged, session.RunThrough(last));
    report = std::move(staged);
    std::printf("stage timings (through %s):\n", StageName(last));
    PrintStageTimings(report.stats);
    if (options.rerun_from >= 0) {
      StageId from = static_cast<StageId>(options.rerun_from);
      session.Invalidate(from);
      HOLO_ASSIGN_OR_RETURN(rerun, session.RunThrough(last));
      report = std::move(rerun);
      std::printf("incremental re-run from %s:\n", StageName(from));
      PrintStageTimings(report.stats);
    }
    if (!options.save_session_path.empty()) {
      HOLO_RETURN_NOT_OK(
          session.Save(options.save_session_path, options.save_options));
      std::printf("saved session snapshot to %s\n",
                  options.save_session_path.c_str());
    }
  }

  return FinishRun(options, dataset, report);
}

}  // namespace
}  // namespace holoclean

int main(int argc, char** argv) {
  auto options = holoclean::ParseArgs(argc, argv);
  if (!options.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 options.status().ToString().c_str());
    holoclean::PrintUsage();
    return 2;
  }
  if (options.value().show_help) {
    holoclean::PrintUsage();
    return 0;
  }
  holoclean::Status status = holoclean::RunCli(options.value());
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
