#include "holoclean/core/session.h"

#include <algorithm>
#include <utility>

#include "holoclean/io/session_snapshot.h"
#include "holoclean/util/memory.h"
#include "holoclean/util/timer.h"

namespace holoclean {

Session::Session(HoloCleanConfig config, CleaningInputs inputs,
                 std::shared_ptr<ThreadPool> shared_pool)
    : inputs_(std::move(inputs)), shared_pool_(std::move(shared_pool)) {
  ctx_.config = std::move(config);
  ctx_.dataset = inputs_.dataset_ptr();
  ctx_.dcs = inputs_.dcs_ptr();
  ctx_.dicts = inputs_.dicts_ptr();
  ctx_.mds = inputs_.mds_ptr();
  ctx_.extra_detectors = inputs_.detectors_ptr();
  stages_ = MakeDefaultStages();
  auto& timings = ctx_.report.stats.stage_timings;
  timings.resize(stages_.size());
  for (size_t i = 0; i < stages_.size(); ++i) {
    timings[i].name = stages_[i]->Name();
  }
  RebuildPool();
}

Session::Session(HoloCleanConfig config, Dataset* dataset,
                 const std::vector<DenialConstraint>* dcs,
                 const ExtDictCollection* dicts,
                 const std::vector<MatchingDependency>* mds,
                 const DetectorSuite* extra_detectors)
    : Session(std::move(config),
              CleaningInputs::Borrowed(dataset, dcs, dicts, mds,
                                       extra_detectors)) {}

Session::Session(Session&& other)
    : inputs_(std::move(other.inputs_)),
      shared_pool_(std::move(other.shared_pool_)),
      pool_(std::move(other.pool_)),
      stages_(std::move(other.stages_)),
      ctx_(std::move(other.ctx_)),
      valid_through_(other.valid_through_) {
  // ctx_.pool already points at the (heap or shared) pool whose ownership
  // just migrated here. The source's context still holds raw copies of
  // every input and pool pointer — reset it so a moved-from session can
  // never alias resources it no longer keeps alive.
  other.ctx_ = PipelineContext();
  other.valid_through_ = 0;
}

Session& Session::operator=(Session&& other) {
  if (this == &other) return *this;
  // Adopt the source's context before destroying our pool: the old
  // context aliases the old pool, and dropping the alias first keeps the
  // window where ctx_.pool dangles at zero. Destroying the old private
  // pool joins its workers; stale TaskGroup helper tasks still queued
  // there hold only self-contained heap state, so the teardown is safe
  // even when a parallel section just finished.
  ctx_ = std::move(other.ctx_);
  stages_ = std::move(other.stages_);
  inputs_ = std::move(other.inputs_);
  valid_through_ = other.valid_through_;
  pool_ = std::move(other.pool_);
  shared_pool_ = std::move(other.shared_pool_);
  other.ctx_ = PipelineContext();
  other.valid_through_ = 0;
  return *this;
}

void Session::RebuildPool() {
  pool_.reset();
  if (shared_pool_ != nullptr) {
    ctx_.pool = shared_pool_.get();
    return;
  }
  if (ctx_.config.num_threads != 1) {
    pool_ = std::make_unique<ThreadPool>(ctx_.config.num_threads);
  }
  ctx_.pool = pool_.get();
}

Result<Report> Session::RunThrough(StageId last) {
  int last_index = static_cast<int>(last);
  auto& timings = ctx_.report.stats.stage_timings;
  for (int i = 0; i <= last_index; ++i) {
    if (i < valid_through_) {
      timings[static_cast<size_t>(i)].cached = true;
      continue;
    }
    Timer timer;
    HOLO_RETURN_NOT_OK(stages_[static_cast<size_t>(i)]->Run(&ctx_));
    timings[static_cast<size_t>(i)].seconds = timer.Seconds();
    timings[static_cast<size_t>(i)].peak_rss_bytes = PeakRssBytes();
    timings[static_cast<size_t>(i)].cached = false;
    valid_through_ = i + 1;
  }
  // Keep the legacy phase view in sync (repair extraction folds into the
  // inference phase, matching the monolithic pipeline's accounting). A
  // cached stage spent no time this run: its StageTiming keeps the
  // prior-run wall time for reference (flagged `cached`), but the phase
  // totals report only what this run actually executed.
  auto spent = [&timings, last_index](size_t i) {
    if (static_cast<int>(i) > last_index) return 0.0;  // Not visited.
    return timings[i].cached ? 0.0 : timings[i].seconds;
  };
  RunStats& stats = ctx_.report.stats;
  stats.detect_seconds = spent(0);
  stats.compile_seconds = spent(1);
  stats.learn_seconds = spent(2);
  stats.infer_seconds = spent(3) + spent(4);
  return ctx_.report;
}

Status Session::Save(const std::string& path,
                     const SnapshotSaveOptions& options) {
  // A lazily restored graph must be materialized before it can be
  // re-serialized (saving is a consumer like any stage) — but only when
  // the snapshot will actually carry a graph section; a shorter valid
  // prefix has no business decoding (or failing on) the deferred bytes.
  if (valid_through_ > static_cast<int>(StageId::kCompile)) {
    HOLO_RETURN_NOT_OK(ctx_.EnsureGraph());
  }
  return SaveSessionSnapshot(ctx_, valid_through_, path, options);
}

Status Session::RestoreFrom(const std::string& path,
                            const SnapshotLoadOptions& options) {
  // A failed load leaves the context and dataset untouched (the loader
  // stages everything before committing), but any previously cached prefix
  // is still dropped: a restore that was asked for and failed should never
  // silently fall back to older in-process artifacts.
  valid_through_ = 0;
  HOLO_ASSIGN_OR_RETURN(valid_through,
                        LoadSessionSnapshot(path, &ctx_, options));
  valid_through_ = valid_through;
  return Status::OK();
}

void Session::Invalidate(StageId from) {
  valid_through_ = std::min(valid_through_, static_cast<int>(from));
}

void Session::UpdateConfig(const HoloCleanConfig& config) {
  const HoloCleanConfig& cur = ctx_.config;
  int invalid = kNumStages;
  auto touch = [&](StageId stage) {
    invalid = std::min(invalid, static_cast<int>(stage));
  };
  if (config.sim_threshold != cur.sim_threshold) touch(StageId::kDetect);
  if (config.tau != cur.tau || config.max_candidates != cur.max_candidates ||
      config.dc_mode != cur.dc_mode ||
      config.partitioning != cur.partitioning ||
      config.dc_factor_weight != cur.dc_factor_weight ||
      config.minimality_weight != cur.minimality_weight ||
      config.max_training_cells != cur.max_training_cells ||
      config.seed != cur.seed) {
    touch(StageId::kCompile);
  }
  if (config.stats_prior_weight != cur.stats_prior_weight ||
      config.freq_prior_weight != cur.freq_prior_weight ||
      config.dc_violation_init != cur.dc_violation_init ||
      config.ext_dict_init != cur.ext_dict_init ||
      config.support_prior != cur.support_prior ||
      config.source_trust_scale != cur.source_trust_scale ||
      config.epochs != cur.epochs ||
      config.learning_rate != cur.learning_rate ||
      config.lr_decay != cur.lr_decay || config.l2 != cur.l2) {
    touch(StageId::kLearn);
  }
  if (config.gibbs_burn_in != cur.gibbs_burn_in ||
      config.gibbs_samples != cur.gibbs_samples) {
    touch(StageId::kInfer);
  }
  // A shared pool is engine property: num_threads only governs private
  // pools (results are thread-count invariant either way).
  bool pool_changed =
      shared_pool_ == nullptr && config.num_threads != cur.num_threads;
  ctx_.config = config;
  if (pool_changed) RebuildPool();
  if (invalid < kNumStages) Invalidate(static_cast<StageId>(invalid));
}

void Session::PinCell(const CellRef& cell, ValueId value) {
  ctx_.dataset->dirty().Set(cell, value);
  if (StageIsValid(StageId::kDetect)) {
    // Exact incremental re-detection: the cached violations involving the
    // pinned cell's tuple are replaced by a block-limited delta scan of
    // that tuple alone, so the committed detect artifacts match a full
    // re-detection of the updated table bit for bit. Cells that were noisy
    // only because of the old value drop out, and conflicts the verified
    // value newly exposes enter — the two gaps the previous approximation
    // left open. Cost is the tuple's blocks, not the table.
    ViolationDetector::Options options;
    options.sim_threshold = ctx_.config.sim_threshold;
    options.pool = ctx_.pool;
    ViolationDetector detector(&ctx_.dataset->dirty(), ctx_.dcs, options);
    DeltaDetectResult delta = detector.DetectForTuple(cell.tid);
    DetectResult merged = ViolationDetector::MergeTupleDelta(
        std::move(ctx_.violations), cell.tid, ctx_.dcs->size(),
        std::move(delta));
    ctx_.violations = std::move(merged.violations);
    ctx_.noisy = ViolationDetector::NoisyFromViolations(ctx_.violations);
    if (ctx_.extra_detectors != nullptr) {
      ctx_.noisy.Merge(ctx_.extra_detectors->Detect(*ctx_.dataset));
    }
    // The pin is ground truth: the verified cell itself never becomes a
    // query variable again, even when its tuple still violates.
    ctx_.noisy.Remove(cell);
    ctx_.report.stats.num_violations = ctx_.violations.size();
    ctx_.report.stats.num_noisy_cells = ctx_.noisy.size();
    ctx_.report.stats.detect_truncated = !merged.truncated_dcs.empty();
    ctx_.report.stats.num_truncated_dcs = merged.truncated_dcs.size();
    Invalidate(StageId::kCompile);
  } else {
    Invalidate(StageId::kDetect);
  }
}

}  // namespace holoclean
