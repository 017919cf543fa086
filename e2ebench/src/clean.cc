#include "clean.h"

#include <cstdio>
#include <filesystem>

#include "checks.h"
#include "holoclean/io/report_json.h"
#include "holoclean/model/domain_pruning.h"
#include "holoclean/model/grounding.h"
#include "holoclean/stats/cooccurrence.h"
#include "trace.h"

namespace e2ebench {

using holoclean::Result;
using holoclean::Session;
using holoclean::StageId;
using holoclean::Status;

namespace {

/// Sum of the compiled graph's public arena sizes, in bytes.
double CsrBytes(const holoclean::CompiledGraph& g) {
  auto bytes = [](const auto& v) {
    return static_cast<double>(v.size() * sizeof(v[0]));
  };
  return bytes(g.weight_keys()) + bytes(g.feat_weight()) +
         bytes(g.feat_act()) + bytes(g.factor_vars()) + bytes(g.fov()) +
         static_cast<double>(g.stats().table_entries);
}

/// Replays the compile stage's three layer calls on the session's own
/// inputs (traced mode only) and checks they reproduce what the stage
/// built. Runs inside the stage.compile span.
std::string ReplayCompile(holoclean::PipelineContext& ctx) {
  Tracer& tracer = Tracer::Get();
  const holoclean::Table& table = ctx.dataset->dirty();
  const holoclean::HoloCleanConfig& config = ctx.config;
  std::string problem;
  {
    ScopedSpan span("stats.cooc");
    holoclean::CooccurrenceStats cooc =
        holoclean::CooccurrenceStats::BuildColumnar(table, ctx.attrs,
                                                    ctx.pool);
    if (cooc.num_pair_entries() != ctx.cooc.num_pair_entries()) {
      problem = "co-occurrence replay differs from the compile stage";
    }
    tracer.Count("stats.pair_entries",
                 static_cast<double>(cooc.num_pair_entries()));
  }
  std::vector<holoclean::CellRef> cells = ctx.query_cells;
  cells.insert(cells.end(), ctx.evidence_cells.begin(),
               ctx.evidence_cells.end());
  {
    ScopedSpan span("prune");
    holoclean::DomainPruningOptions options;
    options.tau = config.tau;
    options.max_candidates = config.max_candidates;
    holoclean::PrunedDomains domains = holoclean::PruneDomainsColumnar(
        table, cells, ctx.attrs, ctx.cooc, options, ctx.pool);
    tracer.Count("prune.cells", static_cast<double>(cells.size()));
    tracer.Count("prune.candidates",
                 static_cast<double>(domains.TotalCandidates()));
  }
  {
    ScopedSpan span("ground");
    bool partitioned = config.partitioning &&
                       config.dc_mode != holoclean::DcMode::kFeatures;
    holoclean::GroundingInput input;
    input.table = &table;
    input.dcs = ctx.dcs;
    input.attrs = &ctx.attrs;
    input.cooc = &ctx.cooc;
    input.query_cells = &ctx.query_cells;
    input.evidence_cells = &ctx.evidence_cells;
    input.domains = &ctx.domains;
    input.matches = ctx.matches.empty() ? nullptr : &ctx.matches;
    input.violations = &ctx.violations;
    input.groups = partitioned ? &ctx.groups : nullptr;
    input.source_attr = ctx.dataset->source_attr();
    holoclean::GroundingOptions options = config.ToGroundingOptions();
    options.pool = ctx.pool;
    holoclean::Grounder grounder(input, options);
    Result<holoclean::FactorGraph> graph = grounder.Ground();
    if (!graph.ok() || graph.value().NumGroundedFactors() !=
                           ctx.graph.NumGroundedFactors()) {
      problem = "grounding replay differs from the compile stage";
    } else {
      tracer.Count("ground.factors",
                   static_cast<double>(graph.value().NumGroundedFactors()));
      tracer.Count("ground.query_vars",
                   static_cast<double>(grounder.stats().num_query_vars));
      tracer.Count("ground.evidence_vars",
                   static_cast<double>(grounder.stats().num_evidence_vars));
    }
  }
  return problem;
}

}  // namespace

holoclean::JsonValue ReportJson(const CleanResult& result) {
  return holoclean::ReportToJson(result.report,
                                 result.inputs.dataset->dirty());
}

Status StagedClean(const CleanRequest& request, CleanResult* out) {
  Tracer& tracer = Tracer::Get();
  const bool traced = tracer.enabled();
  Clock::time_point start = Clock::now();
  double extra = 0.0;
  {
    ScopedSpan span("storage.load");
    HOLO_ASSIGN_OR_RETURN(inputs, ParseInputs(*request.text, request.csv));
    out->inputs = std::move(inputs);
  }
  const size_t rows = out->inputs.dataset->dirty().num_rows();
  tracer.Count("storage.rows", static_cast<double>(rows));

  holoclean::CleaningInputs bundle = holoclean::CleaningInputs::Owned(
      out->inputs.dataset, out->inputs.dcs, out->inputs.dicts,
      out->inputs.mds);
  holoclean::SessionOptions options;
  options.config = request.config;
  Result<Session> opened =
      request.engine != nullptr
          ? request.engine->OpenSession(bundle, options)
          : holoclean::OpenStandaloneSession(bundle, options);
  if (!opened.ok()) return opened.status();
  out->session.emplace(std::move(opened).value());
  Session& session = *out->session;
  holoclean::PipelineContext& ctx = session.context();

  {
    ScopedSpan stage("stage.detect");
    {
      ScopedSpan span("detect");
      HOLO_RETURN_NOT_OK(session.RunThrough(StageId::kDetect).status());
    }
    tracer.Count("detect.rows", static_cast<double>(rows));
    tracer.Count("detect.violations",
                 static_cast<double>(ctx.violations.size()));
    if (!request.pins.empty()) {
      ScopedSpan span("feedback.pin");
      holoclean::Table& dirty = ctx.dataset->dirty();
      for (const Pin& pin : request.pins) {
        holoclean::AttrId attr = dirty.schema().IndexOf(pin.attr);
        if (attr < 0) return Status::InvalidArgument("pin: no attribute");
        session.PinCell({static_cast<holoclean::TupleId>(pin.tid), attr},
                        dirty.dict().Intern(pin.value));
      }
    }
  }
  {
    ScopedSpan stage("stage.compile");
    {
      ScopedSpan span("compile");
      HOLO_RETURN_NOT_OK(session.RunThrough(StageId::kCompile).status());
    }
    if (traced) {
      Clock::time_point replay_start = Clock::now();
      out->replay_problem = ReplayCompile(ctx);
      extra += SecondsSince(replay_start);
    }
  }
  {
    ScopedSpan stage("stage.learn");
    {
      ScopedSpan span("csr");
      HOLO_RETURN_NOT_OK(ctx.EnsureCompiled());
    }
    {
      ScopedSpan span("learn");
      HOLO_RETURN_NOT_OK(session.RunThrough(StageId::kLearn).status());
    }
    if (traced) {
      tracer.Count("csr.bytes", CsrBytes(*ctx.compiled));
      tracer.Count("learn.var_epochs",
                   static_cast<double>(ctx.graph.evidence_vars().size()) *
                       request.config.epochs);
    }
  }
  {
    ScopedSpan stage("stage.infer");
    {
      ScopedSpan span("infer");
      HOLO_RETURN_NOT_OK(session.RunThrough(StageId::kInfer).status());
    }
    if (traced) {
      const bool gibbs = !ctx.graph.dc_factors().empty();
      double sweeps = gibbs ? request.config.gibbs_burn_in +
                                  request.config.gibbs_samples
                            : 1.0;
      tracer.Count("infer.var_sweeps",
                   static_cast<double>(ctx.graph.query_vars().size()) *
                       sweeps);
      Components components = QueryComponents(ctx.graph);
      tracer.Count("infer.components", static_cast<double>(components.count));
      tracer.Max("infer.largest_component_vars",
                 static_cast<double>(components.largest));
    }
  }
  {
    ScopedSpan stage("stage.repair");
    {
      ScopedSpan span("repair");
      HOLO_ASSIGN_OR_RETURN(report, session.RunThrough(StageId::kRepair));
      out->report = std::move(report);
    }
    if (request.write_csv) {
      ScopedSpan span("storage.write");
      out->repaired_csv =
          RepairedCsv(ctx.dataset->dirty(), out->report.repairs);
    }
    tracer.Count("repair.repairs",
                 static_cast<double>(out->report.repairs.size()));
  }
  if (traced) {
    // Traced-only extra: a snapshot round trip of the finished session.
    Clock::time_point extra_start = Clock::now();
    std::string path = request.snapshot_path.empty()
                           ? std::string(".bench_out/snapshot.bin")
                           : request.snapshot_path;
    std::error_code ignored;
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path(), ignored);
    {
      ScopedSpan span("snapshot.save");
      HOLO_RETURN_NOT_OK(session.Save(path));
    }
    tracer.Count("snapshot.bytes", static_cast<double>(FileBytes(path)));
    {
      ScopedSpan span("snapshot.restore");
      Result<Session> restored =
          request.engine != nullptr
              ? request.engine->OpenSession(bundle, options)
              : holoclean::OpenStandaloneSession(bundle, options);
      if (!restored.ok()) return restored.status();
      HOLO_RETURN_NOT_OK(restored.value().RestoreFrom(path));
    }
    std::remove(path.c_str());
    extra += SecondsSince(extra_start);
  }
  out->extra_seconds = extra;
  out->seconds = SecondsSince(start) - extra;
  return Status::OK();
}

}  // namespace e2ebench
