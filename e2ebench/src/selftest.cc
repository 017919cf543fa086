// The checkers' self-test: every checker must pass on a real clean and
// fail on a corrupted copy of its output.

#include "checks.h"
#include "clean.h"
#include "holoclean/serve/server.h"

namespace e2ebench {

namespace {

/// Expects `passes` on the real output and `!fails` on the corrupted one.
bool Expect(const char* checker, bool passes, bool corrupted_passes) {
  if (!passes) Log("self-test: %s rejects a correct output", checker);
  if (corrupted_passes) Log("self-test: %s accepts a corrupted output", checker);
  return passes && !corrupted_passes;
}

}  // namespace

bool RunSelfTest(uint64_t seed) {
  DatasetText text = GenerateDataset("hospital", 200, 0, Mix(seed, 800));
  text.dict_csv.clear();  // the served copy below has no dictionary
  text.md_text.clear();
  CleanRequest request;
  request.text = &text;
  request.config =
      DatasetConfig(text, holoclean::DcMode::kFeatures, false, seed);
  request.config.num_threads = 1;
  CleanResult result;
  holoclean::Status st = StagedClean(request, &result);
  if (!st.ok() || result.report.repairs.empty()) {
    Log("self-test: clean failed: %s", st.ToString().c_str());
    return false;
  }
  const holoclean::PipelineContext& ctx = result.session->context();
  bool ok = true;

  // One repair value changed.
  std::vector<TextRepair> repairs =
      RepairsAsText(ctx.dataset->dirty(), result.report.repairs);
  std::vector<TextRepair> changed = repairs;
  changed[changed.size() / 2].new_value += "#";
  {
    Verdict good(true);
    Verdict bad(true);
    ok &= Expect("repaired-table check",
                 CheckRepairedTable(text.dirty_csv, result.repaired_csv,
                                    repairs, &good),
                 CheckRepairedTable(text.dirty_csv, result.repaired_csv,
                                    changed, &bad));
    Quality q = ScoreRepairs(text.dirty_csv, text.clean_csv, repairs);
    Quality qc = ScoreRepairs(text.dirty_csv, text.clean_csv, changed);
    ok &= Expect("F1 recomputation", q.f1 > 0.0, qc.f1 == q.f1);
  }
  {
    std::vector<holoclean::Repair> moved = result.report.repairs;
    moved[0].new_value = static_cast<holoclean::ValueId>(
        ctx.dataset->dirty().dict().size() + 7);
    Verdict good(true);
    Verdict bad(true);
    ok &= Expect("domain check",
                 CheckRepairsOnDomains(ctx, result.report.repairs, &good),
                 CheckRepairsOnDomains(ctx, moved, &bad));
  }

  // One violation dropped.
  {
    std::vector<ViolationPair> pairs = ViolationPairs(ctx.violations);
    std::vector<ViolationPair> dropped = pairs;
    dropped.erase(dropped.begin() + static_cast<ptrdiff_t>(dropped.size() / 3));
    Verdict good(true);
    Verdict bad(true);
    ok &= Expect("violation check",
                 CheckViolations(text.dirty_csv, text.dc_text, pairs, 200, 0,
                                 seed, &good),
                 CheckViolations(text.dirty_csv, text.dc_text, dropped, 200, 0,
                                 seed, &bad));
  }

  // One marginal skewed.
  {
    std::vector<std::vector<double>> probs;
    std::vector<int> map_index;
    ExtractMarginals(ctx, &probs, &map_index);
    std::vector<std::vector<double>> skewed = probs;
    skewed[skewed.size() / 2][0] += 0.25;
    Verdict good(true);
    Verdict bad(true);
    ok &= Expect("marginal check",
                 CheckMarginals(ctx.graph, probs, map_index, &good),
                 CheckMarginals(ctx.graph, skewed, map_index, &bad));
  }

  // One served response altered: a real in-process server's clean
  // response against the same clean, then with one repair changed.
  {
    holoclean::serve::ServerOptions so;
    so.default_config = request.config;
    so.engine_threads = 1;
    holoclean::serve::CleaningServer server(so);
    holoclean::serve::Request reg;
    reg.op = holoclean::serve::Op::kRegisterDataset;
    reg.tenant = "selftest";
    reg.dataset = "hospital";
    reg.csv_text = text.dirty_csv;
    reg.dc_text = text.dc_text;
    holoclean::serve::Request clean = reg;
    clean.op = holoclean::serve::Op::kClean;
    clean.csv_text.clear();
    clean.dc_text.clear();
    server.Handle(reg.ToJson());
    holoclean::JsonValue response = server.Handle(clean.ToJson());
    const holoclean::JsonValue* served = response.Find("report");
    if (served == nullptr) {
      Log("self-test: the server did not clean");
      return false;
    }
    std::string text_form = served->Dump();
    size_t pos = text_form.find("\"new\":\"");
    holoclean::Result<holoclean::JsonValue> altered =
        pos == std::string::npos
            ? holoclean::Result<holoclean::JsonValue>(
                  holoclean::Status::Internal("no repair"))
            : holoclean::JsonValue::Parse(text_form.insert(pos + 7, "#"));
    if (!altered.ok()) {
      Log("self-test: cannot alter the served response");
      return false;
    }
    Verdict good(true);
    Verdict bad(true);
    holoclean::JsonValue want = ReportJson(result);
    ok &= Expect("served-response check",
                 SameReport(*served, want, "self-test", &good),
                 SameReport(altered.value(), want, "self-test", &bad));
  }
  if (ok) Log("self-test: every checker caught its corruption");
  return ok;
}

}  // namespace e2ebench
