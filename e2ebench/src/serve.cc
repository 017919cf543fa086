// serve-mixed: an in-process CleaningServer on loopback with kClients
// closed-loop serve::Client connections, one tenant each. Every tenant
// owns three (tenant, dataset) slots, so the 12 slots outnumber the
// session LRU (capacity 8) and spill is on. A fixed schedule of 25
// requests per client mixes warm cleans, cleans with an infer-only config
// override, feedback pinning a noisy cell (picked by the seed) to its true
// value, and append_rows of held-back rows. Each round runs on a fresh
// server, so every round does the same work.

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <thread>

#include "checks.h"
#include "clean.h"
#include "holoclean/serve/client.h"
#include "holoclean/serve/server.h"
#include "trace.h"
#include "workloads.h"

namespace e2ebench {

namespace {

using holoclean::JsonValue;
using holoclean::serve::Client;
using holoclean::serve::Op;
using holoclean::serve::Request;

inline constexpr size_t kSlotsPerTenant = 3;
inline constexpr size_t kCacheCapacity = 8;
inline constexpr size_t kAppendRows = 8;
/// Held-back rows per slot: enough for every append a round can send.
inline constexpr size_t kTailRows = 32;

/// Per-client request counts of one round (fixed; the seed only picks the
/// pinned cells and override values).
inline constexpr int kHotCleans = 10;
inline constexpr int kHotOverrideCleans = 2;
inline constexpr int kHotFeedbacks = 2;
inline constexpr int kColdCleans = 8;
inline constexpr int kColdAppends = 3;

enum class Kind { kClean, kOverrideClean, kFeedback, kAppend };

struct Step {
  Kind kind = Kind::kClean;
  size_t slot = 0;  ///< 0 = the tenant's hot slot; 1, 2 = cold slots.
  int override_samples = 0;
  Pin pin;
};

/// The benchmark's mirror of one slot's state: what the server holds.
struct SlotState {
  const DatasetText* text = nullptr;
  std::string name;
  size_t appended = 0;
  std::vector<Pin> pins;
};

/// A response kept for the after-round checks, with the slot state it
/// must match.
struct Sample {
  size_t slot = 0;
  size_t appended = 0;
  int override_samples = 0;
  JsonValue report;
};

/// Request kinds whose latency medians make up op_p50_ms.
enum LatencyKind { kHotClean, kColdClean, kFeedbackOp, kAppendOp, kNumKinds };

struct ClientLog {
  std::vector<double> seconds[kNumKinds];
  size_t failed = 0;
  size_t attempted = 0;
  std::vector<Sample> samples;
  std::string problem;
};

std::string SlotName(size_t tenant, size_t slot) {
  return "t" + std::to_string(tenant) + "-d" + std::to_string(slot);
}

std::string Tenant(size_t tenant) { return "tenant" + std::to_string(tenant); }

/// The slot's dirty CSV: base rows + appended tail rows, pins applied.
std::string SlotCsv(const SlotState& s, size_t appended, bool with_pins) {
  TextTable table;
  ReadTextTable(s.text->dirty_csv, &table);
  for (size_t i = 0; i < appended; ++i) table.rows.push_back(s.text->tail_dirty[i]);
  if (with_pins) {
    for (const Pin& p : s.pins) {
      table.rows[static_cast<size_t>(p.tid)][static_cast<size_t>(
          table.Col(p.attr))] = p.value;
    }
  }
  holoclean::CsvDocument doc{table.header, table.rows};
  return holoclean::WriteCsv(doc);
}

std::string SlotCleanCsv(const SlotState& s) {
  TextTable table;
  ReadTextTable(s.text->clean_csv, &table);
  for (size_t i = 0; i < s.appended; ++i) table.rows.push_back(s.text->tail_clean[i]);
  holoclean::CsvDocument doc{table.header, table.rows};
  return holoclean::WriteCsv(doc);
}

/// The schedule of client `client` for one round. The order of the
/// request kinds is fixed per client (so contention between clients is
/// alike for every seed); the seed picks the pinned cells and override
/// values.
std::vector<Step> MakeSchedule(const DatasetText& hot, size_t client,
                               uint64_t seed) {
  Rng order(Mix(0x5EEDu, client));
  Rng rng(seed);
  std::vector<Step> steps;
  auto add = [&](Kind kind, size_t slot, int n) {
    for (int i = 0; i < n; ++i) steps.push_back({kind, slot, 0, {}});
  };
  add(Kind::kClean, 0, kHotCleans);
  add(Kind::kOverrideClean, 0, kHotOverrideCleans);
  add(Kind::kFeedback, 0, kHotFeedbacks);
  for (int i = 0; i < kColdCleans; ++i) {
    steps.push_back({Kind::kClean, 1 + static_cast<size_t>(i % 2), 0, {}});
  }
  for (int i = 0; i < kColdAppends; ++i) {
    steps.push_back({Kind::kAppend, 1 + static_cast<size_t>(i % 2), 0, {}});
  }
  for (size_t i = steps.size(); i > 1; --i) {
    std::swap(steps[i - 1], steps[order.Below(i)]);
  }
  // Feedback targets: true errors of the hot slot's base rows, pinned to
  // their clean value.
  TextTable dirty;
  TextTable clean;
  ReadTextTable(hot.dirty_csv, &dirty);
  ReadTextTable(hot.clean_csv, &clean);
  std::vector<std::pair<size_t, size_t>> errors;
  for (size_t t = 0; t < dirty.rows.size(); ++t) {
    for (size_t a = 0; a < dirty.header.size(); ++a) {
      if (dirty.rows[t][a] != clean.rows[t][a]) errors.push_back({t, a});
    }
  }
  for (Step& step : steps) {
    if (step.kind == Kind::kOverrideClean) {
      step.override_samples = 30 + static_cast<int>(rng.Below(40));
    } else if (step.kind == Kind::kFeedback && !errors.empty()) {
      auto [t, a] = errors[rng.Below(errors.size())];
      step.pin = {static_cast<int64_t>(t), dirty.header[a], clean.rows[t][a]};
    }
  }
  return steps;
}

bool HasRepairOn(const JsonValue& report, const std::vector<Pin>& pins) {
  const JsonValue* repairs = report.Find("repairs");
  if (repairs == nullptr) return false;
  for (const JsonValue& r : repairs->items()) {
    for (const Pin& p : pins) {
      if (r.GetInt("tid", -1) == p.tid && r.GetString("attr") == p.attr) {
        return true;
      }
    }
  }
  return false;
}

/// One server with its registered slots; rebuilt every round so each
/// round starts from the same state.
struct Fixture {
  std::unique_ptr<holoclean::serve::CleaningServer> server;
  std::vector<Client> clients;
  std::vector<std::vector<SlotState>> slots;  ///< [tenant][slot]
  std::string spill_dir;
};

/// Closes the connections, then stops the server.
void Reset(Fixture* f) {
  f->clients.clear();
  f->server.reset();
  f->slots.clear();
}

holoclean::serve::ServerOptions MakeServerOptions(
    const holoclean::HoloCleanConfig& config, const std::string& spill_dir) {
  holoclean::serve::ServerOptions so;
  so.port = 0;
  so.default_config = config;
  so.engine_threads = kThreads;
  so.session_cache_capacity = kCacheCapacity;
  so.spill_directory = spill_dir;
  // Fewer admission slots than clients, so requests wait in the queue.
  so.admission.global_inflight = 3;
  return so;
}

holoclean::Result<JsonValue> Call(Client* client, const Request& request) {
  HOLO_ASSIGN_OR_RETURN(response, client->Call(request));
  if (!response.GetBool("ok")) {
    return holoclean::Status::Internal(response.GetString("error") + ": " +
                                       response.GetString("message"));
  }
  return response;
}

/// Set-up: start the server, connect, register every slot and clean it
/// once (cold) from each client's own thread.
holoclean::Status SetUp(const std::vector<DatasetText>& texts,
                        const holoclean::HoloCleanConfig& config,
                        const std::string& spill_dir, Fixture* f) {
  std::filesystem::remove_all(spill_dir);
  std::filesystem::create_directories(spill_dir);
  f->spill_dir = spill_dir;
  f->server = std::make_unique<holoclean::serve::CleaningServer>(
      MakeServerOptions(config, spill_dir));
  HOLO_RETURN_NOT_OK(f->server->Start());
  f->clients.clear();
  f->clients.resize(kClients);
  f->slots.assign(kClients, {});
  std::vector<holoclean::Status> status(kClients);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    for (size_t s = 0; s < kSlotsPerTenant; ++s) {
      f->slots[c].push_back({&texts[(c * kSlotsPerTenant + s) % texts.size()],
                             SlotName(c, s), 0, {}});
    }
    threads.emplace_back([&, c] {
      status[c] = [&]() -> holoclean::Status {
        HOLO_ASSIGN_OR_RETURN(client,
                              Client::Connect(f->server->port(), 60000));
        f->clients[c] = std::move(client);
        for (const SlotState& slot : f->slots[c]) {
          Request reg;
          reg.op = Op::kRegisterDataset;
          reg.tenant = Tenant(c);
          reg.dataset = slot.name;
          reg.csv_text = slot.text->dirty_csv;
          reg.dc_text = slot.text->dc_text;
          HOLO_RETURN_NOT_OK(Call(&f->clients[c], reg).status());
        }
        for (const SlotState& slot : f->slots[c]) {
          Request clean;
          clean.op = Op::kClean;
          clean.tenant = Tenant(c);
          clean.dataset = slot.name;
          HOLO_RETURN_NOT_OK(Call(&f->clients[c], clean).status());
        }
        return holoclean::Status::OK();
      }();
    });
  }
  for (std::thread& t : threads) t.join();
  for (const holoclean::Status& st : status) HOLO_RETURN_NOT_OK(st);
  return holoclean::Status::OK();
}

/// Runs one client's schedule, mirroring every slot change it makes.
void RunClient(Fixture* f, size_t c, const std::vector<Step>& steps,
               uint64_t seed, int round_span, ClientLog* log) {
  Tracer& tracer = Tracer::Get();
  Rng sample_rng(seed);
  std::vector<SlotState>& slots = f->slots[c];
  for (const Step& step : steps) {
    SlotState& slot = slots[step.slot];
    Request req;
    req.tenant = Tenant(c);
    req.dataset = slot.name;
    const char* span_name = "serve.clean";
    switch (step.kind) {
      case Kind::kClean:
        req.op = Op::kClean;
        break;
      case Kind::kOverrideClean:
        req.op = Op::kClean;
        req.config_overrides.Set(
            "gibbs_samples", JsonValue::Number(step.override_samples));
        break;
      case Kind::kFeedback:
        req.op = Op::kFeedback;
        req.cell_tid = step.pin.tid;
        req.cell_attr = step.pin.attr;
        req.cell_value = step.pin.value;
        span_name = "serve.feedback";
        break;
      case Kind::kAppend:
        req.op = Op::kAppendRows;
        for (size_t i = 0; i < kAppendRows; ++i) {
          req.rows.push_back(slot.text->tail_dirty[slot.appended + i]);
        }
        span_name = "serve.append";
        break;
    }
    ++log->attempted;
    Clock::time_point start = Clock::now();
    holoclean::Result<JsonValue> response = [&] {
      ScopedSpan span(span_name, round_span);
      return Call(&f->clients[c], req);
    }();
    double seconds = SecondsSince(start);
    if (!response.ok()) {
      ++log->failed;
      if (log->problem.empty()) log->problem = response.status().ToString();
      continue;
    }
    const JsonValue& resp = response.value();
    const JsonValue* report = resp.Find("report");
    if (report == nullptr) {
      log->problem = "response without a report";
      continue;
    }
    LatencyKind kind = step.kind == Kind::kFeedback ? kFeedbackOp
                       : step.kind == Kind::kAppend ? kAppendOp
                       : step.slot == 0             ? kHotClean
                                                    : kColdClean;
    log->seconds[kind].push_back(seconds);
    if (req.op == Op::kClean) {
      tracer.Count("serve.warm_hits", resp.GetBool("warm") ? 1 : 0);
      tracer.Count("serve.spill_restores",
                   resp.GetBool("restored_from_spill") ? 1 : 0);
    }
    tracer.Count("serve.requests", 1);
    if (tracer.enabled()) {
      std::string bytes = resp.Dump();
      tracer.Count("serve.response_bytes", static_cast<double>(bytes.size()));
      ScopedSpan span("serve.decode", round_span);
      if (!JsonValue::Parse(bytes).ok()) log->problem = "undecodable response";
    }
    if (step.kind == Kind::kFeedback) slot.pins.push_back(step.pin);
    if (step.kind == Kind::kAppend) slot.appended += kAppendRows;
    if (!slot.pins.empty() && HasRepairOn(*report, slot.pins)) {
      log->problem = "a pinned cell carries a repair";
    }
    // Cold slots never get pins, so their responses must equal a
    // from-scratch clean of the slot's grown CSV: every append, and a
    // seeded sample of cleans.
    if (step.slot != 0 &&
        (step.kind == Kind::kAppend || sample_rng.Below(4) == 0)) {
      log->samples.push_back(
          {step.slot, slot.appended, step.override_samples, *report});
    }
  }
}

}  // namespace

Outcome RunServe(const Options& options) {
  Tracer& tracer = Tracer::Get();
  Outcome outcome;
  // Two datasets, two sizes; no dictionaries or provenance over the wire.
  std::vector<DatasetText> texts;
  const std::vector<std::pair<const char*, size_t>> specs = {
      {"hospital", 200}, {"food", 240}, {"hospital", 160}};
  for (size_t i = 0; i < specs.size(); ++i) {
    texts.push_back(GenerateDataset(specs[i].first, specs[i].second,
                                    kTailRows, Mix(options.seed, 100 + i)));
    texts.back().dict_csv.clear();
    texts.back().md_text.clear();
    texts.back().source_attr.clear();
  }
  holoclean::HoloCleanConfig config =
      DatasetConfig(texts[0], holoclean::DcMode::kFeatures, false,
                    options.seed);
  std::vector<std::vector<Step>> schedules;
  for (size_t c = 0; c < kClients; ++c) {
    schedules.push_back(MakeSchedule(texts[0], c, Mix(options.seed, 200 + c)));
  }

  Verdict verdict;
  Fixture fixture;
  std::vector<ClientLog> logs;
  outcome.op_seconds.resize(kNumKinds);
  const std::string spill_dir =
      options.out_dir + "/spill-" + std::to_string(::getpid());
  const Clock::time_point run_start = Clock::now();
  for (size_t round = 0; !DoneRounds(outcome, options.seconds, run_start);
       ++round) {
    tracer.BeginGroup("round " + std::to_string(round));
    Reset(&fixture);  // stops the previous round's server
    Clock::time_point setup_start = Clock::now();
    holoclean::Status st;
    {
      ScopedSpan span("setup");
      st = SetUp(texts, config, spill_dir, &fixture);
    }
    outcome.setup_seconds.push_back(SecondsSince(setup_start));
    if (!st.ok()) {
      verdict.Fail("serve set-up failed: " + st.ToString());
      break;
    }
    logs.assign(kClients, {});
    Clock::time_point round_start = Clock::now();
    {
      ScopedSpan round_span("serve.schedule");
      std::vector<std::thread> threads;
      for (size_t c = 0; c < kClients; ++c) {
        threads.emplace_back(RunClient, &fixture, c, std::cref(schedules[c]),
                             Mix(options.seed, 300 + c), round_span.id(),
                             &logs[c]);
      }
      for (std::thread& t : threads) t.join();
    }
    outcome.round_seconds.push_back(SecondsSince(round_start));
    for (const ClientLog& log : logs) {
      outcome.attempted += log.attempted;
      outcome.failed += log.failed;
      for (int k = 0; k < kNumKinds; ++k) {
        outcome.op_seconds[k].insert(outcome.op_seconds[k].end(),
                                     log.seconds[k].begin(),
                                     log.seconds[k].end());
      }
      if (!log.problem.empty()) verdict.Fail("serve: " + log.problem);
    }
    if (tracer.enabled()) {
      Request status;
      status.op = Op::kExplainStatus;
      holoclean::Result<JsonValue> resp = Call(&fixture.clients[0], status);
      if (resp.ok()) {
        const JsonValue* server = resp.value().Find("server");
        const JsonValue* queue =
            server == nullptr ? nullptr : server->Find("queue");
        if (queue != nullptr) {
          tracer.Count("serve.queue_waits",
                       queue->GetDouble("granted_after_wait"));
        }
      }
    }
  }

  outcome.peak_rss_mib = PeakRssMib();

  // Quality of what each slot serves at the end, asked before the
  // connections can sit idle through the checks below.
  double f1_sum = 0.0;
  size_t f1_n = 0;
  for (size_t c = 0; c < kClients && fixture.server != nullptr; ++c) {
    for (const SlotState& slot : fixture.slots[c]) {
      Request final_clean;
      final_clean.op = Op::kClean;
      final_clean.tenant = Tenant(c);
      final_clean.dataset = slot.name;
      holoclean::Result<JsonValue> resp =
          Call(&fixture.clients[c], final_clean);
      const JsonValue* report =
          resp.ok() ? resp.value().Find("report") : nullptr;
      const JsonValue* served =
          report != nullptr ? report->Find("repairs") : nullptr;
      if (served == nullptr) {
        verdict.Fail("serve final clean failed: " + resp.status().ToString());
        continue;
      }
      std::vector<TextRepair> repairs;
      for (const JsonValue& r : served->items()) {
        repairs.push_back({r.GetInt("tid"), r.GetString("attr"),
                           r.GetString("old"), r.GetString("new"),
                           r.GetDouble("probability")});
      }
      std::string dirty = SlotCsv(slot, slot.appended, true);
      f1_sum += ScoreRepairs(dirty, SlotCleanCsv(slot), repairs).f1;
      ++f1_n;
    }
  }
  std::vector<std::vector<SlotState>> slots = fixture.slots;
  Reset(&fixture);
  std::filesystem::remove_all(spill_dir);

  // Sampled responses against from-scratch cleans. The reference cleans
  // are traced (their stage spans are this workload's per-layer figures)
  // in a group of their own.
  tracer.BeginGroup("checks");
  for (size_t c = 0; c < slots.size(); ++c) {
    for (const Sample& sample : logs[c].samples) {
      const SlotState& slot = slots[c][sample.slot];
      std::string csv = SlotCsv(slot, sample.appended, false);
      CleanRequest reference;
      reference.text = slot.text;
      reference.csv = &csv;
      reference.config = config;
      if (sample.override_samples > 0) {
        reference.config.gibbs_samples = sample.override_samples;
      }
      reference.write_csv = false;
      reference.snapshot_path = options.out_dir + "/serve.snapshot";
      CleanResult result;
      ScopedSpan span("check.clean");
      holoclean::Status st = StagedClean(reference, &result);
      if (!st.ok()) {
        verdict.Fail("serve reference clean failed: " + st.ToString());
        continue;
      }
      SameReport(sample.report, ReportJson(result),
                 "serve " + slot.name + " after " +
                     std::to_string(sample.appended) + " appended rows",
                 &verdict);
    }
  }
  outcome.f1 = f1_n == 0 ? 0.0 : f1_sum / static_cast<double>(f1_n);
  outcome.correct = verdict.ok();
  return outcome;
}

}  // namespace e2ebench
