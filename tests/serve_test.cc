// Tests for the serving tier: wire framing, request parsing and config
// overrides, the concurrent dataset registry, per-tenant admission
// control, the in-process and TCP request paths of CleaningServer, and
// the drain -> restart round trip (warm state survives a restart with
// bit-identical repairs).

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <unistd.h>

#include <sys/socket.h>
#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "holoclean/data/food.h"
#include "holoclean/io/session_snapshot.h"
#include "holoclean/serve/admission.h"
#include "holoclean/serve/client.h"
#include "holoclean/serve/protocol.h"
#include "holoclean/serve/queue.h"
#include "holoclean/serve/registry.h"
#include "holoclean/serve/server.h"
#include "holoclean/util/csv.h"
#include "holoclean/util/failpoint.h"

namespace holoclean {
namespace {

using serve::AdmissionController;
using serve::AdmissionOptions;
using serve::CleaningServer;
using serve::Client;
using serve::DatasetRegistry;
using serve::Op;
using serve::Request;
using serve::ServerOptions;

/// Raw registration payloads for a small generated Food instance.
struct Payload {
  std::string csv;
  std::string dcs;
};

Payload MakePayload(size_t i, size_t rows = 120) {
  FoodOptions options;
  options.num_rows = rows;
  options.error_rate = 0.05 + 0.01 * static_cast<double>(i);
  options.seed = 9200 + i;
  GeneratedData data = MakeFood(options);
  Payload payload;
  payload.csv = WriteCsv(data.dataset.dirty().ToCsv());
  for (const DenialConstraint& dc : data.dcs) {
    payload.dcs += dc.ToString(data.dataset.dirty().schema()) + "\n";
  }
  return payload;
}

JsonValue RegisterFrame(const std::string& tenant, const std::string& dataset,
                        const Payload& payload) {
  Request req;
  req.op = Op::kRegisterDataset;
  req.tenant = tenant;
  req.dataset = dataset;
  req.csv_text = payload.csv;
  req.dc_text = payload.dcs;
  return req.ToJson();
}

JsonValue CleanFrame(const std::string& tenant, const std::string& dataset) {
  Request req;
  req.op = Op::kClean;
  req.tenant = tenant;
  req.dataset = dataset;
  return req.ToJson();
}

/// A fast pipeline config for serving tests.
HoloCleanConfig FastConfig() {
  HoloCleanConfig config;
  config.epochs = 5;
  config.gibbs_burn_in = 3;
  config.gibbs_samples = 10;
  return config;
}

ServerOptions FastServerOptions() {
  ServerOptions options;
  options.default_config = FastConfig();
  options.engine_threads = 2;
  return options;
}

/// A fresh empty directory under the test temp root.
std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "holoclean_serve_" + name;
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

std::string RepairsDump(const JsonValue& response) {
  const JsonValue* report = response.Find("report");
  EXPECT_NE(report, nullptr);
  const JsonValue* repairs =
      report != nullptr ? report->Find("repairs") : nullptr;
  EXPECT_NE(repairs, nullptr);
  return repairs != nullptr ? repairs->Dump() : "";
}

// --- Protocol ----------------------------------------------------------------

TEST(ServeProtocol, FrameRoundTripOverPipe) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  JsonValue obj = JsonValue::Object();
  obj.Set("op", JsonValue::String("list_datasets"));
  obj.Set("n", JsonValue::Number(42));
  ASSERT_TRUE(serve::WriteFrame(fds[1], obj).ok());
  ::close(fds[1]);

  Result<JsonValue> read = serve::ReadFrame(fds[0]);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read.value().Dump(), obj.Dump());

  // The pipe is now at EOF: a clean close reads as kNotFound.
  Result<JsonValue> eof = serve::ReadFrame(fds[0]);
  EXPECT_EQ(eof.status().code(), StatusCode::kNotFound);
  ::close(fds[0]);
}

TEST(ServeProtocol, HostileAndTruncatedFramesAreRejected) {
  {
    // Length prefix past the frame bound must be refused pre-allocation.
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    unsigned char huge[4] = {0xff, 0xff, 0xff, 0xff};
    ASSERT_EQ(::write(fds[1], huge, 4), 4);
    ::close(fds[1]);
    Result<JsonValue> r = serve::ReadFrame(fds[0]);
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
    ::close(fds[0]);
  }
  {
    // Connection dying mid-prefix.
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    ASSERT_EQ(::write(fds[1], "\x00\x00", 2), 2);
    ::close(fds[1]);
    Result<JsonValue> r = serve::ReadFrame(fds[0]);
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
    ::close(fds[0]);
  }
  {
    // Connection dying mid-payload.
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    unsigned char prefix[4] = {0, 0, 0, 10};
    ASSERT_EQ(::write(fds[1], prefix, 4), 4);
    ASSERT_EQ(::write(fds[1], "{\"a\"", 4), 4);
    ::close(fds[1]);
    Result<JsonValue> r = serve::ReadFrame(fds[0]);
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
    ::close(fds[0]);
  }
}

TEST(ServeProtocol, RequestRoundTripsThroughJson) {
  Request req;
  req.op = Op::kFeedback;
  req.tenant = "acme";
  req.dataset = "food";
  req.cell_tid = 7;
  req.cell_attr = "City";
  req.cell_value = "Chicago";
  req.config_overrides.Set("epochs", JsonValue::Number(3));

  Result<Request> parsed = Request::FromJson(req.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().op, Op::kFeedback);
  EXPECT_EQ(parsed.value().tenant, "acme");
  EXPECT_EQ(parsed.value().dataset, "food");
  EXPECT_EQ(parsed.value().cell_tid, 7);
  EXPECT_EQ(parsed.value().cell_attr, "City");
  EXPECT_EQ(parsed.value().cell_value, "Chicago");
  EXPECT_EQ(parsed.value().config_overrides.GetInt("epochs"), 3);
}

TEST(ServeProtocol, MalformedRequestsAreRejected) {
  EXPECT_FALSE(Request::FromJson(JsonValue::Array()).ok());
  EXPECT_FALSE(Request::FromJson(JsonValue::Object()).ok());  // No op.

  JsonValue bad_op = JsonValue::Object();
  bad_op.Set("op", JsonValue::String("explode"));
  EXPECT_FALSE(Request::FromJson(bad_op).ok());

  JsonValue bad_cell = JsonValue::Object();
  bad_cell.Set("op", JsonValue::String("feedback"));
  bad_cell.Set("cell", JsonValue::String("not an object"));
  EXPECT_FALSE(Request::FromJson(bad_cell).ok());
}

TEST(ServeProtocol, ConfigOverridesApplyAndRejectUnknownKeys) {
  HoloCleanConfig config;
  JsonValue overrides = JsonValue::Object();
  overrides.Set("tau", JsonValue::Number(0.7));
  overrides.Set("epochs", JsonValue::Number(3));
  overrides.Set("seed", JsonValue::Number(99));
  ASSERT_TRUE(serve::ApplyConfigOverrides(overrides, &config).ok());
  EXPECT_DOUBLE_EQ(config.tau, 0.7);
  EXPECT_EQ(config.epochs, 3);
  EXPECT_EQ(config.seed, 99u);
  // Untouched knobs keep their defaults.
  EXPECT_EQ(config.gibbs_samples, HoloCleanConfig().gibbs_samples);

  // The retired compiled_kernel and columnar knobs are type-checked
  // no-ops on the stable protocol: a bool leaves the config as it was,
  // anything else is still rejected. dc_table_cap was never a wire key.
  HoloCleanConfig before = config;
  for (const char* knob : {"compiled_kernel", "columnar"}) {
    for (bool on : {false, true}) {
      JsonValue retired = JsonValue::Object();
      retired.Set(knob, JsonValue::Bool(on));
      ASSERT_TRUE(serve::ApplyConfigOverrides(retired, &config).ok()) << knob;
      EXPECT_EQ(ConfigFingerprint(config), ConfigFingerprint(before)) << knob;
      EXPECT_EQ(config.num_threads, before.num_threads) << knob;
    }
    JsonValue retired_number = JsonValue::Object();
    retired_number.Set(knob, JsonValue::Number(0));
    EXPECT_EQ(serve::ApplyConfigOverrides(retired_number, &config).code(),
              StatusCode::kInvalidArgument)
        << knob;
  }
  JsonValue cap = JsonValue::Object();
  cap.Set("dc_table_cap", JsonValue::Number(16));
  EXPECT_EQ(serve::ApplyConfigOverrides(cap, &config).code(),
            StatusCode::kInvalidArgument);

  JsonValue unknown = JsonValue::Object();
  unknown.Set("tao", JsonValue::Number(0.7));  // Typo must not pass silently.
  Status st = serve::ApplyConfigOverrides(unknown, &config);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);

  JsonValue wrong_type = JsonValue::Object();
  wrong_type.Set("epochs", JsonValue::String("three"));
  EXPECT_FALSE(serve::ApplyConfigOverrides(wrong_type, &config).ok());
}

TEST(ServeProtocol, ErrorCodesDistinguishOverloadFromDraining) {
  EXPECT_EQ(serve::ErrorCodeFor(Status::OutOfRange("overloaded: busy")),
            "overloaded");
  EXPECT_EQ(serve::ErrorCodeFor(Status::OutOfRange("draining: bye")),
            "draining");
  EXPECT_EQ(serve::ErrorCodeFor(Status::NotFound("x")), "not_found");
  EXPECT_EQ(serve::ErrorCodeFor(Status::AlreadyExists("x")), "already_exists");
  EXPECT_EQ(serve::ErrorCodeFor(Status::Internal("x")), "internal");
}

// --- Registry ----------------------------------------------------------------

TEST(ServeRegistry, RegisterFindDropLifecycle) {
  DatasetRegistry registry;
  Payload payload = MakePayload(0);

  ASSERT_TRUE(registry.Register("acme", "food", payload.csv, payload.dcs).ok());
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.Register("acme", "food", payload.csv, payload.dcs).code(),
            StatusCode::kAlreadyExists);

  auto found = registry.Find("acme", "food");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value()->base->num_rows(), 120u);
  EXPECT_FALSE(found.value()->dcs->empty());

  // Same dataset name under another tenant is a distinct entry.
  ASSERT_TRUE(
      registry.Register("globex", "food", payload.csv, payload.dcs).ok());
  EXPECT_EQ(registry.size(), 2u);

  ASSERT_TRUE(registry.Drop("acme", "food").ok());
  EXPECT_EQ(registry.Drop("acme", "food").code(), StatusCode::kNotFound);
  EXPECT_EQ(registry.Find("acme", "food").status().code(),
            StatusCode::kNotFound);
  // The handed-out entry stays alive for holders.
  EXPECT_EQ(found.value()->base->num_rows(), 120u);
}

TEST(ServeRegistry, RejectsBadNamesAndPayloads) {
  DatasetRegistry registry;
  Payload payload = MakePayload(0);
  EXPECT_FALSE(registry.Register("", "food", payload.csv, payload.dcs).ok());
  EXPECT_FALSE(
      registry.Register("a/b", "food", payload.csv, payload.dcs).ok());
  EXPECT_FALSE(
      registry.Register("acme", "fo od", payload.csv, payload.dcs).ok());
  EXPECT_FALSE(registry.Register("acme", "food", "", payload.dcs).ok());
  EXPECT_FALSE(registry.Register("acme", "food", payload.csv, "").ok());
  EXPECT_FALSE(
      registry.Register("acme", "food", "not,a\nvalid", payload.dcs).ok());
  EXPECT_EQ(registry.size(), 0u);
}

TEST(ServeRegistry, ConcurrentRegisterDropRacesStayConsistent) {
  DatasetRegistry registry;
  Payload payload = MakePayload(0, 40);
  constexpr int kThreads = 8;
  constexpr int kRounds = 20;

  // Each thread hammers its own name while everyone also races for one
  // contended name; listers iterate concurrently.
  std::atomic<int> contended_wins{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string mine = "ds" + std::to_string(t);
      for (int round = 0; round < kRounds; ++round) {
        ASSERT_TRUE(
            registry.Register("acme", mine, payload.csv, payload.dcs).ok());
        auto found = registry.Find("acme", mine);
        ASSERT_TRUE(found.ok());
        EXPECT_EQ(found.value()->base->num_rows(), 40u);
        if (registry.Register("acme", "contended", payload.csv, payload.dcs)
                .ok()) {
          contended_wins.fetch_add(1);
          EXPECT_TRUE(registry.Drop("acme", "contended").ok());
        }
        for (const auto& entry : registry.List()) {
          EXPECT_FALSE(entry->dataset.empty());
        }
        ASSERT_TRUE(registry.Drop("acme", mine).ok());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_GT(contended_wins.load(), 0);
}

// --- Admission ---------------------------------------------------------------

TEST(ServeAdmission, PerTenantQuotaIsolatesTenants) {
  AdmissionOptions options;
  options.per_tenant_inflight = 2;
  options.global_inflight = 8;
  AdmissionController admission(options);

  auto a1 = admission.Admit("acme");
  auto a2 = admission.Admit("acme");
  ASSERT_TRUE(a1.ok());
  ASSERT_TRUE(a2.ok());

  // Tenant quota exhausted: acme bounces, globex keeps full service.
  auto a3 = admission.Admit("acme");
  EXPECT_EQ(a3.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(serve::ErrorCodeFor(a3.status()), "overloaded");
  auto b1 = admission.Admit("globex");
  EXPECT_TRUE(b1.ok());

  // Releasing a slot re-admits the tenant (RAII ticket).
  a1.value().Release();
  EXPECT_TRUE(admission.Admit("acme").ok());
  EXPECT_EQ(admission.inflight("globex"), 1u);
}

TEST(ServeAdmission, GlobalBoundShedsEveryone) {
  AdmissionOptions options;
  options.per_tenant_inflight = 8;
  options.global_inflight = 3;
  AdmissionController admission(options);

  std::vector<AdmissionController::Ticket> held;
  for (int i = 0; i < 3; ++i) {
    auto t = admission.Admit("tenant" + std::to_string(i));
    ASSERT_TRUE(t.ok());
    held.push_back(std::move(t).value());
  }
  EXPECT_EQ(admission.total_inflight(), 3u);
  EXPECT_EQ(admission.Admit("anyone").status().code(),
            StatusCode::kOutOfRange);
  held.clear();  // RAII release.
  EXPECT_EQ(admission.total_inflight(), 0u);
  EXPECT_TRUE(admission.Admit("anyone").ok());
}

// --- Server (in-process) -----------------------------------------------------

TEST(ServeServer, LifecycleAndWarmRepeatIsBitIdentical) {
  CleaningServer server(FastServerOptions());
  Payload payload = MakePayload(0);

  JsonValue reg = server.Handle(RegisterFrame("acme", "food", payload));
  ASSERT_TRUE(reg.GetBool("ok")) << reg.Dump();
  EXPECT_EQ(reg.GetInt("rows"), 120);

  // Registering the same name again fails cleanly.
  JsonValue dup = server.Handle(RegisterFrame("acme", "food", payload));
  EXPECT_FALSE(dup.GetBool("ok"));
  EXPECT_EQ(dup.GetString("error"), "already_exists");

  JsonValue cold = server.Handle(CleanFrame("acme", "food"));
  ASSERT_TRUE(cold.GetBool("ok")) << cold.Dump();
  EXPECT_FALSE(cold.GetBool("warm"));
  ASSERT_GT(RepairsDump(cold).size(), 2u);

  JsonValue warm = server.Handle(CleanFrame("acme", "food"));
  ASSERT_TRUE(warm.GetBool("ok")) << warm.Dump();
  EXPECT_TRUE(warm.GetBool("warm"));
  EXPECT_EQ(RepairsDump(warm), RepairsDump(cold));

  // Feedback pins a cell and re-cleans incrementally.
  Request feedback;
  feedback.op = Op::kFeedback;
  feedback.tenant = "acme";
  feedback.dataset = "food";
  feedback.cell_tid = 0;
  feedback.cell_attr = "City";
  feedback.cell_value = "Chicago";
  JsonValue fb = server.Handle(feedback.ToJson());
  ASSERT_TRUE(fb.GetBool("ok")) << fb.Dump();

  Request status;
  status.op = Op::kExplainStatus;
  status.tenant = "acme";
  status.dataset = "food";
  JsonValue st = server.Handle(status.ToJson());
  ASSERT_TRUE(st.GetBool("ok"));
  EXPECT_TRUE(st.GetBool("warm"));
  EXPECT_TRUE(st.GetBool("has_run"));

  Request drop;
  drop.op = Op::kDropDataset;
  drop.tenant = "acme";
  drop.dataset = "food";
  ASSERT_TRUE(server.Handle(drop.ToJson()).GetBool("ok"));
  JsonValue gone = server.Handle(CleanFrame("acme", "food"));
  EXPECT_FALSE(gone.GetBool("ok"));
  EXPECT_EQ(gone.GetString("error"), "not_found");
}

TEST(ServeServer, TenantsAreIsolated) {
  CleaningServer server(FastServerOptions());
  Payload payload = MakePayload(0);
  ASSERT_TRUE(
      server.Handle(RegisterFrame("acme", "food", payload)).GetBool("ok"));
  ASSERT_TRUE(
      server.Handle(RegisterFrame("globex", "food", payload)).GetBool("ok"));

  // Both tenants clean "their" food dataset; identical registration bytes
  // mean identical repairs, but through fully separate working state.
  JsonValue a = server.Handle(CleanFrame("acme", "food"));
  JsonValue b = server.Handle(CleanFrame("globex", "food"));
  ASSERT_TRUE(a.GetBool("ok"));
  ASSERT_TRUE(b.GetBool("ok"));
  EXPECT_EQ(RepairsDump(a), RepairsDump(b));

  // Feedback by acme must not leak into globex's copy.
  Request feedback;
  feedback.op = Op::kFeedback;
  feedback.tenant = "acme";
  feedback.dataset = "food";
  feedback.cell_tid = 1;
  feedback.cell_attr = "City";
  feedback.cell_value = "Springfield";
  ASSERT_TRUE(server.Handle(feedback.ToJson()).GetBool("ok"));
  JsonValue b2 = server.Handle(CleanFrame("globex", "food"));
  ASSERT_TRUE(b2.GetBool("ok"));
  EXPECT_EQ(RepairsDump(b2), RepairsDump(b));
}

TEST(ServeServer, OverloadedTenantDoesNotPoisonSiblings) {
  ServerOptions options = FastServerOptions();
  options.admission.per_tenant_inflight = 1;
  // Reject-only admission: this test pins the immediate-`overloaded`
  // contract that queue.max_depth = 0 preserves (a queued server would
  // park the request instead — covered by the queue tests).
  options.queue.max_depth = 0;
  CleaningServer server(options);
  Payload payload = MakePayload(0);
  ASSERT_TRUE(
      server.Handle(RegisterFrame("acme", "food", payload)).GetBool("ok"));
  ASSERT_TRUE(
      server.Handle(RegisterFrame("globex", "food", payload)).GetBool("ok"));

  // Saturate acme's quota from the outside, as a stuck in-flight request
  // would, then watch its next request bounce while globex sails through.
  auto held = server.admission().Admit("acme");
  ASSERT_TRUE(held.ok());

  JsonValue shed = server.Handle(CleanFrame("acme", "food"));
  EXPECT_FALSE(shed.GetBool("ok"));
  EXPECT_EQ(shed.GetString("error"), "overloaded");

  JsonValue fine = server.Handle(CleanFrame("globex", "food"));
  EXPECT_TRUE(fine.GetBool("ok")) << fine.Dump();

  held.value().Release();
  JsonValue recovered = server.Handle(CleanFrame("acme", "food"));
  EXPECT_TRUE(recovered.GetBool("ok")) << recovered.Dump();
}

TEST(ServeServer, DrainRejectsNewWorkAsDraining) {
  CleaningServer server(FastServerOptions());  // No state dir.
  Payload payload = MakePayload(0);
  ASSERT_TRUE(
      server.Handle(RegisterFrame("acme", "food", payload)).GetBool("ok"));
  ASSERT_TRUE(server.Drain().ok());

  JsonValue shed = server.Handle(CleanFrame("acme", "food"));
  EXPECT_FALSE(shed.GetBool("ok"));
  EXPECT_EQ(shed.GetString("error"), "draining");
  JsonValue reg = server.Handle(RegisterFrame("acme", "more", payload));
  EXPECT_FALSE(reg.GetBool("ok"));
  EXPECT_EQ(reg.GetString("error"), "draining");
}

TEST(ServeServer, DrainThenRestartRestoresWarmStateBitIdentically) {
  ServerOptions options = FastServerOptions();
  options.state_directory = FreshDir("drain");
  std::remove((options.state_directory + "/manifest.json").c_str());
  Payload payload = MakePayload(0);

  std::string warm_repairs;
  {
    CleaningServer first(options);
    ASSERT_TRUE(
        first.Handle(RegisterFrame("acme", "food", payload)).GetBool("ok"));
    JsonValue cold = first.Handle(CleanFrame("acme", "food"));
    ASSERT_TRUE(cold.GetBool("ok")) << cold.Dump();
    JsonValue warm = first.Handle(CleanFrame("acme", "food"));
    ASSERT_TRUE(warm.GetBool("ok"));
    ASSERT_TRUE(warm.GetBool("warm"));
    warm_repairs = RepairsDump(warm);
    ASSERT_TRUE(first.Drain().ok());
  }

  CleaningServer second(options);
  ASSERT_TRUE(second.RestoreState().ok());

  // The catalog and the parked session both came back.
  Request status;
  status.op = Op::kExplainStatus;
  status.tenant = "acme";
  status.dataset = "food";
  JsonValue st = second.Handle(status.ToJson());
  ASSERT_TRUE(st.GetBool("ok")) << st.Dump();
  EXPECT_TRUE(st.GetBool("warm"));
  EXPECT_TRUE(st.GetBool("has_run"));

  JsonValue resumed = second.Handle(CleanFrame("acme", "food"));
  ASSERT_TRUE(resumed.GetBool("ok")) << resumed.Dump();
  EXPECT_TRUE(resumed.GetBool("warm"));
  EXPECT_EQ(RepairsDump(resumed), warm_repairs);
}

TEST(ServeServer, RestoreAcceptsManifestCarryingRetiredKernelKnobs) {
  // Drain manifests written before compiled_kernel, dc_table_cap and
  // columnar were retired carry those keys in every session config; such a
  // manifest must still bring the parked session back warm and
  // bit-identical.
  ServerOptions options = FastServerOptions();
  options.state_directory = FreshDir("drain_retired_knobs");
  const std::string manifest_path = options.state_directory + "/manifest.json";
  std::remove(manifest_path.c_str());
  Payload payload = MakePayload(0);

  std::string warm_repairs;
  {
    CleaningServer first(options);
    ASSERT_TRUE(
        first.Handle(RegisterFrame("acme", "food", payload)).GetBool("ok"));
    ASSERT_TRUE(first.Handle(CleanFrame("acme", "food")).GetBool("ok"));
    JsonValue warm = first.Handle(CleanFrame("acme", "food"));
    ASSERT_TRUE(warm.GetBool("warm"));
    warm_repairs = RepairsDump(warm);
    ASSERT_TRUE(first.Drain().ok());
  }

  std::string manifest;
  {
    std::ifstream in(manifest_path);
    std::ostringstream text;
    text << in.rdbuf();
    manifest = text.str();
  }
  EXPECT_EQ(manifest.find("\"columnar\":"), std::string::npos) << manifest;
  const std::string anchor = "\"seed\":";
  size_t at = manifest.find(anchor);
  ASSERT_NE(at, std::string::npos) << manifest;
  manifest.insert(at,
                  "\"columnar\":false,\"compiled_kernel\":false,"
                  "\"dc_table_cap\":16,");
  std::ofstream(manifest_path) << manifest;

  CleaningServer second(options);
  ASSERT_TRUE(second.RestoreState().ok());
  JsonValue resumed = second.Handle(CleanFrame("acme", "food"));
  ASSERT_TRUE(resumed.GetBool("ok")) << resumed.Dump();
  EXPECT_TRUE(resumed.GetBool("warm"));
  EXPECT_EQ(RepairsDump(resumed), warm_repairs);
}

TEST(ServeServer, LruEvictionSpillsAndRestoresThroughTheWire) {
  ServerOptions options = FastServerOptions();
  options.session_cache_capacity = 1;
  options.spill_directory = FreshDir("spill");
  CleaningServer server(options);
  Payload payload_a = MakePayload(0, 80);
  Payload payload_b = MakePayload(1, 80);
  ASSERT_TRUE(
      server.Handle(RegisterFrame("acme", "a", payload_a)).GetBool("ok"));
  ASSERT_TRUE(
      server.Handle(RegisterFrame("acme", "b", payload_b)).GetBool("ok"));

  JsonValue first_a = server.Handle(CleanFrame("acme", "a"));
  ASSERT_TRUE(first_a.GetBool("ok"));
  // Cleaning b evicts a's parked session into a spill snapshot.
  ASSERT_TRUE(server.Handle(CleanFrame("acme", "b")).GetBool("ok"));
  EXPECT_TRUE(server.engine().HasSpilledSession("acme/a"));

  JsonValue again_a = server.Handle(CleanFrame("acme", "a"));
  ASSERT_TRUE(again_a.GetBool("ok"));
  EXPECT_FALSE(again_a.GetBool("warm"));
  EXPECT_TRUE(again_a.GetBool("restored_from_spill"));
  EXPECT_EQ(RepairsDump(again_a), RepairsDump(first_a));
}

// --- Server (TCP) ------------------------------------------------------------

TEST(ServeServer, TcpRoundTripMatchesInProcessDispatch) {
  CleaningServer server(FastServerOptions());
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);
  Payload payload = MakePayload(0);

  auto client = Client::Connect(server.port());
  ASSERT_TRUE(client.ok()) << client.status();

  Request reg;
  reg.op = Op::kRegisterDataset;
  reg.tenant = "acme";
  reg.dataset = "food";
  reg.csv_text = payload.csv;
  reg.dc_text = payload.dcs;
  auto reg_resp = client.value().Call(reg);
  ASSERT_TRUE(reg_resp.ok()) << reg_resp.status();
  EXPECT_TRUE(reg_resp.value().GetBool("ok")) << reg_resp.value().Dump();

  Request clean;
  clean.op = Op::kClean;
  clean.tenant = "acme";
  clean.dataset = "food";
  auto tcp_clean = client.value().Call(clean);
  ASSERT_TRUE(tcp_clean.ok()) << tcp_clean.status();
  ASSERT_TRUE(tcp_clean.value().GetBool("ok")) << tcp_clean.value().Dump();

  // The socket path and Handle() dispatch identically: the warm repeat
  // through Handle() returns the same repairs the TCP clean produced.
  JsonValue warm = server.Handle(CleanFrame("acme", "food"));
  ASSERT_TRUE(warm.GetBool("ok"));
  EXPECT_EQ(RepairsDump(warm), RepairsDump(tcp_clean.value()));

  // An unknown op over the wire gets a clean protocol error, and the
  // connection keeps serving afterwards.
  JsonValue bogus = JsonValue::Object();
  bogus.Set("op", JsonValue::String("explode"));
  auto bad = client.value().CallRaw(bogus);
  ASSERT_TRUE(bad.ok()) << bad.status();
  EXPECT_FALSE(bad.value().GetBool("ok"));
  EXPECT_EQ(bad.value().GetString("error"), "invalid_argument");

  Request list;
  list.op = Op::kListDatasets;
  auto listed = client.value().Call(list);
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(listed.value().Find("datasets")->size(), 1u);

  client.value().Close();
  server.Stop();
}

TEST(ServeServer, ConcurrentTcpClientsOverDistinctSlots) {
  ServerOptions options = FastServerOptions();
  options.admission.per_tenant_inflight = 4;
  options.admission.global_inflight = 8;
  CleaningServer server(options);
  ASSERT_TRUE(server.Start().ok());
  Payload payload = MakePayload(0, 80);
  for (const char* tenant : {"t0", "t1", "t2", "t3"}) {
    ASSERT_TRUE(
        server.Handle(RegisterFrame(tenant, "food", payload)).GetBool("ok"));
  }

  std::vector<std::string> repairs(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      auto client = Client::Connect(server.port());
      ASSERT_TRUE(client.ok());
      Request clean;
      clean.op = Op::kClean;
      clean.tenant = "t" + std::to_string(t);
      clean.dataset = "food";
      auto resp = client.value().Call(clean);
      ASSERT_TRUE(resp.ok());
      ASSERT_TRUE(resp.value().GetBool("ok")) << resp.value().Dump();
      repairs[static_cast<size_t>(t)] = RepairsDump(resp.value());
    });
  }
  for (std::thread& t : threads) t.join();
  server.Stop();

  // Same registration bytes + same config => all four tenants, cleaned
  // concurrently over the shared pool, repair identically.
  for (int t = 1; t < 4; ++t) {
    EXPECT_EQ(repairs[static_cast<size_t>(t)], repairs[0]);
  }
}

// --- Robustness: deadlines, queueing, fault injection ------------------------

TEST(ServeProtocol, DeadlineAndAttemptFieldsRoundTrip) {
  Request req;
  req.op = Op::kClean;
  req.tenant = "acme";
  req.dataset = "food";
  req.deadline_ms = 2500;
  req.attempt = 2;
  auto parsed = Request::FromJson(req.ToJson());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().deadline_ms, 2500);
  EXPECT_EQ(parsed.value().attempt, 2);

  // Negative deadlines are a client bug, not a default.
  JsonValue bad = CleanFrame("acme", "food");
  bad.Set("deadline_ms", JsonValue::Number(-5));
  EXPECT_FALSE(Request::FromJson(bad).ok());
}

TEST(ServeProtocol, LegacyRequestsWithoutDeadlineRoundTripUnchanged) {
  // A protocol-1 frame that predates deadline_ms/attempt must parse to
  // the defaults and re-serialize byte-identically — old clients see no
  // difference.
  JsonValue legacy = CleanFrame("acme", "food");
  auto parsed = Request::FromJson(legacy);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().deadline_ms, 0);
  EXPECT_EQ(parsed.value().attempt, 0);
  EXPECT_EQ(parsed.value().ToJson().Dump(), legacy.Dump());
}

TEST(ServeProtocol, EintrAndShortReadsStillDeliverFramesIntact) {
  // Regression for the frame I/O audit: injected signal interruptions
  // plus a 3-byte syscall cap (forcing the short-read path on every
  // transfer) must not lose, duplicate, or reorder a single byte.
  ScopedFailpoints guard(
      "serve.frame.read_eintr=on:2/error;serve.frame.read_slice="
      "always/slice:3;serve.frame.write_eintr=on:1/error;"
      "serve.frame.write_slice=always/slice:3");
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  JsonValue obj = JsonValue::Object();
  obj.Set("op", JsonValue::String("list_datasets"));
  obj.Set("blob", JsonValue::String(std::string(300, 'x') + "end"));
  ASSERT_TRUE(serve::WriteFrame(fds[1], obj).ok());
  ::close(fds[1]);
  auto read = serve::ReadFrame(fds[0]);
  ::close(fds[0]);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read.value().Dump(), obj.Dump());
}

TEST(ServeServer, QueueParksOverloadedRequestUntilSlotFrees) {
  ServerOptions options = FastServerOptions();
  options.admission.per_tenant_inflight = 1;
  CleaningServer server(options);
  Payload payload = MakePayload(0);
  ASSERT_TRUE(
      server.Handle(RegisterFrame("acme", "food", payload)).GetBool("ok"));

  auto held = server.admission().Admit("acme");
  ASSERT_TRUE(held.ok());

  // With the quota saturated the request parks instead of bouncing; it
  // completes once the held ticket releases.
  JsonValue queued_resp;
  std::thread waiter([&] {
    Request req;
    req.op = Op::kClean;
    req.tenant = "acme";
    req.dataset = "food";
    req.deadline_ms = 10000;
    queued_resp = server.Handle(req.ToJson());
  });
  while (server.queue().stats().depth == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Raw tickets bypass QueuedTicket, so hand the freed slot to the queue
  // the way the server's release path would.
  held.value().Release();
  server.queue().OnTicketReleased();
  waiter.join();
  EXPECT_TRUE(queued_resp.GetBool("ok")) << queued_resp.Dump();
  EXPECT_GE(server.queue().stats().granted_after_wait, 1u);
}

TEST(ServeServer, DeadlineExceededWhileQueued) {
  ServerOptions options = FastServerOptions();
  options.admission.per_tenant_inflight = 1;
  CleaningServer server(options);
  Payload payload = MakePayload(0);
  ASSERT_TRUE(
      server.Handle(RegisterFrame("acme", "food", payload)).GetBool("ok"));

  auto held = server.admission().Admit("acme");
  ASSERT_TRUE(held.ok());

  Request req;
  req.op = Op::kClean;
  req.tenant = "acme";
  req.dataset = "food";
  req.deadline_ms = 60;  // Expires while parked — nobody releases.
  JsonValue resp = server.Handle(req.ToJson());
  EXPECT_FALSE(resp.GetBool("ok"));
  EXPECT_EQ(resp.GetString("error"), "deadline_exceeded") << resp.Dump();
  EXPECT_GE(server.queue().stats().expired_in_queue, 1u);
  held.value().Release();
}

TEST(ServeServer, DeadlineExceededAfterDequeueBeforeExecution) {
  // The serve.queue.dispatch delay models a slow step between the queue
  // grant and job submission; the post-dequeue re-check must catch the
  // deadline that passed in between — deterministically, no contention
  // required.
  ScopedFailpoints guard("serve.queue.dispatch=always/delay:120");
  CleaningServer server(FastServerOptions());
  Payload payload = MakePayload(0);
  ASSERT_TRUE(
      server.Handle(RegisterFrame("acme", "food", payload)).GetBool("ok"));

  Request req;
  req.op = Op::kClean;
  req.tenant = "acme";
  req.dataset = "food";
  req.deadline_ms = 50;
  JsonValue resp = server.Handle(req.ToJson());
  EXPECT_FALSE(resp.GetBool("ok"));
  EXPECT_EQ(resp.GetString("error"), "deadline_exceeded") << resp.Dump();
  EXPECT_NE(resp.GetString("message").find("after dequeue"),
            std::string::npos)
      << resp.Dump();
}

TEST(ServeServer, FullQueueFallsBackToOverloaded) {
  ServerOptions options = FastServerOptions();
  options.admission.per_tenant_inflight = 1;
  options.queue.max_depth = 1;
  CleaningServer server(options);
  Payload payload = MakePayload(0);
  ASSERT_TRUE(
      server.Handle(RegisterFrame("acme", "food", payload)).GetBool("ok"));

  auto held = server.admission().Admit("acme");
  ASSERT_TRUE(held.ok());

  JsonValue parked_resp;
  std::thread parked([&] {
    Request req;
    req.op = Op::kClean;
    req.tenant = "acme";
    req.dataset = "food";
    req.deadline_ms = 10000;
    parked_resp = server.Handle(req.ToJson());
  });
  while (server.queue().stats().depth == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Queue full is a capacity condition, not a deadline one: today's
  // `overloaded` contract holds.
  Request req;
  req.op = Op::kClean;
  req.tenant = "acme";
  req.dataset = "food";
  req.deadline_ms = 10000;
  JsonValue resp = server.Handle(req.ToJson());
  EXPECT_FALSE(resp.GetBool("ok"));
  EXPECT_EQ(resp.GetString("error"), "overloaded") << resp.Dump();
  EXPECT_NE(resp.GetString("message").find("queue full"), std::string::npos);

  held.value().Release();
  server.queue().OnTicketReleased();
  parked.join();
  EXPECT_TRUE(parked_resp.GetBool("ok")) << parked_resp.Dump();
}

TEST(ServeServer, InjectedSpillSaveFailureFallsBackToColdRecompute) {
  ServerOptions options = FastServerOptions();
  options.session_cache_capacity = 1;
  options.spill_directory = FreshDir("failspill");
  CleaningServer server(options);
  Payload payload = MakePayload(0);
  ASSERT_TRUE(
      server.Handle(RegisterFrame("acme", "a", payload)).GetBool("ok"));
  ASSERT_TRUE(
      server.Handle(RegisterFrame("acme", "b", payload)).GetBool("ok"));

  JsonValue first_a = server.Handle(CleanFrame("acme", "a"));
  ASSERT_TRUE(first_a.GetBool("ok")) << first_a.Dump();

  // Cleaning b evicts a's parked session; the injected save failure
  // makes the spill vanish instead of persisting. Graceful degradation:
  // nothing crashes, a's warmth is lost, correctness is not.
  {
    ScopedFailpoints guard("engine.spill.save=always/error");
    ASSERT_TRUE(server.Handle(CleanFrame("acme", "b")).GetBool("ok"));
  }
  EXPECT_FALSE(server.engine().HasSpilledSession("acme/a"));

  JsonValue again_a = server.Handle(CleanFrame("acme", "a"));
  ASSERT_TRUE(again_a.GetBool("ok")) << again_a.Dump();
  EXPECT_FALSE(again_a.GetBool("warm"));
  EXPECT_FALSE(again_a.GetBool("restored_from_spill"));
  EXPECT_EQ(RepairsDump(again_a), RepairsDump(first_a));
}

TEST(ServeServer, InjectedSpillRestoreFailureFallsBackToColdRecompute) {
  ServerOptions options = FastServerOptions();
  options.session_cache_capacity = 1;
  options.spill_directory = FreshDir("failrestore");
  CleaningServer server(options);
  Payload payload = MakePayload(0);
  ASSERT_TRUE(
      server.Handle(RegisterFrame("acme", "a", payload)).GetBool("ok"));
  ASSERT_TRUE(
      server.Handle(RegisterFrame("acme", "b", payload)).GetBool("ok"));

  JsonValue first_a = server.Handle(CleanFrame("acme", "a"));
  ASSERT_TRUE(first_a.GetBool("ok")) << first_a.Dump();
  ASSERT_TRUE(server.Handle(CleanFrame("acme", "b")).GetBool("ok"));
  ASSERT_TRUE(server.engine().HasSpilledSession("acme/a"));

  // The spill snapshot exists but its restore fails (as a corrupt or
  // truncated file would): the request recomputes cold and succeeds.
  ScopedFailpoints guard("engine.spill.restore=always/error");
  JsonValue again_a = server.Handle(CleanFrame("acme", "a"));
  ASSERT_TRUE(again_a.GetBool("ok")) << again_a.Dump();
  EXPECT_EQ(RepairsDump(again_a), RepairsDump(first_a));
}

TEST(ServeServer, MidFrameCorruptionClosesOnlyThatConnection) {
  CleaningServer server(FastServerOptions());
  ASSERT_TRUE(server.Start().ok());
  Payload payload = MakePayload(0);
  ASSERT_TRUE(
      server.Handle(RegisterFrame("acme", "food", payload)).GetBool("ok"));

  auto victim = Client::Connect(server.port());
  ASSERT_TRUE(victim.ok());
  auto bystander = Client::Connect(server.port());
  ASSERT_TRUE(bystander.ok());

  {
    // The corruption fires on the next frame written in this process —
    // the victim's request below. The server reads a full frame of
    // garbage, answers with a protocol error, and closes that
    // connection only.
    ScopedFailpoints guard("serve.frame.corrupt_write=on:1/error");
    Request list;
    list.op = Op::kListDatasets;
    auto corrupted = victim.value().Call(list);
    if (corrupted.ok()) {
      EXPECT_FALSE(corrupted.value().GetBool("ok"));
      EXPECT_EQ(corrupted.value().GetString("error"), "invalid_argument")
          << corrupted.value().Dump();
    }
    // Either way the stream is dead now.
    auto after = victim.value().Call(list);
    EXPECT_FALSE(after.ok() && after.value().GetBool("ok"));
  }

  // The bystander's connection and the server itself are unaffected.
  Request clean;
  clean.op = Op::kClean;
  clean.tenant = "acme";
  clean.dataset = "food";
  auto fine = bystander.value().Call(clean);
  ASSERT_TRUE(fine.ok()) << fine.status();
  EXPECT_TRUE(fine.value().GetBool("ok")) << fine.value().Dump();
  server.Stop();
}

TEST(ServeServer, SlowLorisConnectionIsTimedOutAndClosed) {
  ServerOptions options = FastServerOptions();
  options.socket_timeout_ms = 100;
  CleaningServer server(options);
  ASSERT_TRUE(server.Start().ok());

  // A hostile client sends half a length prefix and stalls. The read
  // timeout must reclaim the connection thread: the server sends a
  // best-effort timeout error frame and closes.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(server.port()));
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  char half[2] = {0, 0};
  ASSERT_EQ(::send(fd, half, 2, 0), 2);

  // Drain whatever the server sends until it closes; this must complete
  // quickly (the 100ms timeout), not hang for the test's lifetime.
  auto start = std::chrono::steady_clock::now();
  std::string received;
  char buf[512];
  for (;;) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    received.append(buf, static_cast<size_t>(n));
  }
  auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  ::close(fd);
  EXPECT_LT(elapsed_ms, 5000);
  EXPECT_NE(received.find("timeout"), std::string::npos) << received;

  // The listener survives slow-loris peers: a well-behaved request on a
  // fresh connection still succeeds.
  auto client = Client::Connect(server.port());
  ASSERT_TRUE(client.ok());
  Request list;
  list.op = Op::kListDatasets;
  auto resp = client.value().Call(list);
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_TRUE(resp.value().GetBool("ok"));

  // explain_status surfaces the timeout in the server counters.
  Request status;
  status.op = Op::kExplainStatus;
  auto st = client.value().Call(status);
  ASSERT_TRUE(st.ok());
  const JsonValue* srv = st.value().Find("server");
  ASSERT_NE(srv, nullptr) << st.value().Dump();
  EXPECT_GE(srv->GetInt("socket_timeouts", 0), 1);
  server.Stop();
}

TEST(ServeServer, DrainUnderLoadAnswersEveryRequest) {
  // Drain with one slow request in flight and more parked in the queue:
  // the in-flight one completes, every queued one gets a `draining`
  // response, nothing hangs, and no connection dies unanswered.
  ScopedFailpoints guard("engine.job.run=always/delay:250");
  ServerOptions options = FastServerOptions();
  options.admission.per_tenant_inflight = 1;
  options.admission.global_inflight = 1;
  CleaningServer server(options);
  ASSERT_TRUE(server.Start().ok());
  Payload payload = MakePayload(0);
  ASSERT_TRUE(
      server.Handle(RegisterFrame("acme", "food", payload)).GetBool("ok"));

  constexpr int kClients = 3;
  std::vector<std::thread> threads;
  std::vector<JsonValue> responses(kClients);
  std::vector<Status> transports(kClients, Status::OK());
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      auto client = Client::Connect(server.port());
      ASSERT_TRUE(client.ok());
      Request req;
      req.op = Op::kClean;
      req.tenant = "acme";
      req.dataset = "food";
      req.deadline_ms = 20000;
      auto resp = client.value().Call(req);
      if (resp.ok()) {
        responses[static_cast<size_t>(i)] = resp.value();
      } else {
        transports[static_cast<size_t>(i)] = resp.status();
      }
    });
  }
  // Let one request reach the engine (delayed there) and the rest park.
  while (server.queue().stats().depth < kClients - 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(server.Drain().ok());
  for (std::thread& t : threads) t.join();

  int ok_count = 0, draining_count = 0;
  for (int i = 0; i < kClients; ++i) {
    ASSERT_TRUE(transports[static_cast<size_t>(i)].ok())
        << "client " << i << " got no response: "
        << transports[static_cast<size_t>(i)].ToString();
    const JsonValue& resp = responses[static_cast<size_t>(i)];
    if (resp.GetBool("ok")) {
      ok_count++;
    } else {
      EXPECT_EQ(resp.GetString("error"), "draining") << resp.Dump();
      draining_count++;
    }
  }
  EXPECT_EQ(ok_count + draining_count, kClients);
  EXPECT_GE(ok_count, 1);  // The in-flight request finished its work.
}

TEST(ServeClient, RetriesOverloadedWithBackoffUntilSlotFrees) {
  ServerOptions options = FastServerOptions();
  options.admission.per_tenant_inflight = 1;
  options.queue.max_depth = 0;  // Reject-only: rejections are immediate.
  CleaningServer server(options);
  ASSERT_TRUE(server.Start().ok());
  Payload payload = MakePayload(0);
  ASSERT_TRUE(
      server.Handle(RegisterFrame("acme", "food", payload)).GetBool("ok"));

  auto held = server.admission().Admit("acme");
  ASSERT_TRUE(held.ok());
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    held.value().Release();
  });

  auto client = Client::Connect(server.port());
  ASSERT_TRUE(client.ok());
  Request req;
  req.op = Op::kClean;
  req.tenant = "acme";
  req.dataset = "food";
  serve::RetryOptions retry;
  retry.max_attempts = 8;
  retry.initial_backoff_ms = 40;
  retry.jitter_seed = 7;
  auto result = client.value().CallWithRetry(server.port(), req, retry);
  releaser.join();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result.value().response.GetBool("ok"))
      << result.value().response.Dump();
  EXPECT_GE(result.value().attempts, 2);
  EXPECT_GT(result.value().backoff_ms, 0);

  // The server counted the retried attempts via the wire's `attempt`.
  Request status;
  status.op = Op::kExplainStatus;
  auto st = client.value().Call(status);
  ASSERT_TRUE(st.ok());
  const JsonValue* srv = st.value().Find("server");
  ASSERT_NE(srv, nullptr);
  EXPECT_GE(srv->GetInt("retried_requests", 0), 1);
  server.Stop();
}

TEST(ServeClient, DoesNotRetryNonIdempotentSafeOutcomes) {
  CleaningServer server(FastServerOptions());
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::Connect(server.port());
  ASSERT_TRUE(client.ok());
  Request req;
  req.op = Op::kClean;
  req.tenant = "acme";
  req.dataset = "nope";  // not_found: a real answer, not a transient.
  serve::RetryOptions retry;
  retry.max_attempts = 5;
  auto result = client.value().CallWithRetry(server.port(), req, retry);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().attempts, 1);
  EXPECT_FALSE(result.value().response.GetBool("ok"));
  EXPECT_EQ(result.value().response.GetString("error"), "not_found");
  server.Stop();
}

TEST(ServeClient, RetryHonorsOverallDeadline) {
  ServerOptions options = FastServerOptions();
  options.admission.per_tenant_inflight = 1;
  options.queue.max_depth = 0;
  CleaningServer server(options);
  ASSERT_TRUE(server.Start().ok());
  Payload payload = MakePayload(0);
  ASSERT_TRUE(
      server.Handle(RegisterFrame("acme", "food", payload)).GetBool("ok"));
  auto held = server.admission().Admit("acme");  // Never released.
  ASSERT_TRUE(held.ok());

  auto client = Client::Connect(server.port());
  ASSERT_TRUE(client.ok());
  Request req;
  req.op = Op::kClean;
  req.tenant = "acme";
  req.dataset = "food";
  serve::RetryOptions retry;
  retry.max_attempts = 100;
  retry.initial_backoff_ms = 30;
  retry.overall_deadline_ms = 250;
  auto start = std::chrono::steady_clock::now();
  auto result = client.value().CallWithRetry(server.port(), req, retry);
  auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  EXPECT_FALSE(result.ok());  // Out of budget, not out of attempts.
  EXPECT_LT(elapsed_ms, 2000);
  held.value().Release();
  server.Stop();
}

TEST(ServeServer, ExplainStatusReportsServerCountersGlobally) {
  CleaningServer server(FastServerOptions());
  // Provoke one counted error.
  JsonValue missing = server.Handle(CleanFrame("acme", "nope"));
  EXPECT_FALSE(missing.GetBool("ok"));

  // Global status needs no (tenant, dataset) target.
  Request status;
  status.op = Op::kExplainStatus;
  JsonValue resp = server.Handle(status.ToJson());
  ASSERT_TRUE(resp.GetBool("ok")) << resp.Dump();
  const JsonValue* srv = resp.Find("server");
  ASSERT_NE(srv, nullptr);
  EXPECT_GE(srv->GetInt("requests_total", 0), 1);
  const JsonValue* errors = srv->Find("errors");
  ASSERT_NE(errors, nullptr);
  EXPECT_GE(errors->GetInt("not_found", 0), 1) << resp.Dump();
  const JsonValue* queue = srv->Find("queue");
  ASSERT_NE(queue, nullptr);
  EXPECT_EQ(queue->GetInt("depth", -1), 0);
}

}  // namespace
}  // namespace holoclean
