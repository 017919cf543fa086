#include "holoclean/serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "holoclean/io/report_json.h"
#include "holoclean/stream/stream_session.h"
#include "holoclean/util/failpoint.h"
#include "holoclean/util/logging.h"

namespace holoclean {
namespace serve {

namespace {

Status ReadFileText(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open " + path + ": " +
                            std::strerror(errno));
  }
  out->clear();
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, n);
  bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) return Status::Internal("read error on " + path);
  return Status::OK();
}

Status WriteFileText(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal("cannot create " + path + ": " +
                            std::strerror(errno));
  }
  size_t written = std::fwrite(text.data(), 1, text.size(), f);
  bool bad = std::fclose(f) != 0 || written != text.size();
  if (bad) return Status::Internal("short write on " + path);
  return Status::OK();
}

/// Full-fidelity config serialization for the drain manifest: every knob,
/// including those the wire's ApplyConfigOverrides does not expose, so a
/// restored session reopens under the exact config fingerprint its
/// snapshot was saved with.
JsonValue ConfigToJson(const HoloCleanConfig& c) {
  JsonValue j = JsonValue::Object();
  j.Set("tau", JsonValue::Number(c.tau));
  j.Set("max_candidates", JsonValue::Number(static_cast<uint64_t>(c.max_candidates)));
  j.Set("dc_mode", JsonValue::Number(static_cast<int>(c.dc_mode)));
  j.Set("partitioning", JsonValue::Bool(c.partitioning));
  j.Set("dc_factor_weight", JsonValue::Number(c.dc_factor_weight));
  j.Set("minimality_weight", JsonValue::Number(c.minimality_weight));
  j.Set("sim_threshold", JsonValue::Number(c.sim_threshold));
  j.Set("source_trust_scale", JsonValue::Number(c.source_trust_scale));
  j.Set("stats_prior_weight", JsonValue::Number(c.stats_prior_weight));
  j.Set("freq_prior_weight", JsonValue::Number(c.freq_prior_weight));
  j.Set("dc_violation_init", JsonValue::Number(c.dc_violation_init));
  j.Set("ext_dict_init", JsonValue::Number(c.ext_dict_init));
  j.Set("support_prior", JsonValue::Number(c.support_prior));
  j.Set("epochs", JsonValue::Number(c.epochs));
  j.Set("learning_rate", JsonValue::Number(c.learning_rate));
  j.Set("lr_decay", JsonValue::Number(c.lr_decay));
  j.Set("l2", JsonValue::Number(c.l2));
  j.Set("max_training_cells", JsonValue::Number(static_cast<uint64_t>(c.max_training_cells)));
  j.Set("gibbs_burn_in", JsonValue::Number(c.gibbs_burn_in));
  j.Set("gibbs_samples", JsonValue::Number(c.gibbs_samples));
  j.Set("seed", JsonValue::Number(static_cast<uint64_t>(c.seed)));
  j.Set("num_threads", JsonValue::Number(static_cast<uint64_t>(c.num_threads)));
  return j;
}

/// Inverse of ConfigToJson. Keys it does not read are skipped, so
/// manifests written by older builds, which carried the since-retired
/// `compiled_kernel`, `dc_table_cap` and `columnar` knobs, restore
/// unchanged.
HoloCleanConfig ConfigFromJson(const JsonValue& j) {
  HoloCleanConfig c;
  c.tau = j.GetDouble("tau", c.tau);
  c.max_candidates = static_cast<size_t>(
      j.GetInt("max_candidates", static_cast<int64_t>(c.max_candidates)));
  c.dc_mode = static_cast<DcMode>(
      j.GetInt("dc_mode", static_cast<int64_t>(c.dc_mode)));
  c.partitioning = j.GetBool("partitioning", c.partitioning);
  c.dc_factor_weight = j.GetDouble("dc_factor_weight", c.dc_factor_weight);
  c.minimality_weight = j.GetDouble("minimality_weight", c.minimality_weight);
  c.sim_threshold = j.GetDouble("sim_threshold", c.sim_threshold);
  c.source_trust_scale =
      j.GetDouble("source_trust_scale", c.source_trust_scale);
  c.stats_prior_weight =
      j.GetDouble("stats_prior_weight", c.stats_prior_weight);
  c.freq_prior_weight = j.GetDouble("freq_prior_weight", c.freq_prior_weight);
  c.dc_violation_init = j.GetDouble("dc_violation_init", c.dc_violation_init);
  c.ext_dict_init = j.GetDouble("ext_dict_init", c.ext_dict_init);
  c.support_prior = j.GetDouble("support_prior", c.support_prior);
  c.epochs = static_cast<int>(j.GetInt("epochs", c.epochs));
  c.learning_rate = j.GetDouble("learning_rate", c.learning_rate);
  c.lr_decay = j.GetDouble("lr_decay", c.lr_decay);
  c.l2 = j.GetDouble("l2", c.l2);
  c.max_training_cells = static_cast<size_t>(j.GetInt(
      "max_training_cells", static_cast<int64_t>(c.max_training_cells)));
  c.gibbs_burn_in = static_cast<int>(j.GetInt("gibbs_burn_in", c.gibbs_burn_in));
  c.gibbs_samples = static_cast<int>(j.GetInt("gibbs_samples", c.gibbs_samples));
  c.seed = static_cast<uint64_t>(j.GetInt("seed", static_cast<int64_t>(c.seed)));
  c.num_threads = static_cast<size_t>(
      j.GetInt("num_threads", static_cast<int64_t>(c.num_threads)));
  return c;
}

/// Snapshot filename for a drained session ("/" is the key separator, so
/// "tenant--dataset" is collision-free for validated names).
std::string SessionSnapshotName(const std::string& tenant,
                                const std::string& dataset) {
  return "session-" + tenant + "--" + dataset + ".snapshot";
}

EngineOptions MakeEngineOptions(const ServerOptions& options) {
  EngineOptions eo;
  eo.num_threads = options.engine_threads;
  eo.session_cache_capacity = options.session_cache_capacity;
  eo.spill_directory = options.spill_directory;
  return eo;
}

}  // namespace

CleaningServer::CleaningServer(ServerOptions options)
    : options_(std::move(options)),
      engine_(MakeEngineOptions(options_)),
      admission_(options_.admission),
      queue_(options_.queue, &admission_) {
  if (!options_.failpoint_profile.empty()) {
    Status st = Failpoints::Global().Configure(options_.failpoint_profile);
    if (!st.ok()) {
      HOLO_LOG(kWarning) << "ignoring failpoint profile: " << st;
    }
  }
}

CleaningServer::~CleaningServer() { Stop(); }

// --- Slots -------------------------------------------------------------------

std::shared_ptr<CleaningServer::TenantSlot> CleaningServer::GetOrCreateSlot(
    const std::shared_ptr<const DatasetRegistry::Entry>& entry) {
  const std::string key = RegistryKey(entry->tenant, entry->dataset);
  std::lock_guard<std::mutex> lock(slots_mu_);
  auto it = slots_.find(key);
  if (it != slots_.end()) return it->second;
  auto slot = std::make_shared<TenantSlot>();
  slot->dataset = std::make_shared<Dataset>(
      entry->base->CloneWithPrivateDictionary());
  slot->dcs = entry->dcs;
  slot->config = options_.default_config;
  slots_.emplace(key, slot);
  return slot;
}

void CleaningServer::DropSlot(const std::string& key) {
  std::lock_guard<std::mutex> lock(slots_mu_);
  slots_.erase(key);
}

// --- Request dispatch --------------------------------------------------------

JsonValue CleaningServer::Handle(const JsonValue& request_frame) {
  Result<Request> req = Request::FromJson(request_frame);
  if (!req.ok()) return ErrorResponse(req.status());
  return Dispatch(req.value());
}

JsonValue CleaningServer::Dispatch(const Request& req) {
  requests_total_.fetch_add(1, std::memory_order_relaxed);
  if (req.attempt > 0) {
    retried_requests_.fetch_add(1, std::memory_order_relaxed);
  }
  JsonValue response = [&] {
    Status injected = HOLO_FAILPOINT("serve.dispatch");
    if (!injected.ok()) return ErrorResponse(injected);
    switch (req.op) {
      case Op::kRegisterDataset:
        return DoRegister(req);
      case Op::kDropDataset:
        return DoDrop(req);
      case Op::kListDatasets:
        return DoList(req);
      case Op::kClean:
        return DoClean(req);
      case Op::kFeedback:
        return DoFeedback(req);
      case Op::kAppendRows:
        return DoAppendRows(req);
      case Op::kExplainStatus:
        return DoExplainStatus(req);
    }
    return ErrorResponse(Status::Internal("unhandled op"));
  }();
  CountResponse(response);
  return response;
}

void CleaningServer::CountResponse(const JsonValue& response) {
  if (response.GetBool("ok")) {
    ok_total_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::string code = response.GetString("error");
  if (code.empty()) code = "internal";
  std::lock_guard<std::mutex> lock(stats_mu_);
  error_counts_[code]++;
}

JsonValue CleaningServer::DoRegister(const Request& req) {
  if (draining_.load()) {
    return ErrorResponse(Status::OutOfRange("draining: server is draining"));
  }
  Status st =
      registry_.Register(req.tenant, req.dataset, req.csv_text, req.dc_text);
  if (!st.ok()) return ErrorResponse(st);
  auto entry = registry_.Find(req.tenant, req.dataset);
  if (!entry.ok()) return ErrorResponse(entry.status());
  // Fold the dataset's vocabulary into the engine's dictionary arena, so
  // engine-stamped dictionaries share its value-id prefix.
  engine_.SeedDictionary(entry.value()->base->dict());
  JsonValue resp = OkResponse();
  resp.Set("rows", JsonValue::Number(
                       static_cast<uint64_t>(entry.value()->base->num_rows())));
  resp.Set("attrs",
           JsonValue::Number(static_cast<uint64_t>(
               entry.value()->base->schema().num_attrs())));
  resp.Set("num_dcs", JsonValue::Number(
                          static_cast<uint64_t>(entry.value()->dcs->size())));
  return resp;
}

JsonValue CleaningServer::DoDrop(const Request& req) {
  Status st = registry_.Drop(req.tenant, req.dataset);
  if (!st.ok()) return ErrorResponse(st);
  const std::string key = RegistryKey(req.tenant, req.dataset);
  // Discard any warm state for the dropped instance.
  engine_.TakeCachedSession(key);
  DropSlot(key);
  return OkResponse();
}

JsonValue CleaningServer::DoList(const Request& req) {
  JsonValue datasets = JsonValue::Array();
  for (const auto& entry : registry_.List()) {
    // A tenant-scoped list when the request names a tenant; the full
    // catalog otherwise (ops/debugging view).
    if (!req.tenant.empty() && entry->tenant != req.tenant) continue;
    JsonValue d = JsonValue::Object();
    d.Set("tenant", JsonValue::String(entry->tenant));
    d.Set("dataset", JsonValue::String(entry->dataset));
    d.Set("rows",
          JsonValue::Number(static_cast<uint64_t>(entry->base->num_rows())));
    d.Set("num_dcs",
          JsonValue::Number(static_cast<uint64_t>(entry->dcs->size())));
    d.Set("warm", JsonValue::Bool(engine_.HasCachedSession(
                      RegistryKey(entry->tenant, entry->dataset))));
    datasets.Append(std::move(d));
  }
  JsonValue resp = OkResponse();
  resp.Set("datasets", std::move(datasets));
  return resp;
}

JsonValue CleaningServer::DoClean(const Request& req) {
  if (draining_.load()) {
    return ErrorResponse(Status::OutOfRange("draining: server is draining"));
  }
  const RequestQueue::Clock::time_point deadline =
      queue_.DeadlineFor(req.deadline_ms);
  Result<AdmissionController::Ticket> acquired =
      queue_.Acquire(req.tenant, deadline);
  if (!acquired.ok()) return ErrorResponse(acquired.status());
  // Wrapping the ticket routes its release back through the queue, so the
  // freed slot goes to the longest-parked waiter, not the next arrival.
  QueuedTicket ticket(std::move(acquired).value(), &queue_);

  Result<std::shared_ptr<const DatasetRegistry::Entry>> entry =
      registry_.Find(req.tenant, req.dataset);
  if (!entry.ok()) return ErrorResponse(entry.status());

  HoloCleanConfig config = options_.default_config;
  Status st = ApplyConfigOverrides(req.config_overrides, &config);
  if (!st.ok()) return ErrorResponse(st);

  const std::string key = RegistryKey(req.tenant, req.dataset);
  std::shared_ptr<TenantSlot> slot = GetOrCreateSlot(entry.value());

  // One request at a time per (tenant, dataset): concurrent jobs must not
  // share a Dataset object. Distinct slots proceed concurrently.
  // serve.queue.dispatch models anything slow between grant and execution
  // (tests pin the post-dequeue expiry path with a delay here).
  st = HOLO_FAILPOINT("serve.queue.dispatch");
  if (!st.ok()) return ErrorResponse(st);
  std::lock_guard<std::mutex> slot_lock(slot->mu);
  if (RequestQueue::Clock::now() >= deadline) {
    // The deadline can pass after the queue granted a slot — the grant
    // raced the timer, or the slot-serialization wait ate the rest of the
    // budget. Reject before starting work nobody is waiting for.
    return ErrorResponse(
        DeadlineExceeded("request deadline passed after dequeue, before "
                         "execution"));
  }
  const bool was_warm = engine_.HasCachedSession(key);
  const bool was_spilled = engine_.HasSpilledSession(key);

  SessionOptions session_options;
  session_options.config = config;
  session_options.cache_key = key;
  std::future<Result<Report>> job = engine_.Submit(
      CleaningInputs::Owned(slot->dataset, slot->dcs), session_options);
  Result<Report> report = job.get();
  if (!report.ok()) return ErrorResponse(report.status());

  slot->config = config;
  slot->has_run = true;

  JsonValue resp = OkResponse();
  resp.Set("warm", JsonValue::Bool(was_warm));
  resp.Set("restored_from_spill",
           JsonValue::Bool(!was_warm && was_spilled));
  resp.Set("report", ReportToJson(report.value(), slot->dataset->dirty()));
  return resp;
}

JsonValue CleaningServer::DoFeedback(const Request& req) {
  if (draining_.load()) {
    return ErrorResponse(Status::OutOfRange("draining: server is draining"));
  }
  if (req.cell_tid < 0 || req.cell_attr.empty()) {
    return ErrorResponse(
        Status::InvalidArgument("feedback needs a \"cell\" object"));
  }
  const RequestQueue::Clock::time_point deadline =
      queue_.DeadlineFor(req.deadline_ms);
  Result<AdmissionController::Ticket> acquired =
      queue_.Acquire(req.tenant, deadline);
  if (!acquired.ok()) return ErrorResponse(acquired.status());
  QueuedTicket ticket(std::move(acquired).value(), &queue_);

  Result<std::shared_ptr<const DatasetRegistry::Entry>> entry =
      registry_.Find(req.tenant, req.dataset);
  if (!entry.ok()) return ErrorResponse(entry.status());

  const std::string key = RegistryKey(req.tenant, req.dataset);
  std::shared_ptr<TenantSlot> slot = GetOrCreateSlot(entry.value());
  Status queue_st = HOLO_FAILPOINT("serve.queue.dispatch");
  if (!queue_st.ok()) return ErrorResponse(queue_st);
  std::lock_guard<std::mutex> slot_lock(slot->mu);
  if (RequestQueue::Clock::now() >= deadline) {
    return ErrorResponse(
        DeadlineExceeded("request deadline passed after dequeue, before "
                         "execution"));
  }

  Table& dirty = slot->dataset->dirty();
  AttrId attr = dirty.schema().IndexOf(req.cell_attr);
  if (attr < 0) {
    return ErrorResponse(Status::NotFound("no attribute \"" + req.cell_attr +
                                          "\" in dataset \"" + key + "\""));
  }
  if (req.cell_tid >= static_cast<int64_t>(dirty.num_rows())) {
    return ErrorResponse(Status::OutOfRange(
        "tid " + std::to_string(req.cell_tid) + " is past " +
        std::to_string(dirty.num_rows()) + " rows"));
  }

  HoloCleanConfig config = slot->has_run ? slot->config
                                         : options_.default_config;
  Status st = ApplyConfigOverrides(req.config_overrides, &config);
  if (!st.ok()) return ErrorResponse(st);

  // Reuse the warm parked session (or its spilled snapshot) when there is
  // one; open cold otherwise. The pin invalidates from compile, so a warm
  // session re-runs only the suffix.
  SessionOptions session_options;
  session_options.config = config;
  session_options.cache_key = key;
  Result<Session> session = engine_.OpenSession(
      CleaningInputs::Owned(slot->dataset, slot->dcs), session_options);
  if (!session.ok()) return ErrorResponse(session.status());

  CellRef cell{static_cast<TupleId>(req.cell_tid), attr};
  session.value().PinCell(cell, dirty.dict().Intern(req.cell_value));
  Result<Report> report = session.value().Run();
  if (!report.ok()) return ErrorResponse(report.status());

  JsonValue resp = OkResponse();
  resp.Set("report", ReportToJson(report.value(), dirty));
  slot->config = config;
  slot->has_run = true;
  engine_.CacheSession(key, std::move(session).value());
  return resp;
}

JsonValue CleaningServer::DoAppendRows(const Request& req) {
  if (draining_.load()) {
    return ErrorResponse(Status::OutOfRange("draining: server is draining"));
  }
  if (req.rows.empty()) {
    return ErrorResponse(
        Status::InvalidArgument("append_rows needs a non-empty \"rows\""));
  }
  const RequestQueue::Clock::time_point deadline =
      queue_.DeadlineFor(req.deadline_ms);
  Result<AdmissionController::Ticket> acquired =
      queue_.Acquire(req.tenant, deadline);
  if (!acquired.ok()) return ErrorResponse(acquired.status());
  QueuedTicket ticket(std::move(acquired).value(), &queue_);

  Result<std::shared_ptr<const DatasetRegistry::Entry>> entry =
      registry_.Find(req.tenant, req.dataset);
  if (!entry.ok()) return ErrorResponse(entry.status());

  const std::string key = RegistryKey(req.tenant, req.dataset);
  std::shared_ptr<TenantSlot> slot = GetOrCreateSlot(entry.value());
  Status queue_st = HOLO_FAILPOINT("serve.queue.dispatch");
  if (!queue_st.ok()) return ErrorResponse(queue_st);
  std::lock_guard<std::mutex> slot_lock(slot->mu);
  if (RequestQueue::Clock::now() >= deadline) {
    return ErrorResponse(
        DeadlineExceeded("request deadline passed after dequeue, before "
                         "execution"));
  }

  HoloCleanConfig config = slot->has_run ? slot->config
                                         : options_.default_config;
  Status st = ApplyConfigOverrides(req.config_overrides, &config);
  if (!st.ok()) return ErrorResponse(st);

  // Reuse the warm parked session (or its spilled snapshot) when there is
  // one; open cold otherwise. The stream layer delta-detects only the
  // blocks the new rows touch, then — serving exact mode — re-runs the
  // model stages, so repairs are bit-identical to a from-scratch clean of
  // the grown table.
  SessionOptions session_options;
  session_options.config = config;
  session_options.cache_key = key;
  Result<Session> session = engine_.OpenSession(
      CleaningInputs::Owned(slot->dataset, slot->dcs), session_options);
  if (!session.ok()) return ErrorResponse(session.status());

  StreamOptions stream_options;
  stream_options.mode = StreamMode::kExact;
  StreamSession stream(&session.value(), stream_options);
  Result<Report> report = stream.AppendRows(req.rows);
  if (!report.ok()) return ErrorResponse(report.status());

  const StreamStats& stats = stream.stats();
  slot->stream_appended_rows += stats.appended_rows;
  slot->stream_batches += stats.batches;
  slot->stream_compactions += stats.compactions;
  slot->stream_last_batch_seconds = stats.last_batch.total_seconds;

  JsonValue resp = OkResponse();
  resp.Set("appended", JsonValue::Number(
                           static_cast<uint64_t>(stats.appended_rows)));
  resp.Set("rows",
           JsonValue::Number(
               static_cast<uint64_t>(slot->dataset->dirty().num_rows())));
  resp.Set("report", ReportToJson(report.value(), slot->dataset->dirty()));
  slot->config = config;
  slot->has_run = true;
  engine_.CacheSession(key, std::move(session).value());
  return resp;
}

JsonValue CleaningServer::ServerStatusJson() {
  JsonValue server = JsonValue::Object();
  server.Set("draining", JsonValue::Bool(draining_.load()));
  server.Set("requests_total",
             JsonValue::Number(requests_total_.load()));
  server.Set("ok_total", JsonValue::Number(ok_total_.load()));
  server.Set("retried_requests",
             JsonValue::Number(retried_requests_.load()));
  server.Set("socket_timeouts",
             JsonValue::Number(socket_timeouts_.load()));
  server.Set("global_inflight",
             JsonValue::Number(
                 static_cast<uint64_t>(admission_.total_inflight())));

  RequestQueue::Stats qs = queue_.stats();
  JsonValue queue = JsonValue::Object();
  queue.Set("depth", JsonValue::Number(static_cast<uint64_t>(qs.depth)));
  queue.Set("max_depth",
            JsonValue::Number(
                static_cast<uint64_t>(queue_.options().max_depth)));
  queue.Set("enqueued", JsonValue::Number(qs.enqueued));
  queue.Set("granted_after_wait", JsonValue::Number(qs.granted_after_wait));
  queue.Set("rejected_full", JsonValue::Number(qs.rejected_full));
  queue.Set("expired_in_queue", JsonValue::Number(qs.expired_in_queue));
  queue.Set("cancelled", JsonValue::Number(qs.cancelled));
  server.Set("queue", std::move(queue));

  JsonValue errors = JsonValue::Object();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    for (const auto& [code, count] : error_counts_) {
      errors.Set(code, JsonValue::Number(count));
    }
  }
  server.Set("errors", std::move(errors));
  return server;
}

JsonValue CleaningServer::DoExplainStatus(const Request& req) {
  // Without a (tenant, dataset) target the op reports server-wide health
  // only — the ops view a load balancer or smoke test polls.
  if (req.tenant.empty() && req.dataset.empty()) {
    JsonValue resp = OkResponse();
    resp.Set("server", ServerStatusJson());
    return resp;
  }
  Result<std::shared_ptr<const DatasetRegistry::Entry>> entry =
      registry_.Find(req.tenant, req.dataset);
  if (!entry.ok()) return ErrorResponse(entry.status());

  const std::string key = RegistryKey(req.tenant, req.dataset);
  JsonValue resp = OkResponse();
  resp.Set("rows", JsonValue::Number(
                       static_cast<uint64_t>(entry.value()->base->num_rows())));
  resp.Set("attrs",
           JsonValue::Number(static_cast<uint64_t>(
               entry.value()->base->schema().num_attrs())));
  resp.Set("num_dcs", JsonValue::Number(
                          static_cast<uint64_t>(entry.value()->dcs->size())));
  resp.Set("warm", JsonValue::Bool(engine_.HasCachedSession(key)));
  resp.Set("spilled", JsonValue::Bool(engine_.HasSpilledSession(key)));
  resp.Set("tenant_inflight",
           JsonValue::Number(
               static_cast<uint64_t>(admission_.inflight(req.tenant))));
  resp.Set("draining", JsonValue::Bool(draining_.load()));
  {
    std::lock_guard<std::mutex> lock(slots_mu_);
    auto it = slots_.find(key);
    bool has_run = false;
    JsonValue stream = JsonValue::Object();
    stream.Set("appended_rows", JsonValue::Number(uint64_t{0}));
    stream.Set("batches", JsonValue::Number(uint64_t{0}));
    stream.Set("compactions", JsonValue::Number(uint64_t{0}));
    stream.Set("last_batch_seconds", JsonValue::Number(0.0));
    if (it != slots_.end()) {
      std::lock_guard<std::mutex> slot_lock(it->second->mu);
      has_run = it->second->has_run;
      stream.Set("appended_rows",
                 JsonValue::Number(static_cast<uint64_t>(
                     it->second->stream_appended_rows)));
      stream.Set("batches", JsonValue::Number(static_cast<uint64_t>(
                                it->second->stream_batches)));
      stream.Set("compactions",
                 JsonValue::Number(static_cast<uint64_t>(
                     it->second->stream_compactions)));
      stream.Set("last_batch_seconds",
                 JsonValue::Number(it->second->stream_last_batch_seconds));
    }
    resp.Set("has_run", JsonValue::Bool(has_run));
    resp.Set("stream", std::move(stream));
  }
  resp.Set("server", ServerStatusJson());
  return resp;
}

// --- TCP front end -----------------------------------------------------------

Status CleaningServer::Start() {
  if (listen_fd_ >= 0) return Status::InvalidArgument("already started");
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status st = Status::Internal(std::string("bind: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  if (::listen(fd, 64) < 0) {
    Status st =
        Status::Internal(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  listen_fd_ = fd;
  stopping_.store(false);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void CleaningServer::AcceptLoop() {
  while (!stopping_.load()) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // Listener shut down (or unrecoverable): stop accepting.
    }
    if (!HOLO_FAILPOINT("serve.accept").ok()) {
      // An injected accept failure drops this connection on the floor —
      // the client sees a reset, the server keeps serving everyone else.
      ::close(fd);
      continue;
    }
    if (options_.socket_timeout_ms > 0) {
      timeval tv{};
      tv.tv_sec = options_.socket_timeout_ms / 1000;
      tv.tv_usec = (options_.socket_timeout_ms % 1000) * 1000;
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    }
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (stopping_.load()) {
      ::close(fd);
      break;
    }
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back([this, fd] { ServeConnection(fd); });
  }
}

void CleaningServer::ServeConnection(int fd) {
  for (;;) {
    Result<JsonValue> frame = ReadFrame(fd);
    if (!frame.ok()) {
      if (IsTimeout(frame.status())) {
        socket_timeouts_.fetch_add(1, std::memory_order_relaxed);
      }
      // Clean close (kNotFound) and idle timeouts end the connection
      // silently — nothing was in flight, the client may reconnect. A
      // framing error, socket error, or mid-frame timeout gets one
      // best-effort error frame first; the stream is out of sync, so the
      // connection cannot continue either way.
      if (frame.status().code() != StatusCode::kNotFound &&
          !IsIdleTimeout(frame.status())) {
        WriteFrame(fd, ErrorResponse(frame.status()));
      }
      break;
    }
    JsonValue response = Handle(frame.value());
    Status wrote = WriteFrame(fd, response);
    if (!wrote.ok()) {
      if (IsTimeout(wrote)) {
        socket_timeouts_.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    }
  }
  ::shutdown(fd, SHUT_RDWR);
}

void CleaningServer::Stop() {
  if (stopping_.exchange(true)) {
    // A second Stop still waits for threads the first one may be joining.
  }
  // Fail queued waiters before joining connection threads: a request
  // parked in the queue IS a blocked connection thread, and joining it
  // without waking it would deadlock the shutdown.
  queue_.Close(Status::OutOfRange(
      draining_.load() ? "draining: server is draining"
                       : "draining: server is stopping"));
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);  // Wakes the blocked accept().
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<std::thread> threads;
  std::vector<int> fds;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    threads.swap(conn_threads_);
    fds.swap(conn_fds_);
  }
  // SHUT_RD pops idle connections out of their blocking read while letting
  // an in-flight response finish writing.
  for (int fd : fds) ::shutdown(fd, SHUT_RD);
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  for (int fd : fds) ::close(fd);
}

// --- Drain / restore ---------------------------------------------------------

Status CleaningServer::Drain() {
  draining_.store(true);
  Stop();
  if (options_.state_directory.empty()) return Status::OK();

  JsonValue manifest = JsonValue::Object();
  manifest.Set("version", JsonValue::Number(kProtocolVersion));

  JsonValue datasets = JsonValue::Array();
  for (const auto& entry : registry_.List()) {
    JsonValue d = JsonValue::Object();
    d.Set("tenant", JsonValue::String(entry->tenant));
    d.Set("dataset", JsonValue::String(entry->dataset));
    d.Set("csv", JsonValue::String(entry->csv_text));
    d.Set("constraints", JsonValue::String(entry->dc_text));
    datasets.Append(std::move(d));
  }
  manifest.Set("datasets", std::move(datasets));

  JsonValue sessions = JsonValue::Array();
  for (auto& [key, session] : engine_.TakeAllCachedSessions()) {
    size_t slash = key.find('/');
    if (slash == std::string::npos) continue;
    const std::string tenant = key.substr(0, slash);
    const std::string dataset = key.substr(slash + 1);
    if (!registry_.Find(tenant, dataset).ok()) continue;  // Dropped.
    const std::string name = SessionSnapshotName(tenant, dataset);
    const std::string path = options_.state_directory + "/" + name;
    Status st = session.Save(path);
    if (!st.ok()) {
      HOLO_LOG(kWarning) << "drain: dropping session " << key << ": " << st;
      continue;  // Losing warm state degrades to a cold restart, not an error.
    }
    JsonValue s = JsonValue::Object();
    s.Set("tenant", JsonValue::String(tenant));
    s.Set("dataset", JsonValue::String(dataset));
    s.Set("snapshot", JsonValue::String(name));
    s.Set("config", ConfigToJson(session.config()));
    sessions.Append(std::move(s));
  }
  manifest.Set("sessions", std::move(sessions));

  return WriteFileText(options_.state_directory + "/manifest.json",
                       manifest.Dump() + "\n");
}

Status CleaningServer::RestoreState() {
  if (options_.state_directory.empty()) return Status::OK();
  const std::string manifest_path =
      options_.state_directory + "/manifest.json";
  std::string text;
  Status st = ReadFileText(manifest_path, &text);
  if (st.code() == StatusCode::kNotFound) return Status::OK();  // Fresh start.
  HOLO_RETURN_NOT_OK(st);
  HOLO_ASSIGN_OR_RETURN(manifest, JsonValue::Parse(text));

  if (const JsonValue* datasets = manifest.Find("datasets")) {
    for (const JsonValue& d : datasets->items()) {
      HOLO_RETURN_NOT_OK(registry_.Register(
          d.GetString("tenant"), d.GetString("dataset"), d.GetString("csv"),
          d.GetString("constraints")));
      auto entry =
          registry_.Find(d.GetString("tenant"), d.GetString("dataset"));
      if (entry.ok()) engine_.SeedDictionary(entry.value()->base->dict());
    }
  }

  if (const JsonValue* sessions = manifest.Find("sessions")) {
    for (const JsonValue& s : sessions->items()) {
      const std::string tenant = s.GetString("tenant");
      const std::string dataset = s.GetString("dataset");
      auto entry = registry_.Find(tenant, dataset);
      if (!entry.ok()) continue;
      const std::string key = RegistryKey(tenant, dataset);
      std::shared_ptr<TenantSlot> slot = GetOrCreateSlot(entry.value());
      std::lock_guard<std::mutex> slot_lock(slot->mu);
      HoloCleanConfig config;
      if (const JsonValue* cj = s.Find("config")) config = ConfigFromJson(*cj);
      SessionOptions session_options;
      session_options.config = config;
      session_options.snapshot_path =
          options_.state_directory + "/" + s.GetString("snapshot");
      Result<Session> session = engine_.OpenSession(
          CleaningInputs::Owned(slot->dataset, slot->dcs), session_options);
      if (!session.ok()) {
        // A bad snapshot costs warmth, not correctness: the next request
        // opens cold over the freshly registered base data.
        HOLO_LOG(kWarning) << "restore: session " << key
                           << " opens cold: " << session.status();
        continue;
      }
      slot->config = config;
      slot->has_run = true;
      engine_.CacheSession(key, std::move(session).value());
    }
  }
  return Status::OK();
}

}  // namespace serve
}  // namespace holoclean
