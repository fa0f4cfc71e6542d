#include "server/query_service.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "common/logging.h"
#include "mem/governor.h"
#include "obs/flight_recorder.h"
#include "obs/introspect.h"
#include "obs/metrics_registry.h"
#include "obs/query_profile.h"
#include "testing/chaos.h"

namespace idf::server {

namespace {

/// server.* metric handles, resolved once (see obs/metrics_registry.h).
struct ServerMetrics {
  obs::Gauge& queue_depth =
      obs::Registry::Global().GetGauge("server.queue_depth");
  obs::Gauge& running = obs::Registry::Global().GetGauge("server.running");
  obs::Counter& rejected = obs::Registry::Global().GetCounter("server.rejected");
  obs::Counter& cancelled =
      obs::Registry::Global().GetCounter("server.cancelled");
  obs::Counter& expired =
      obs::Registry::Global().GetCounter("server.deadline_expired");
  obs::Histogram& query_seconds =
      obs::Registry::Global().GetHistogram("server.query.seconds");
  obs::Histogram& queued_seconds =
      obs::Registry::Global().GetHistogram("server.queued.seconds");

  static ServerMetrics& Get() {
    static ServerMetrics* metrics = new ServerMetrics();
    return *metrics;
  }
};

bool Terminal(QueryState s) {
  return s != QueryState::kQueued && s != QueryState::kRunning;
}

std::string JsonEscape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    } else {
      out += ' ';
    }
  }
  return out;
}

}  // namespace

namespace detail {

/// Shared state of one query, owned jointly by the service, the client's
/// QueryHandle, and (while running) a driver thread. `mu` guards the state
/// machine; the service's mu_ guards queue membership. Lock ordering:
/// service mu_ may nest rec->mu inside it (QueriesJson), never the reverse
/// — Finish drops rec->mu before touching the service queues.
struct QueryRecord {
  uint64_t id = 0;
  std::string label;
  uint32_t name_id = 0;  // interned label for flight-recorder events
  int32_t priority = 0;
  uint64_t reservation = 0;
  int64_t submit_us = 0;
  int64_t deadline_us = 0;  // 0 = none
  QueryControl control;
  QueryWork work;

  mutable std::mutex mu;
  std::condition_variable cv;  // fires on terminal transition
  QueryState state = QueryState::kQueued;
  Status status;
  bool reserved = false;  // holds a governor reservation right now
  CollectedTable result;
  int64_t start_us = 0;
  int64_t finish_us = 0;
  bool slow = false;  // logged as slow: its profile outlives the tail
};

}  // namespace detail

using detail::QueryRecord;

namespace {

/// One query's /queries row: the record's state machine plus a summary of
/// its resource profile (the full profile, with per-stage rows and the
/// query's recent events, is served at /queries/<id>).
std::string RenderQueryJson(const std::shared_ptr<QueryRecord>& rec,
                            int64_t now) {
  std::lock_guard<std::mutex> lk(rec->mu);
  const int64_t end = Terminal(rec->state) ? rec->finish_us : now;
  const double age = static_cast<double>(end - rec->submit_us) * 1e-6;
  std::string out = "{\"id\":" + std::to_string(rec->id);
  if (!rec->label.empty()) {
    out += ",\"label\":\"" + JsonEscape(rec->label) + "\"";
  }
  out += ",\"state\":\"" + std::string(QueryStateName(rec->state)) + "\"";
  out += ",\"age_seconds\":" + std::to_string(age);
  out += ",\"reserved_bytes\":" +
         std::to_string(rec->reserved ? rec->reservation : 0);
  out += ",\"reservation_bytes\":" + std::to_string(rec->reservation);
  out += ",\"priority\":" + std::to_string(rec->priority);
  out += ",\"stages_completed\":" +
         std::to_string(rec->control.stages_completed());
  obs::QueryProfileSnapshot snap;
  if (obs::QueryProfileRegistry::Global().Snapshot(rec->id, &snap)) {
    out += ",\"tasks\":" + std::to_string(snap.tasks);
    out += ",\"task_wall_us\":" + std::to_string(snap.task_wall_us);
    out += ",\"resident_hits\":" + std::to_string(snap.resident_hits);
    out += ",\"resident_misses\":" + std::to_string(snap.resident_misses);
    out += ",\"bytes_spilled\":" + std::to_string(snap.bytes_spilled);
    out += ",\"bytes_reloaded\":" + std::to_string(snap.bytes_reloaded);
    out += ",\"peak_pinned_bytes\":" + std::to_string(snap.peak_pinned_bytes);
    out += ",\"admission_wait_us\":" + std::to_string(snap.admission_wait_us);
  }
  if (Terminal(rec->state) && !rec->status.ok()) {
    out += ",\"status\":\"" + JsonEscape(rec->status.ToString()) + "\"";
  }
  return out + "}";
}

}  // namespace

const char* QueryStateName(QueryState state) {
  switch (state) {
    case QueryState::kQueued: return "queued";
    case QueryState::kRunning: return "running";
    case QueryState::kDone: return "done";
    case QueryState::kFailed: return "failed";
    case QueryState::kCancelled: return "cancelled";
    case QueryState::kExpired: return "expired";
    case QueryState::kRejected: return "rejected";
  }
  return "unknown";
}

// ---- QueryHandle ------------------------------------------------------------

uint64_t QueryHandle::id() const { return rec_ != nullptr ? rec_->id : 0; }

Status QueryHandle::Wait() {
  IDF_CHECK_MSG(rec_ != nullptr, "Wait on an invalid QueryHandle");
  std::unique_lock<std::mutex> lk(rec_->mu);
  rec_->cv.wait(lk, [&] { return Terminal(rec_->state); });
  return rec_->status;
}

bool QueryHandle::Done() const {
  if (rec_ == nullptr) return false;
  std::lock_guard<std::mutex> lk(rec_->mu);
  return Terminal(rec_->state);
}

QueryState QueryHandle::state() const {
  IDF_CHECK_MSG(rec_ != nullptr, "state on an invalid QueryHandle");
  std::lock_guard<std::mutex> lk(rec_->mu);
  return rec_->state;
}

Status QueryHandle::status() const {
  IDF_CHECK_MSG(rec_ != nullptr, "status on an invalid QueryHandle");
  std::lock_guard<std::mutex> lk(rec_->mu);
  return rec_->status;
}

void QueryHandle::Cancel() {
  if (rec_ == nullptr) return;
  // Cooperative: the flag is observed by the admission loop (queued), the
  // engine's task boundaries (running), and the driver's post-work check.
  rec_->control.Cancel();
}

Result<CollectedTable> QueryHandle::TakeResult() {
  IDF_CHECK_MSG(rec_ != nullptr, "TakeResult on an invalid QueryHandle");
  std::lock_guard<std::mutex> lk(rec_->mu);
  if (!Terminal(rec_->state)) {
    return Status::FailedPrecondition("query still in flight");
  }
  if (!rec_->status.ok()) return rec_->status;
  return std::move(rec_->result);
}

uint32_t QueryHandle::stages_completed() const {
  return rec_ != nullptr ? rec_->control.stages_completed() : 0;
}

// ---- config -----------------------------------------------------------------

QueryServiceConfig QueryServiceConfig::FromEnv() {
  QueryServiceConfig config;
  if (const char* env = std::getenv("IDF_SERVE_WORKERS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) {
      config.workers = static_cast<uint32_t>(v);
    } else {
      IDF_LOG_WARN("ignoring unparsable IDF_SERVE_WORKERS='%s'", env);
    }
  }
  if (const char* env = std::getenv("IDF_ADMIT_RESERVATION")) {
    Result<uint64_t> parsed = mem::ParseByteSize(env);
    if (parsed.ok()) {
      config.default_reservation_bytes = *parsed;
    } else {
      IDF_LOG_WARN("ignoring unparsable IDF_ADMIT_RESERVATION='%s'", env);
    }
  }
  return config;
}

namespace {

/// IDF_SLOW_QUERY_MS: a query whose running phase takes at least this many
/// milliseconds emits one structured `slow_query {...}` WARN line carrying
/// its full resource profile (docs/OBSERVABILITY.md). Unset = disabled (-1).
int64_t SlowQueryMsFromEnv() {
  const char* env = std::getenv("IDF_SLOW_QUERY_MS");
  if (env == nullptr || env[0] == '\0') return -1;
  char* end = nullptr;
  const long long v = std::strtoll(env, &end, 10);
  if (end == env || *end != '\0' || v < 0) {
    IDF_LOG_WARN("ignoring unparsable IDF_SLOW_QUERY_MS='%s'", env);
    return -1;
  }
  return static_cast<int64_t>(v);
}

}  // namespace

// ---- /queries introspection -------------------------------------------------

namespace {

// Live services, so the process-wide /queries handler (registered once,
// never removed — the introspection server is a leaky singleton) can always
// resolve the current set.
std::mutex g_services_mu;
std::vector<QueryService*> g_services;

void RegisterServiceForIntrospection(QueryService* service) {
  std::lock_guard<std::mutex> lk(g_services_mu);
  g_services.push_back(service);
  static bool handler_installed = false;
  if (!handler_installed) {
    handler_installed = true;
    obs::IntrospectionServer::Global().AddJsonHandler("/queries", [] {
      std::lock_guard<std::mutex> lock(g_services_mu);
      std::string out = "[";
      for (QueryService* s : g_services) {
        if (out.size() > 1) out += ",";
        out += s->QueriesJson();
      }
      return out + "]";
    });
    obs::IntrospectionServer::Global().AddPrefixHandler(
        "/queries/", [](const std::string& path) -> std::string {
          // /queries/<id>: one query's record, its full resource profile,
          // and its slice of the recent event ring. Returning "" makes the
          // server answer 404 (unparsable or unknown id).
          const char* tail = path.c_str() + sizeof("/queries/") - 1;
          char* end = nullptr;
          const unsigned long long id = std::strtoull(tail, &end, 10);
          if (end == tail || *end != '\0' || id == 0) return "";
          std::string record;
          {
            std::lock_guard<std::mutex> lock(g_services_mu);
            for (QueryService* s : g_services) {
              record = s->QueryJson(id);
              if (!record.empty()) break;
            }
          }
          obs::QueryProfileSnapshot snap;
          const bool has_profile =
              obs::QueryProfileRegistry::Global().Snapshot(id, &snap);
          if (record.empty() && !has_profile) return "";
          std::string out = "{\"id\":" + std::to_string(id);
          out += ",\"record\":";
          out += record.empty() ? std::string("null") : record;
          out += ",\"profile\":";
          out += has_profile ? obs::QueryProfileJson(snap) : "null";
          // The newest ring events stamped with this id, oldest first,
          // bounded so a hot query cannot balloon the document.
          out += ",\"events\":[";
          const std::vector<obs::FlightEvent> events =
              obs::FlightRecorder::Global().Snapshot();
          std::vector<const obs::FlightEvent*> mine;
          for (const obs::FlightEvent& e : events) {
            if (e.q == id) mine.push_back(&e);
          }
          const size_t start = mine.size() > 128 ? mine.size() - 128 : 0;
          for (size_t i = start; i < mine.size(); ++i) {
            if (i > start) out += ",";
            out += obs::EventJson(*mine[i]);
          }
          return out + "]}";
        });
  }
}

void UnregisterServiceForIntrospection(QueryService* service) {
  std::lock_guard<std::mutex> lk(g_services_mu);
  g_services.erase(std::remove(g_services.begin(), g_services.end(), service),
                   g_services.end());
}

}  // namespace

// ---- QueryService -----------------------------------------------------------

QueryService::QueryService(Session& session, QueryServiceConfig config)
    : session_(session),
      config_(config),
      slow_query_ms_(SlowQueryMsFromEnv()) {
  IDF_CHECK_MSG(config_.workers > 0, "QueryService needs at least one worker");
  workers_.reserve(config_.workers);
  for (uint32_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  RegisterServiceForIntrospection(this);
}

QueryService::~QueryService() {
  Shutdown(/*cancel_pending=*/true);
  UnregisterServiceForIntrospection(this);
}

QueryHandle QueryService::Submit(QueryWork work, QueryOptions options) {
  ServerMetrics& sm = ServerMetrics::Get();
  obs::FlightRecorder& fr = obs::FlightRecorder::Global();

  auto rec = std::make_shared<QueryRecord>();
  // Process-global id sequence (shared with EXPLAIN ANALYZE's ephemeral
  // scopes) so the profile registry never merges queries from two services.
  // The control carries the id into the engine: pool workers re-install it
  // for attribution (obs/query_profile.h).
  rec->id = obs::AllocateQueryId();
  rec->control.set_query_id(rec->id);
  rec->label = std::move(options.label);
  rec->name_id = fr.InternName(rec->label);
  rec->priority = options.priority;
  rec->reservation = options.reservation_bytes != 0
                         ? options.reservation_bytes
                         : config_.default_reservation_bytes;
  rec->submit_us = QueryControl::NowMicros();
  if (options.deadline_seconds > 0) {
    rec->deadline_us =
        rec->submit_us + static_cast<int64_t>(options.deadline_seconds * 1e6);
    rec->control.SetDeadlineMicros(rec->deadline_us);
  }
  rec->work = std::move(work);

  Status reject;
  {
    std::lock_guard<std::mutex> lk(mu_);
    fr.Record(obs::EventType::kQuerySubmit, rec->name_id, rec->id,
              rec->reservation, queue_.size());
    if (stop_) {
      reject = Status::FailedPrecondition("query service is shut down");
    } else if (queue_.size() >= config_.max_queue) {
      reject = Status::ResourceExhausted(
          "admission queue full (" + std::to_string(queue_.size()) + " of " +
          std::to_string(config_.max_queue) + ")");
      fr.Record(obs::EventType::kQueryReject, rec->name_id, rec->id,
                rec->reservation, 0);
    } else {
      queue_.push_back(rec);
      live_.push_back(rec);
      sm.queue_depth.Set(static_cast<double>(queue_.size()));
    }
  }
  if (!reject.ok()) {
    Finish(rec, QueryState::kRejected, std::move(reject));
  } else {
    work_cv_.notify_one();
  }
  return QueryHandle(std::move(rec));
}

std::shared_ptr<QueryRecord> QueryService::PopLocked() {
  // Highest priority first; FIFO (submit order) within a priority. The
  // queue is small (max_queue bounded), so a linear scan beats maintaining
  // a heap that would lose submit order.
  auto best = queue_.begin();
  for (auto it = std::next(queue_.begin()); it != queue_.end(); ++it) {
    if ((*it)->priority > (*best)->priority) best = it;
  }
  std::shared_ptr<QueryRecord> rec = std::move(*best);
  queue_.erase(best);
  return rec;
}

void QueryService::WorkerLoop() {
  ServerMetrics& sm = ServerMetrics::Get();
  obs::FlightRecorder& fr = obs::FlightRecorder::Global();
  mem::MemoryGovernor& gov = mem::MemoryGovernor::Global();

  while (true) {
    std::shared_ptr<QueryRecord> rec;
    bool cancelling = false;
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      rec = PopLocked();
      cancelling = stop_ && cancel_pending_;
      sm.queue_depth.Set(static_cast<double>(queue_.size()));
    }

    // Chaos admission site: stall between dequeue and the pre-admission
    // checks, widening the window in which a client cancel or deadline can
    // land on a queued query (admission-queue churn).
    if (chaos::ChaosEngine::Active()) {
      const uint32_t delay_us =
          chaos::ChaosEngine::Global().OnAdmissionDelayUs(rec->id);
      if (delay_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
      }
    }

    // Pre-admission resolution of queries that should never start.
    const int64_t now = QueryControl::NowMicros();
    if (cancelling) {
      Finish(rec, QueryState::kCancelled,
             Status::Cancelled("query service shut down"));
      continue;
    }
    if (rec->control.cancel_requested()) {
      fr.Record(obs::EventType::kQueryCancel, rec->name_id, rec->id, 0,
                static_cast<uint64_t>(now - rec->submit_us));
      Finish(rec, QueryState::kCancelled,
             Status::Cancelled("query cancelled while queued"));
      continue;
    }
    if (rec->deadline_us != 0 && now >= rec->deadline_us) {
      fr.Record(obs::EventType::kQueryDeadline, rec->name_id, rec->id, 0,
                static_cast<uint64_t>(now - rec->submit_us));
      Finish(rec, QueryState::kExpired,
             Status::DeadlineExceeded("deadline expired while queued"));
      continue;
    }

    // Admission: reserve the declared working set against the governor's
    // budget. A reservation that can never fit is rejected under either
    // policy; a transient shortfall blocks this driver (kQueue) or rejects
    // (kReject). Other drivers keep serving while this one waits, so one
    // over-sized query cannot idle the pool.
    const uint64_t budget = gov.budget_bytes();
    if (budget > 0 && rec->reservation > budget) {
      fr.Record(obs::EventType::kQueryReject, rec->name_id, rec->id,
                rec->reservation, 1);
      Finish(rec, QueryState::kRejected,
             Status::ResourceExhausted(
                 "reservation of " + std::to_string(rec->reservation) +
                 " bytes exceeds the whole budget (" + std::to_string(budget) +
                 ")"));
      continue;
    }
    Status admit = gov.TryReserve(rec->reservation);
    if (!admit.ok() && config_.policy == AdmitPolicy::kReject) {
      fr.Record(obs::EventType::kQueryReject, rec->name_id, rec->id,
                rec->reservation, 1);
      Finish(rec, QueryState::kRejected, std::move(admit));
      continue;
    }
    bool resolved = false;
    while (!admit.ok()) {
      {
        std::unique_lock<std::mutex> lk(mu_);
        if (stop_ && cancel_pending_) {
          lk.unlock();
          Finish(rec, QueryState::kCancelled,
                 Status::Cancelled("query service shut down"));
          resolved = true;
          break;
        }
        // Bounded wait instead of a pure cv wait: deadlines and cancels
        // must be observed even when no reservation is ever released.
        admission_cv_.wait_for(lk, std::chrono::milliseconds(5));
      }
      Status check = rec->control.Check();
      if (!check.ok()) {
        const bool cancelled = check.code() == StatusCode::kCancelled;
        fr.Record(cancelled ? obs::EventType::kQueryCancel
                            : obs::EventType::kQueryDeadline,
                  rec->name_id, rec->id, 0,
                  static_cast<uint64_t>(QueryControl::NowMicros() -
                                        rec->submit_us));
        Finish(rec,
               cancelled ? QueryState::kCancelled : QueryState::kExpired,
               std::move(check));
        resolved = true;
        break;
      }
      admit = gov.TryReserve(rec->reservation);
    }
    if (resolved) continue;

    {
      std::lock_guard<std::mutex> lk(rec->mu);
      rec->reserved = true;
    }
    const int64_t admitted_at = QueryControl::NowMicros();
    const uint64_t queued_us =
        static_cast<uint64_t>(admitted_at - rec->submit_us);
    fr.Record(obs::EventType::kQueryAdmit, rec->name_id, rec->id,
              rec->reservation, queued_us);
    sm.queued_seconds.Observe(static_cast<double>(queued_us) * 1e-6);
    obs::QueryProfileRegistry::Global().Get(rec->id)->admission_wait_us
        .fetch_add(queued_us, std::memory_order_relaxed);
    RunQuery(rec);
  }
}

void QueryService::RunQuery(const std::shared_ptr<QueryRecord>& rec) {
  ServerMetrics& sm = ServerMetrics::Get();
  obs::FlightRecorder& fr = obs::FlightRecorder::Global();

  // Attribute everything this driver thread does — the kQueryStart/
  // kQueryFinish events below, sequential stages, spills its allocations
  // force — to this query; pool workers re-install the id from the control.
  obs::QueryScope query_scope(rec->id);
  {
    std::lock_guard<std::mutex> lk(rec->mu);
    rec->state = QueryState::kRunning;
    rec->start_us = QueryControl::NowMicros();
  }
  sm.running.Add(1);
  fr.Record(obs::EventType::kQueryStart, rec->name_id, rec->id,
            rec->reservation, static_cast<uint64_t>(rec->priority));

  QueryContext ctx{rec->id, rec->control, session_, {}};
  Status status;
  {
    // Everything the work runs — planning, stages, nested collect — sees
    // this query's control at task boundaries (engine/cancel.h).
    ScopedQueryControl scoped(&rec->control);
    status = rec->work ? rec->work(ctx) : Status::OK();
  }
  // A cancel/deadline that landed after the work's last engine check still
  // claims the query (clients get a definitive kCancelled, not a result
  // raced against their own Cancel call).
  if (status.ok()) status = rec->control.Check();

  const int64_t finished_at = QueryControl::NowMicros();
  const uint64_t run_us = static_cast<uint64_t>(finished_at - rec->start_us);
  sm.running.Add(-1);
  sm.query_seconds.Observe(static_cast<double>(run_us) * 1e-6);

  QueryState state = QueryState::kDone;
  if (status.code() == StatusCode::kCancelled) {
    state = QueryState::kCancelled;
    fr.Record(obs::EventType::kQueryCancel, rec->name_id, rec->id, 1,
              static_cast<uint64_t>(finished_at - rec->submit_us));
  } else if (status.code() == StatusCode::kDeadlineExceeded) {
    state = QueryState::kExpired;
    fr.Record(obs::EventType::kQueryDeadline, rec->name_id, rec->id, 1,
              static_cast<uint64_t>(finished_at - rec->submit_us));
  } else if (!status.ok()) {
    state = QueryState::kFailed;
  }
  fr.Record(obs::EventType::kQueryFinish, rec->name_id, rec->id,
            static_cast<uint64_t>(status.code()), run_us);
  if (slow_query_ms_ >= 0 &&
      run_us >= static_cast<uint64_t>(slow_query_ms_) * 1000) {
    // One structured line per slow query: grep for `slow_query ` and the
    // rest of the line is a JSON object (docs/OBSERVABILITY.md).
    rec->slow = true;
    obs::QueryProfileSnapshot snap;
    const std::string profile =
        obs::QueryProfileRegistry::Global().Snapshot(rec->id, &snap)
            ? obs::QueryProfileJson(snap)
            : "null";
    IDF_LOG_WARN(
        "slow_query {\"query_id\":%llu,\"label\":\"%s\",\"state\":\"%s\","
        "\"run_ms\":%llu,\"queued_ms\":%llu,\"profile\":%s}",
        static_cast<unsigned long long>(rec->id),
        JsonEscape(rec->label).c_str(), QueryStateName(state),
        static_cast<unsigned long long>(run_us / 1000),
        static_cast<unsigned long long>(
            (rec->start_us - rec->submit_us) / 1000),
        profile.c_str());
  }
  if (status.ok()) {
    std::lock_guard<std::mutex> lk(rec->mu);
    rec->result = std::move(ctx.result);
  }
  Finish(rec, state, std::move(status));
}

void QueryService::Finish(const std::shared_ptr<QueryRecord>& rec,
                          QueryState state, Status status) {
  ServerMetrics& sm = ServerMetrics::Get();
  bool release = false;
  {
    std::lock_guard<std::mutex> lk(rec->mu);
    if (Terminal(rec->state)) return;
    // The one count of a terminal outcome, made before the state is
    // published: a client whose Wait() returned already sees it.
    switch (state) {
      case QueryState::kCancelled: sm.cancelled.Increment(); break;
      case QueryState::kExpired: sm.expired.Increment(); break;
      case QueryState::kRejected: sm.rejected.Increment(); break;
      default: break;
    }
    rec->state = state;
    rec->status = std::move(status);
    rec->finish_us = QueryControl::NowMicros();
    release = rec->reserved;
    rec->reserved = false;
  }
  if (release) {
    mem::MemoryGovernor::Global().ReleaseReservation(rec->reservation);
    admission_cv_.notify_all();
  }
  std::vector<uint64_t> retired;
  {
    std::lock_guard<std::mutex> lk(mu_);
    live_.erase(std::remove(live_.begin(), live_.end(), rec), live_.end());
    finished_.push_back(rec);
    // Bounded recent-history tail for /queries. A query leaving it takes
    // its profile along, unless the slow-query log pointed at it.
    while (finished_.size() > 64) {
      if (!finished_.front()->slow) retired.push_back(finished_.front()->id);
      finished_.pop_front();
    }
  }
  for (const uint64_t id : retired) {
    obs::QueryProfileRegistry::Global().Retire(id);
  }
  rec->cv.notify_all();
}

void QueryService::Shutdown(bool cancel_pending) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (shut_down_) return;
    shut_down_ = true;
    stop_ = true;
    cancel_pending_ = cancel_pending;
  }
  if (cancel_pending) {
    // Cooperatively cancel everything in flight; queued entries resolve to
    // kCancelled as workers pop them.
    std::vector<std::shared_ptr<QueryRecord>> live;
    {
      std::lock_guard<std::mutex> lk(mu_);
      live = live_;
    }
    for (const auto& rec : live) rec->control.Cancel();
  }
  work_cv_.notify_all();
  admission_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
}

size_t QueryService::ActiveQueries() const {
  std::lock_guard<std::mutex> lk(mu_);
  return live_.size();
}

std::string QueryService::QueriesJson() const {
  const int64_t now = QueryControl::NowMicros();
  std::lock_guard<std::mutex> lk(mu_);
  std::string queries;
  for (const auto& rec : live_) {
    if (!queries.empty()) queries += ",";
    queries += RenderQueryJson(rec, now);
  }
  for (const auto& rec : finished_) {
    if (!queries.empty()) queries += ",";
    queries += RenderQueryJson(rec, now);
  }
  return "{\"workers\":" + std::to_string(config_.workers) +
         ",\"max_queue\":" + std::to_string(config_.max_queue) +
         ",\"queue_depth\":" + std::to_string(queue_.size()) +
         ",\"reserved_bytes\":" +
         std::to_string(mem::MemoryGovernor::Global().reserved_bytes()) +
         ",\"queries\":[" + queries + "]}";
}

std::string QueryService::QueryJson(uint64_t id) const {
  const int64_t now = QueryControl::NowMicros();
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& rec : live_) {
    if (rec->id == id) return RenderQueryJson(rec, now);
  }
  for (const auto& rec : finished_) {
    if (rec->id == id) return RenderQueryJson(rec, now);
  }
  return "";
}

}  // namespace idf::server
