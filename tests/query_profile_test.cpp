// Per-query resource attribution gate (obs/query_profile.h).
//
// The conservation property: per-query profiles are a *decomposition* of
// the global counters, not a parallel bookkeeping that can drift. Under
// the same 25%-budget concurrent mixed workload as the server determinism
// gate, the sum over all profiles (including the unattributed bucket 0) of
// spilled/reloaded bytes, evictions, tasks, steals, and residency hits/
// misses must equal the corresponding global mem.*/engine.*/sched.* metric
// deltas exactly, with one query cancelled mid-stage so that tasks failing
// their cancellation check before their body runs are counted too. Plus: attribution determinism across reruns (label-keyed
// task counts), QueryScope semantics, and the /queries/<id> endpoint.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/indexed_dataframe.h"
#include "mem/governor.h"
#include "obs/introspect.h"
#include "obs/metrics_registry.h"
#include "obs/query_profile.h"
#include "server/query_service.h"
#include "sql/columnar.h"
#include "sql/session.h"
#include "testing/chaos.h"

namespace idf {
namespace {

using server::AdmitPolicy;
using server::QueryHandle;
using server::QueryOptions;
using server::QueryService;
using server::QueryServiceConfig;

SchemaPtr EdgeSchema() {
  return std::make_shared<Schema>(Schema({
      {"src", TypeId::kInt64, false},
      {"dst", TypeId::kInt64, false},
      {"weight", TypeId::kFloat64, true},
  }));
}

std::vector<RowVec> DenseEdges(int64_t n, int64_t salt = 0) {
  std::vector<RowVec> rows;
  rows.reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    rows.push_back({Value::Int64((i + salt) % 97), Value::Int64(i),
                    Value::Float64(0.25 * static_cast<double>(i + salt))});
  }
  return rows;
}

SessionOptions ServeClusterOptions() {
  ::unsetenv("IDF_MEMORY_BUDGET");
  SessionOptions opts;
  opts.cluster.num_workers = 2;
  opts.cluster.executors_per_worker = 2;
  opts.cluster.cores_per_executor = 2;
  opts.default_partitions = 4;
  return opts;
}

QueryServiceConfig ServeConfig(uint32_t workers, uint64_t reservation) {
  QueryServiceConfig config;
  config.workers = workers;
  config.max_queue = 64;
  config.default_reservation_bytes = reservation;
  config.policy = AdmitPolicy::kQueue;
  return config;
}

struct Mixed {
  std::string name;
  server::QueryWork work;
};

/// The server gate's mixed workload: 4 indexed lookups (SQL), 2 indexed
/// joins, 2 appends reading a key back from their own new version. The
/// table name is parameterized so each test (and each rerun within a test)
/// registers a fresh catalog entry.
std::vector<Mixed> BuildWorkload(IndexedDataFrame& indexed,
                                 const std::string& table, DataFrame probe,
                                 DataFrame extra_a, DataFrame extra_b) {
  auto sql_work = [](std::string sql) {
    return [sql](server::QueryContext& ctx) -> Status {
      IDF_ASSIGN_OR_RETURN(DataFrame df, ctx.session.Sql(sql));
      IDF_ASSIGN_OR_RETURN(ctx.result, df.Collect());
      return Status::OK();
    };
  };
  auto join_work = [&indexed](DataFrame probe_df) {
    return [&indexed, probe_df](server::QueryContext& ctx) -> Status {
      IDF_ASSIGN_OR_RETURN(ctx.result, indexed.Join(probe_df, "src").Collect());
      return Status::OK();
    };
  };
  auto append_work = [&indexed](DataFrame rows, int64_t readback_key) {
    return [&indexed, rows, readback_key](server::QueryContext& ctx) -> Status {
      IDF_ASSIGN_OR_RETURN(IndexedDataFrame next, indexed.AppendRows(rows));
      IDF_ASSIGN_OR_RETURN(ctx.result,
                           next.GetRows(Value::Int64(readback_key)));
      return Status::OK();
    };
  };
  std::vector<Mixed> workload;
  for (int64_t key : {13, 42, 64, 96}) {
    workload.push_back(
        {"lookup_" + std::to_string(key),
         sql_work("SELECT * FROM " + table + " WHERE src = " +
                  std::to_string(key))});
  }
  workload.push_back({"join_probe", join_work(probe)});
  workload.push_back({"join_extra", join_work(extra_b)});
  workload.push_back({"append_a", append_work(extra_a, 7)});
  workload.push_back({"append_b", append_work(extra_b, 31)});
  return workload;
}

/// Map of every known profile, keyed by id (baseline for diffing).
std::map<uint64_t, obs::QueryProfileSnapshot> ProfilesById() {
  std::map<uint64_t, obs::QueryProfileSnapshot> out;
  for (obs::QueryProfileSnapshot& snap :
       obs::QueryProfileRegistry::Global().SnapshotAll()) {
    out[snap.id] = std::move(snap);
  }
  return out;
}

/// Minimal HTTP GET over loopback; returns the full response.
std::string HttpGet(uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  (void)!::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

// ---- scope & id semantics ---------------------------------------------------

TEST(QueryProfileTest, ScopeInstallsNestsAndRestores) {
  const uint64_t outer = obs::AllocateQueryId();
  const uint64_t inner = obs::AllocateQueryId();
  EXPECT_NE(outer, inner);
  EXPECT_EQ(obs::CurrentQueryId(), 0u);
  {
    obs::QueryScope a(outer);
    EXPECT_EQ(obs::CurrentQueryId(), outer);
    EXPECT_EQ(obs::CurrentQueryProfile()->id, outer);
    {
      obs::QueryScope b(inner);
      EXPECT_EQ(obs::CurrentQueryId(), inner);
      EXPECT_EQ(obs::CurrentQueryProfile()->id, inner);
    }
    EXPECT_EQ(obs::CurrentQueryId(), outer);
  }
  EXPECT_EQ(obs::CurrentQueryId(), 0u);
  EXPECT_EQ(obs::CurrentQueryProfile()->id, 0u);
}

TEST(QueryProfileTest, RetiredProfileFoldsIntoBucketOnceItsLastScopeCloses) {
  obs::QueryProfileRegistry& registry = obs::QueryProfileRegistry::Global();
  auto retired_tasks = [&registry] {
    obs::QueryProfileSnapshot snap;
    return registry.Snapshot(obs::kRetiredQueryId, &snap) ? snap.tasks : 0;
  };
  const uint64_t id = obs::AllocateQueryId();
  const uint64_t bucket_before = retired_tasks();
  {
    obs::QueryScope scope(id);
    obs::QueryProfile* profile = obs::CurrentQueryProfile();
    profile->tasks.fetch_add(5);
    {
      obs::QueryScope nested(id);  // same id: shares the outer pin
      obs::CurrentQueryProfile()->tasks.fetch_add(2);
    }
    // Retired while installed: the profile stays live, and still counts.
    registry.Retire(id);
    profile->tasks.fetch_add(1);
    obs::QueryProfileSnapshot snap;
    ASSERT_TRUE(registry.Snapshot(id, &snap));
    EXPECT_EQ(snap.tasks, 8u);
    EXPECT_EQ(retired_tasks(), bucket_before);
  }
  // The scope closed: the profile is gone and its counters moved over.
  obs::QueryProfileSnapshot snap;
  EXPECT_FALSE(registry.Snapshot(id, &snap));
  EXPECT_EQ(retired_tasks(), bucket_before + 8);

  // Retiring an idle profile folds it at once; unknown ids, bucket 0 and
  // the bucket itself are left alone.
  const uint64_t idle = obs::AllocateQueryId();
  registry.Get(idle)->tasks.fetch_add(3);
  registry.Get(0);
  const size_t size = registry.Ids().size();
  registry.Retire(idle);
  EXPECT_EQ(registry.Ids().size(), size - 1);
  EXPECT_EQ(retired_tasks(), bucket_before + 11);
  registry.Retire(idle);
  registry.Retire(0);
  registry.Retire(obs::kRetiredQueryId);
  EXPECT_EQ(registry.Ids().size(), size - 1);
  EXPECT_TRUE(registry.Snapshot(0, &snap));
}

TEST(QueryProfileTest, StandaloneExplainAnalyzeRetiresItsProfile) {
  // A standalone EXPLAIN ANALYZE allocates a query id for its profile
  // footer and retires it once the footer is written, so repeated runs
  // leave the number of live profiles unchanged.
  obs::QueryProfileRegistry& registry = obs::QueryProfileRegistry::Global();
  auto live_profiles = [&registry] {
    size_t live = 0;
    for (uint64_t id : registry.Ids()) {
      live += id != 0 && id != obs::kRetiredQueryId;
    }
    return live;
  };
  Session session(ServeClusterOptions());
  auto edges = *session.CreateTable("edges", EdgeSchema(), DenseEdges(400));
  const DataFrame query = edges.Filter(Ge(Col("weight"), Lit(10.0)));
  const size_t before = live_profiles();
  for (int run = 0; run < 100; ++run) {
    Result<std::string> text = query.ExplainAnalyze();
    ASSERT_TRUE(text.ok()) << text.status().ToString();
    ASSERT_NE(text->find("-- query "), std::string::npos) << *text;
  }
  EXPECT_EQ(live_profiles(), before);
}

TEST(QueryProfileTest, ProfileJsonCarriesEveryField) {
  obs::QueryProfileSnapshot snap;
  snap.id = 42;
  snap.tasks = 7;
  const std::string json = obs::QueryProfileJson(snap);
  for (const char* key :
       {"\"query_id\":42", "\"tasks\":7", "\"task_wall_us\"", "\"steals\"",
        "\"resident_hits\"", "\"resident_misses\"", "\"bytes_spilled\"",
        "\"evictions\"", "\"bytes_reloaded\"", "\"shuffle_pushed_bytes\"",
        "\"admission_wait_us\"", "\"peak_pinned_bytes\"", "\"stages\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
}

// ---- conservation gate ------------------------------------------------------

TEST(QueryProfileTest, ConservationUnderBudgetedConcurrentServe) {
  constexpr int64_t kRows = 8000;
  Session session(ServeClusterOptions());
  IndexOptions index_options;
  index_options.batch_capacity = 4 << 10;

  auto edges = *session.CreateTable("edges", EdgeSchema(), DenseEdges(kRows));
  auto probe = *session.CreateTable("probe", EdgeSchema(), DenseEdges(300));
  auto indexed = *IndexedDataFrame::Create(edges, "src", index_options);
  indexed.RegisterAs("indexed_edges");
  auto extra_a =
      *session.CreateTable("extra_a", EdgeSchema(), DenseEdges(1200, 7));
  auto extra_b =
      *session.CreateTable("extra_b", EdgeSchema(), DenseEdges(900, 31));
  // More partitions than scheduler threads, so the cancelled filter below
  // always claims a task after its cancel lands.
  auto wide = *session.CreateTable("wide", EdgeSchema(), DenseEdges(2000),
                                   /*partitions=*/32);
  std::vector<Mixed> workload =
      BuildWorkload(indexed, "indexed_edges", probe, extra_a, extra_b);

  mem::MemoryGovernor& gov = mem::MemoryGovernor::Global();
  const uint64_t resident = gov.resident_bytes();
  const uint64_t budget_bytes = std::max<uint64_t>(resident / 4, 256 << 10);

  // Baselines first (profiles from the table builds above, global
  // counters), then the budget squeeze: even the squeeze's own evictions
  // and spills must be conserved (they land in bucket 0).
  const std::map<uint64_t, obs::QueryProfileSnapshot> before = ProfilesById();
  obs::RegistryDelta delta;
  mem::ScopedBudget budget(budget_bytes);

  QueryService service(session,
                       ServeConfig(/*workers=*/4, budget_bytes / 8));

  // One more query, a filtered scan cancelled by the task-start hook at its first
  // task: the tasks its stage claims afterwards fail their cancellation
  // check before the body runs (task_fail with no body), and must count in
  // engine.tasks and its profile alike. The flag holds the scan until the
  // hook knows its id.
  std::atomic<uint64_t> victim_id{0};
  std::atomic<int> victim_starts{0};
  QueryHandle victim;
  std::mutex victim_mu;
  chaos::ChaosHooks hooks;
  hooks.on_task_start = [&] {
    if (obs::CurrentQueryId() != victim_id.load() ||
        victim_starts.fetch_add(1) != 0) {
      return;
    }
    std::lock_guard<std::mutex> lk(victim_mu);
    victim.Cancel();
  };
  chaos::ChaosEngine::SetHooks(std::move(hooks));
  std::atomic<bool> victim_go{false};
  {
    std::lock_guard<std::mutex> lk(victim_mu);
    QueryOptions options;
    options.label = "scan_cancelled";
    victim = service.Submit(
        [&](server::QueryContext& ctx) -> Status {
          while (!victim_go.load()) std::this_thread::yield();
          IDF_ASSIGN_OR_RETURN(
              ctx.result,
              wide.Filter(Gt(Col("dst"), Lit(int64_t{-1}))).Collect());
          return Status::OK();
        },
        options);
    victim_id.store(victim.id());
  }
  victim_go.store(true);

  std::vector<QueryHandle> handles;
  for (Mixed& m : workload) {
    QueryOptions options;
    options.label = m.name;
    handles.push_back(service.Submit(m.work, options));
  }
  for (size_t i = 0; i < handles.size(); ++i) {
    ASSERT_TRUE(handles[i].Wait().ok())
        << workload[i].name << ": " << handles[i].status().ToString();
  }
  EXPECT_EQ(victim.Wait().code(), StatusCode::kCancelled)
      << victim.status().ToString();
  service.Shutdown(/*cancel_pending=*/false);
  chaos::ChaosEngine::SetHooks({});

  obs::QueryProfileSnapshot sum;
  for (const obs::QueryProfileSnapshot& snap :
       obs::QueryProfileRegistry::Global().SnapshotAll()) {
    auto it = before.find(snap.id);
    const obs::QueryProfileSnapshot base =
        it != before.end() ? it->second : obs::QueryProfileSnapshot{};
    sum.tasks += snap.tasks - base.tasks;
    sum.steals += snap.steals - base.steals;
    sum.resident_hits += snap.resident_hits - base.resident_hits;
    sum.resident_misses += snap.resident_misses - base.resident_misses;
    sum.bytes_spilled += snap.bytes_spilled - base.bytes_spilled;
    sum.evictions += snap.evictions - base.evictions;
    sum.bytes_reloaded += snap.bytes_reloaded - base.bytes_reloaded;
    sum.shuffle_pushed_bytes +=
        snap.shuffle_pushed_bytes - base.shuffle_pushed_bytes;
  }

  // Conservation: the per-query decomposition sums back to the global
  // counters, field by field, exactly.
  EXPECT_EQ(sum.tasks, delta.Counter("engine.tasks"));
  EXPECT_EQ(sum.steals, delta.Counter("engine.scheduler.steals"));
  EXPECT_EQ(sum.resident_hits, delta.Counter("sched.resident_hits"));
  EXPECT_EQ(sum.resident_misses, delta.Counter("sched.resident_misses"));
  EXPECT_EQ(sum.bytes_spilled, delta.Counter("mem.spill.write_bytes"));
  EXPECT_EQ(sum.evictions, delta.Counter("mem.evictions"));
  EXPECT_EQ(sum.bytes_reloaded, delta.Counter("mem.reload.read_bytes"));
  EXPECT_EQ(sum.shuffle_pushed_bytes,
            delta.Counter("engine.shuffle.pushed_bytes"));

  // The workload really exercised the machinery: every query ran tasks,
  // and the 25% budget forced spill/reload traffic somewhere.
  EXPECT_GT(sum.tasks, 0u);
  EXPECT_GT(sum.bytes_spilled, 0u);
  for (const QueryHandle& h : handles) {
    obs::QueryProfileSnapshot snap;
    ASSERT_TRUE(obs::QueryProfileRegistry::Global().Snapshot(h.id(), &snap));
    EXPECT_GT(snap.tasks, 0u) << "query " << h.id();
    EXPECT_GT(snap.task_wall_us, 0u) << "query " << h.id();
    EXPECT_FALSE(snap.stages.empty()) << "query " << h.id();
  }
  // The cancelled filter started a task and then failed one at the
  // cancellation check, before its body; that task is in its profile's
  // task count as in its stage row.
  obs::QueryProfileSnapshot cancelled;
  ASSERT_TRUE(
      obs::QueryProfileRegistry::Global().Snapshot(victim.id(), &cancelled));
  EXPECT_GE(victim_starts.load(), 1);
  EXPECT_GT(cancelled.task_fails, 0u);
  uint64_t stage_tasks = 0;
  for (const auto& stage : cancelled.stages) stage_tasks += stage.tasks;
  EXPECT_EQ(cancelled.tasks, stage_tasks);
}

// ---- determinism across reruns ----------------------------------------------

TEST(QueryProfileTest, TaskAttributionIsDeterministicAcrossReruns) {
  // Steals and residency hits depend on thread timing, but the *tasks each
  // query runs* are a function of its plan alone. The label-keyed task
  // projection of the profiles must be identical across reruns.
  auto run = [](int round) {
    const std::string table = "det_edges_" + std::to_string(round);
    Session session(ServeClusterOptions());
    IndexOptions index_options;
    index_options.batch_capacity = 4 << 10;
    auto edges =
        *session.CreateTable(table + "_base", EdgeSchema(), DenseEdges(4000));
    auto probe =
        *session.CreateTable(table + "_probe", EdgeSchema(), DenseEdges(300));
    auto indexed = *IndexedDataFrame::Create(edges, "src", index_options);
    indexed.RegisterAs(table);
    auto extra_a =
        *session.CreateTable(table + "_a", EdgeSchema(), DenseEdges(1200, 7));
    auto extra_b =
        *session.CreateTable(table + "_b", EdgeSchema(), DenseEdges(900, 31));
    std::vector<Mixed> workload =
        BuildWorkload(indexed, table, probe, extra_a, extra_b);

    mem::MemoryGovernor& gov = mem::MemoryGovernor::Global();
    const uint64_t budget_bytes =
        std::max<uint64_t>(gov.resident_bytes() / 4, 256 << 10);
    mem::ScopedBudget budget(budget_bytes);
    QueryService service(session,
                         ServeConfig(/*workers=*/4, budget_bytes / 8));
    std::vector<QueryHandle> handles;
    for (Mixed& m : workload) {
      QueryOptions options;
      options.label = m.name;
      handles.push_back(service.Submit(m.work, options));
    }
    std::map<std::string, uint64_t> tasks_by_label;
    for (size_t i = 0; i < handles.size(); ++i) {
      EXPECT_TRUE(handles[i].Wait().ok()) << workload[i].name;
      obs::QueryProfileSnapshot snap;
      EXPECT_TRUE(
          obs::QueryProfileRegistry::Global().Snapshot(handles[i].id(), &snap));
      tasks_by_label[workload[i].name] = snap.tasks;
    }
    service.Shutdown(/*cancel_pending=*/false);
    return tasks_by_label;
  };
  const std::map<std::string, uint64_t> first = run(1);
  const std::map<std::string, uint64_t> second = run(2);
  EXPECT_EQ(first, second);
  for (const auto& [label, tasks] : first) {
    EXPECT_GT(tasks, 0u) << label;
  }
}

// ---- /queries/<id> endpoint -------------------------------------------------

TEST(QueryProfileTest, QueryEndpointServesRecordProfileAndEvents) {
  obs::IntrospectionServer& server = obs::IntrospectionServer::Global();
  Result<uint16_t> started = server.Start(0);
  const uint16_t port = started.ok() ? *started : server.port();
  ASSERT_GT(port, 0);

  Session session(ServeClusterOptions());
  auto edges =
      *session.CreateTable("ep_edges", EdgeSchema(), DenseEdges(2000));
  auto indexed = *IndexedDataFrame::Create(edges, "src", IndexOptions{});
  QueryService service(session, ServeConfig(/*workers=*/2, 1 << 20));
  QueryOptions options;
  options.label = "endpoint_probe";
  QueryHandle handle = service.Submit(
      [&indexed](server::QueryContext& ctx) -> Status {
        IDF_ASSIGN_OR_RETURN(ctx.result, indexed.GetRows(Value::Int64(13)));
        return Status::OK();
      },
      options);
  ASSERT_TRUE(handle.Wait().ok());

  const std::string doc =
      HttpGet(port, "/queries/" + std::to_string(handle.id()));
  EXPECT_NE(doc.find("200 OK"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"record\":"), std::string::npos);
  EXPECT_NE(doc.find("\"endpoint_probe\""), std::string::npos);
  EXPECT_NE(doc.find("\"profile\":"), std::string::npos);
  EXPECT_NE(doc.find("\"events\":["), std::string::npos);
  EXPECT_NE(doc.find("\"tasks\":"), std::string::npos);

  // Unknown id and malformed id answer 404, not 200-with-garbage.
  EXPECT_NE(HttpGet(port, "/queries/18446744073709551610").find("404"),
            std::string::npos);
  EXPECT_NE(HttpGet(port, "/queries/not-a-number").find("404"),
            std::string::npos);
  service.Shutdown(/*cancel_pending=*/false);
}

}  // namespace
}  // namespace idf
