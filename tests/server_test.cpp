// Query-service test suite (src/server/query_service.h, docs/SERVER.md).
//
// The acceptance gate for concurrent serving: M concurrent queries — mixed
// indexed lookups, joins, and appends over shared indexed tables, run under
// a 25% memory budget — must produce byte-identical per-query results to
// the same queries run serially. Plus: admission control (queue / reject /
// queue-overflow), cooperative cancellation and deadline expiry mid-stage
// and mid-shuffle, and the invariant that a cancelled query
// releases its reservation, leaks no pins or orphan blocks, and leaves
// shared state usable for every later query. And the slow-query log: one
// parsable `slow_query {...}` line per finished query.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "core/indexed_dataframe.h"
#include "json_checker.h"
#include "mem/governor.h"
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
using server::QueryState;

/// Installs chaos-bus hooks for the enclosing scope; always clears on exit.
class ScopedHooks {
 public:
  explicit ScopedHooks(chaos::ChaosHooks hooks) {
    chaos::ChaosEngine::SetHooks(std::move(hooks));
  }
  ~ScopedHooks() { chaos::ChaosEngine::SetHooks({}); }
  ScopedHooks(const ScopedHooks&) = delete;
  ScopedHooks& operator=(const ScopedHooks&) = delete;
};

/// One-shot gate: workers block in Wait() until Open() fires.
class Gate {
 public:
  void Open() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

SchemaPtr EdgeSchema() {
  return std::make_shared<Schema>(Schema({
      {"src", TypeId::kInt64, false},
      {"dst", TypeId::kInt64, false},
      {"weight", TypeId::kFloat64, true},
  }));
}

RowVec Edge(int64_t src, int64_t dst, double w = 1.0) {
  return {Value::Int64(src), Value::Int64(dst), Value::Float64(w)};
}

std::vector<RowVec> DenseEdges(int64_t n, int64_t salt = 0) {
  std::vector<RowVec> rows;
  rows.reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    rows.push_back(
        Edge((i + salt) % 97, i, 0.25 * static_cast<double>(i + salt)));
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

QueryServiceConfig ServeConfig(uint32_t workers, AdmitPolicy policy,
                               uint64_t reservation = 1 << 20,
                               uint32_t max_queue = 64) {
  QueryServiceConfig config;
  config.workers = workers;
  config.max_queue = max_queue;
  config.default_reservation_bytes = reservation;
  config.policy = policy;
  return config;
}

// ---- determinism gate -------------------------------------------------------

TEST(ServerTest, ConcurrentMixedQueriesMatchSerialUnderBudget) {
  constexpr int64_t kRows = 8000;
  Session session(ServeClusterOptions());
  IndexOptions index_options;
  index_options.batch_capacity = 4 << 10;

  auto edges = *session.CreateTable("edges", EdgeSchema(), DenseEdges(kRows));
  auto probe = *session.CreateTable("probe", EdgeSchema(), DenseEdges(300));
  auto indexed = *IndexedDataFrame::Create(edges, "src", index_options);
  indexed.RegisterAs("indexed_edges");
  auto extra_a = *session.CreateTable("extra_a", EdgeSchema(),
                                      DenseEdges(1200, /*salt=*/7));
  auto extra_b = *session.CreateTable("extra_b", EdgeSchema(),
                                      DenseEdges(900, /*salt=*/31));

  // The mixed workload: 4 indexed lookups (SQL), 2 indexed joins, 2 appends
  // (each reads back a key from its own new version). Every body is a pure
  // function of shared *immutable* versions, so serial and concurrent runs
  // must agree byte for byte.
  struct Mixed {
    std::string name;
    server::QueryWork work;
  };
  auto lookup_sql = [](int64_t key) {
    return "SELECT * FROM indexed_edges WHERE src = " + std::to_string(key);
  };
  auto sql_work = [](std::string sql) {
    return [sql](server::QueryContext& ctx) -> Status {
      IDF_ASSIGN_OR_RETURN(DataFrame df, ctx.session.Sql(sql));
      IDF_ASSIGN_OR_RETURN(ctx.result, df.Collect());
      return Status::OK();
    };
  };
  auto join_work = [&indexed](DataFrame probe_df) {
    return [&indexed, probe_df](server::QueryContext& ctx) -> Status {
      IDF_ASSIGN_OR_RETURN(ctx.result,
                           indexed.Join(probe_df, "src").Collect());
      return Status::OK();
    };
  };
  auto append_work = [&indexed](DataFrame rows, int64_t readback_key) {
    return [&indexed, rows, readback_key](server::QueryContext& ctx) -> Status {
      IDF_ASSIGN_OR_RETURN(IndexedDataFrame next, indexed.AppendRows(rows));
      IDF_ASSIGN_OR_RETURN(ctx.result, next.GetRows(Value::Int64(readback_key)));
      return Status::OK();
    };
  };
  std::vector<Mixed> workload;
  for (int64_t key : {13, 42, 64, 96}) {
    workload.push_back({"lookup_" + std::to_string(key),
                        sql_work(lookup_sql(key))});
  }
  workload.push_back({"join_probe", join_work(probe)});
  workload.push_back({"join_extra", join_work(extra_b)});
  workload.push_back({"append_a", append_work(extra_a, 7)});
  workload.push_back({"append_b", append_work(extra_b, 31)});

  // Serial reference: same bodies, one at a time, no budget.
  std::vector<std::vector<std::string>> expected;
  for (Mixed& m : workload) {
    QueryControl control;
    server::QueryContext ctx{0, control, session, {}};
    ASSERT_TRUE(m.work(ctx).ok()) << m.name;
    expected.push_back(ctx.result.SortedRowStrings());
    EXPECT_FALSE(expected.back().empty()) << m.name;
  }

  // Concurrent run at a 25% budget: three quarters of the working set must
  // spill and fault back in while 4 drivers race over it. Reservations are
  // sized so all 4 drivers can admit inside the shrunken budget — the
  // governor's eviction machinery provides the pressure, not admission.
  mem::MemoryGovernor& gov = mem::MemoryGovernor::Global();
  const uint64_t resident = gov.resident_bytes();
  const uint64_t budget_bytes = std::max<uint64_t>(resident / 4, 256 << 10);
  mem::ScopedBudget budget(budget_bytes);

  QueryService service(session, ServeConfig(/*workers=*/4, AdmitPolicy::kQueue,
                                            /*reservation=*/budget_bytes / 8));
  std::vector<QueryHandle> handles;
  for (Mixed& m : workload) {
    QueryOptions options;
    options.label = m.name;
    handles.push_back(service.Submit(m.work, options));
  }
  for (size_t i = 0; i < handles.size(); ++i) {
    ASSERT_TRUE(handles[i].Wait().ok())
        << workload[i].name << ": " << handles[i].status().ToString();
    Result<CollectedTable> result = handles[i].TakeResult();
    ASSERT_TRUE(result.ok()) << workload[i].name;
    EXPECT_EQ(result->SortedRowStrings(), expected[i]) << workload[i].name;
  }
  service.Shutdown(/*cancel_pending=*/false);
  EXPECT_EQ(gov.reserved_bytes(), 0u);
}

// ---- block and profile lifetime ---------------------------------------------

TEST(ServerTest, ServedLookupJoinsLeaveNoBlocksOrProfilesBehind) {
  // SNB SQ3's shape: an index lookup on the source, joined to a second
  // table and projected. Each request's intermediate and result blocks go
  // when its handles drop; its profile retires once the query leaves the
  // service's finished tail. A steady stream of requests therefore holds
  // both the block manager and the profile registry at a fixed size.
  Session session(ServeClusterOptions());
  auto edges = *session.CreateTable("edges", EdgeSchema(), DenseEdges(4000));
  auto dests = *session.CreateTable("dests", EdgeSchema(), DenseEdges(300, 5));
  auto indexed = *IndexedDataFrame::Create(edges, "src");
  auto sq3 = [&](int64_t person) {
    return [&, person](server::QueryContext& ctx) -> Status {
      const DataFrame q = indexed.AsDataFrame()
                              .Filter(Eq(Col("src"), Lit(person)))
                              .Join(dests, "dst", "src")
                              .Select({"dst", "weight"});
      IDF_ASSIGN_OR_RETURN(ctx.result, q.Collect());
      return Status::OK();
    };
  };
  QueryService service(session,
                       ServeConfig(/*workers=*/2, AdmitPolicy::kQueue));
  auto serve = [&](int requests) {
    for (int i = 0; i < requests; ++i) {
      QueryHandle h = service.Submit(sq3(i % 97));
      ASSERT_TRUE(h.Wait().ok()) << h.status().ToString();
    }
  };
  serve(100);  // fills the 64-entry finished tail
  const BlockManager& blocks = session.cluster().blocks();
  const size_t steady_blocks = blocks.NumBlocks();
  obs::QueryProfileRegistry& profiles = obs::QueryProfileRegistry::Global();
  const size_t steady_profiles = profiles.Ids().size();
  serve(1000);
  EXPECT_EQ(blocks.NumBlocks(), steady_blocks);
  EXPECT_EQ(profiles.Ids().size(), steady_profiles);
  service.Shutdown(/*cancel_pending=*/false);
}

// ---- admission control ------------------------------------------------------

TEST(ServerTest, QueuePolicyHoldsQueriesUntilReservationsRelease) {
  Session session(ServeClusterOptions());
  mem::MemoryGovernor& gov = mem::MemoryGovernor::Global();
  const uint64_t budget_bytes = gov.resident_bytes() + (64 << 20);
  mem::ScopedBudget budget(budget_bytes);
  // Two reservations of half the budget fit exactly; a third must wait.
  const uint64_t reservation = budget_bytes / 2;

  QueryService service(
      session, ServeConfig(/*workers=*/3, AdmitPolicy::kQueue, reservation));
  Gate gate;
  auto blocking = [&gate](server::QueryContext&) -> Status {
    gate.Wait();
    return Status::OK();
  };
  QueryHandle a = service.Submit(blocking, {});
  QueryHandle b = service.Submit(blocking, {});
  QueryHandle c = service.Submit(blocking, {});

  // a and b admit (2 * reservation == budget); c cannot reserve until one
  // of them finishes, even though a worker is free for it.
  while (gov.reserved_bytes() < 2 * reservation) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(c.Done());
  EXPECT_EQ(gov.reserved_bytes(), 2 * reservation);

  gate.Open();
  EXPECT_TRUE(a.Wait().ok());
  EXPECT_TRUE(b.Wait().ok());
  EXPECT_TRUE(c.Wait().ok());
  service.Shutdown(/*cancel_pending=*/false);
  EXPECT_EQ(gov.reserved_bytes(), 0u);
}

TEST(ServerTest, RejectPolicyFailsOversubscribedQueriesCleanly) {
  Session session(ServeClusterOptions());
  mem::MemoryGovernor& gov = mem::MemoryGovernor::Global();
  const uint64_t budget_bytes = gov.resident_bytes() + (64 << 20);
  mem::ScopedBudget budget(budget_bytes);
  const uint64_t reservation = budget_bytes / 2;

  QueryService service(
      session, ServeConfig(/*workers=*/3, AdmitPolicy::kReject, reservation));
  Gate gate;
  auto blocking = [&gate](server::QueryContext&) -> Status {
    gate.Wait();
    return Status::OK();
  };
  QueryHandle a = service.Submit(blocking, {});
  QueryHandle b = service.Submit(blocking, {});
  while (gov.reserved_bytes() < 2 * reservation) {
    std::this_thread::yield();
  }
  // Third query cannot reserve -> immediate clean kResourceExhausted.
  QueryHandle c = service.Submit(blocking, {});
  Status rejected = c.Wait();
  EXPECT_EQ(rejected.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(c.state(), QueryState::kRejected);

  // A reservation larger than the whole budget rejects under either policy.
  QueryOptions oversized;
  oversized.reservation_bytes = budget_bytes + 1;
  QueryHandle d = service.Submit(blocking, oversized);
  EXPECT_EQ(d.Wait().code(), StatusCode::kResourceExhausted);

  gate.Open();
  EXPECT_TRUE(a.Wait().ok());
  EXPECT_TRUE(b.Wait().ok());
  service.Shutdown(/*cancel_pending=*/false);
  EXPECT_EQ(gov.reserved_bytes(), 0u);
}

TEST(ServerTest, FullAdmissionQueueRejectsNewWork) {
  Session session(ServeClusterOptions());
  QueryService service(session,
                       ServeConfig(/*workers=*/1, AdmitPolicy::kQueue,
                                   /*reservation=*/1 << 20, /*max_queue=*/1));
  Gate gate;
  auto blocking = [&gate](server::QueryContext&) -> Status {
    gate.Wait();
    return Status::OK();
  };
  QueryHandle running = service.Submit(blocking, {});
  // Wait for the only worker to pick the first query up so the next Submit
  // lands in the (empty) queue rather than racing it.
  while (running.state() == QueryState::kQueued) {
    std::this_thread::yield();
  }
  QueryHandle queued = service.Submit(blocking, {});
  QueryHandle overflow = service.Submit(blocking, {});
  Status rejected = overflow.Wait();
  EXPECT_EQ(rejected.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(overflow.state(), QueryState::kRejected);

  gate.Open();
  EXPECT_TRUE(running.Wait().ok());
  EXPECT_TRUE(queued.Wait().ok());
  service.Shutdown(/*cancel_pending=*/false);
}

// Each terminal outcome counts once, in QueryService::Finish: a rejection
// for a full queue, under the reject policy, for a reservation larger than
// the budget, or by a shut-down service each move server.rejected by
// exactly 1, and a cancelled queued query moves server.cancelled by 1.
TEST(ServerTest, EachRejectionAndCancelCountsOnce) {
  Session session(ServeClusterOptions());
  mem::MemoryGovernor& gov = mem::MemoryGovernor::Global();
  const uint64_t budget_bytes = gov.resident_bytes() + (64 << 20);
  mem::ScopedBudget budget(budget_bytes);
  Gate gate;
  auto blocking = [&gate](server::QueryContext&) -> Status {
    gate.Wait();
    return Status::OK();
  };
  // server.rejected's move across one Submit and the Wait for its outcome.
  auto rejections = [](const std::function<QueryHandle()>& submit) {
    obs::RegistryDelta delta;
    QueryHandle handle = submit();
    EXPECT_FALSE(handle.Wait().ok());
    EXPECT_EQ(handle.state(), QueryState::kRejected);
    return delta.Counter("server.rejected");
  };

  {
    // Queue full; then a cancel of the query left waiting in the queue.
    QueryService service(session,
                         ServeConfig(/*workers=*/1, AdmitPolicy::kQueue,
                                     /*reservation=*/1 << 20,
                                     /*max_queue=*/1));
    QueryHandle running = service.Submit(blocking, {});
    while (running.state() == QueryState::kQueued) {
      std::this_thread::yield();
    }
    QueryHandle queued = service.Submit(blocking, {});
    EXPECT_EQ(rejections([&] { return service.Submit(blocking, {}); }), 1u);

    obs::RegistryDelta cancel;
    queued.Cancel();
    gate.Open();
    EXPECT_EQ(queued.Wait().code(), StatusCode::kCancelled);
    EXPECT_EQ(cancel.Counter("server.cancelled"), 1u);
    EXPECT_TRUE(running.Wait().ok());
    service.Shutdown(/*cancel_pending=*/false);
  }

  Gate held;
  auto holding = [&held](server::QueryContext&) -> Status {
    held.Wait();
    return Status::OK();
  };
  {
    // Reject policy with the budget reserved; then a reservation larger
    // than the whole budget.
    const uint64_t reservation = budget_bytes / 2;
    QueryService service(
        session,
        ServeConfig(/*workers=*/3, AdmitPolicy::kReject, reservation));
    QueryHandle a = service.Submit(holding, {});
    QueryHandle b = service.Submit(holding, {});
    while (gov.reserved_bytes() < 2 * reservation) {
      std::this_thread::yield();
    }
    EXPECT_EQ(rejections([&] { return service.Submit(holding, {}); }), 1u);
    QueryOptions oversized;
    oversized.reservation_bytes = budget_bytes + 1;
    EXPECT_EQ(rejections([&] { return service.Submit(holding, oversized); }),
              1u);
    held.Open();
    EXPECT_TRUE(a.Wait().ok());
    EXPECT_TRUE(b.Wait().ok());
    service.Shutdown(/*cancel_pending=*/false);
  }

  {
    QueryService service(session, ServeConfig(/*workers=*/1,
                                              AdmitPolicy::kQueue));
    service.Shutdown(/*cancel_pending=*/false);
    EXPECT_EQ(rejections([&] { return service.Submit(blocking, {}); }), 1u);
  }
  EXPECT_EQ(gov.reserved_bytes(), 0u);
}

// ---- cancellation & deadlines ----------------------------------------------

TEST(ServerTest, CancelMidStageReleasesEverythingAndSparesNeighbors) {
  constexpr int64_t kRows = 8000;
  Session session(ServeClusterOptions());
  IndexOptions index_options;
  index_options.batch_capacity = 4 << 10;
  auto edges = *session.CreateTable("edges", EdgeSchema(), DenseEdges(kRows));
  auto probe = *session.CreateTable("probe", EdgeSchema(), DenseEdges(400));
  auto indexed = *IndexedDataFrame::Create(edges, "src", index_options);

  const std::vector<std::string> expected =
      indexed.Join(probe, "src").Collect()->SortedRowStrings();
  mem::MemoryGovernor& gov = mem::MemoryGovernor::Global();
  const uint64_t reserved_before = gov.reserved_bytes();

  QueryService service(session,
                       ServeConfig(/*workers=*/2, AdmitPolicy::kQueue));

  // Deterministic mid-stage cancel: the Nth task boundary of the victim's
  // join stage fires Cancel() through the chaos bus's task-start hook. The
  // gate makes sure the handle exists before any task can run.
  Gate gate;
  QueryHandle victim;
  std::mutex handle_mu;
  std::atomic<int> task_starts{0};
  chaos::ChaosHooks hooks;
  hooks.on_task_start = [&] {
    if (task_starts.fetch_add(1) == 2) {
      std::lock_guard<std::mutex> lk(handle_mu);
      victim.Cancel();
    }
  };
  ScopedHooks guard(std::move(hooks));

  auto join_then_collect = [&](server::QueryContext& ctx) -> Status {
    gate.Wait();
    IDF_ASSIGN_OR_RETURN(ctx.result, indexed.Join(probe, "src").Collect());
    return Status::OK();
  };
  {
    std::lock_guard<std::mutex> lk(handle_mu);
    victim = service.Submit(join_then_collect, {});
  }
  gate.Open();
  Status status = victim.Wait();
  EXPECT_EQ(status.code(), StatusCode::kCancelled) << status.ToString();
  EXPECT_EQ(victim.state(), QueryState::kCancelled);
  EXPECT_GE(task_starts.load(), 3);

  // Everything released: reservation gone, and with the hook disarmed the
  // exact same query over the same shared tables is byte-identical — no
  // pins leaked, no shared state poisoned.
  chaos::ChaosEngine::SetHooks({});
  EXPECT_EQ(gov.reserved_bytes(), reserved_before);
  QueryHandle retry = service.Submit(
      [&](server::QueryContext& ctx) -> Status {
        IDF_ASSIGN_OR_RETURN(ctx.result, indexed.Join(probe, "src").Collect());
        return Status::OK();
      },
      {});
  ASSERT_TRUE(retry.Wait().ok()) << retry.status().ToString();
  EXPECT_EQ(retry.TakeResult()->SortedRowStrings(), expected);
  service.Shutdown(/*cancel_pending=*/false);
}

TEST(ServerTest, CancelMidAppendLeavesNoOrphanVersion) {
  constexpr int64_t kRows = 6000;
  Session session(ServeClusterOptions());
  IndexOptions index_options;
  index_options.batch_capacity = 4 << 10;
  auto edges = *session.CreateTable("edges", EdgeSchema(), DenseEdges(kRows));
  auto extra =
      *session.CreateTable("extra", EdgeSchema(), DenseEdges(2000, 11));
  auto indexed = *IndexedDataFrame::Create(edges, "src", index_options);

  const std::vector<uint64_t> versions_before = indexed.rdd()->Versions();
  mem::MemoryGovernor& gov = mem::MemoryGovernor::Global();
  const uint64_t reserved_before = gov.reserved_bytes();

  QueryService service(session,
                       ServeConfig(/*workers=*/2, AdmitPolicy::kQueue));

  // Cancel lands mid-append, at a task boundary of its shuffle, so the
  // unwind path exercises the orphan-version cleanup in IndexedRdd::Append.
  Gate gate;
  QueryHandle victim;
  std::mutex handle_mu;
  std::atomic<int> task_starts{0};
  chaos::ChaosHooks hooks;
  hooks.on_task_start = [&] {
    if (task_starts.fetch_add(1) == 3) {
      std::lock_guard<std::mutex> lk(handle_mu);
      victim.Cancel();
    }
  };
  ScopedHooks guard(std::move(hooks));

  {
    std::lock_guard<std::mutex> lk(handle_mu);
    victim = service.Submit(
        [&](server::QueryContext& ctx) -> Status {
          gate.Wait();
          IDF_ASSIGN_OR_RETURN(IndexedDataFrame next,
                               indexed.AppendRows(extra));
          IDF_ASSIGN_OR_RETURN(ctx.result, next.GetRows(Value::Int64(11)));
          return Status::OK();
        },
        {});
  }
  gate.Open();
  Status status = victim.Wait();
  EXPECT_EQ(status.code(), StatusCode::kCancelled) << status.ToString();
  chaos::ChaosEngine::SetHooks({});

  // The aborted append must leave no trace: version list unchanged, no
  // orphan blocks at the aborted version, reservation released.
  EXPECT_EQ(indexed.rdd()->Versions(), versions_before);
  BlockManager& blocks = session.cluster().blocks();
  for (uint32_t p = 0; p < indexed.num_partitions(); ++p) {
    for (uint64_t v : blocks.VersionsOf(indexed.rdd()->rdd_id(), p)) {
      EXPECT_LE(v, versions_before.back()) << "orphan block at partition " << p;
    }
  }
  EXPECT_EQ(gov.reserved_bytes(), reserved_before);

  // The same append now runs to completion on untouched shared state.
  QueryHandle retry = service.Submit(
      [&](server::QueryContext& ctx) -> Status {
        IDF_ASSIGN_OR_RETURN(IndexedDataFrame next, indexed.AppendRows(extra));
        IDF_ASSIGN_OR_RETURN(ctx.result, next.GetRows(Value::Int64(11)));
        return Status::OK();
      },
      {});
  ASSERT_TRUE(retry.Wait().ok()) << retry.status().ToString();
  EXPECT_FALSE(retry.TakeResult()->rows.empty());
  service.Shutdown(/*cancel_pending=*/false);
}

TEST(ServerTest, DeadlineExpiryMidQueryReturnsDeadlineExceeded) {
  constexpr int64_t kRows = 4000;
  Session session(ServeClusterOptions());
  auto edges = *session.CreateTable("edges", EdgeSchema(), DenseEdges(kRows));
  auto probe = *session.CreateTable("probe", EdgeSchema(), DenseEdges(200));
  IndexOptions index_options;
  index_options.batch_capacity = 4 << 10;
  auto indexed = *IndexedDataFrame::Create(edges, "src", index_options);
  mem::MemoryGovernor& gov = mem::MemoryGovernor::Global();
  const uint64_t reserved_before = gov.reserved_bytes();

  QueryService service(session,
                       ServeConfig(/*workers=*/2, AdmitPolicy::kQueue));
  // The work sleeps past its own deadline before launching a stage: the
  // stage-entry check fails deterministically, mid-query.
  QueryOptions options;
  options.deadline_seconds = 0.05;
  QueryHandle handle = service.Submit(
      [&](server::QueryContext& ctx) -> Status {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        IDF_ASSIGN_OR_RETURN(ctx.result, indexed.Join(probe, "src").Collect());
        return Status::OK();
      },
      options);
  Status status = handle.Wait();
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded) << status.ToString();
  EXPECT_EQ(handle.state(), QueryState::kExpired);
  EXPECT_EQ(gov.reserved_bytes(), reserved_before);

  // Unaffected neighbors: the same join still runs fine.
  QueryHandle after = service.Submit(
      [&](server::QueryContext& ctx) -> Status {
        IDF_ASSIGN_OR_RETURN(ctx.result, indexed.Join(probe, "src").Collect());
        return Status::OK();
      },
      {});
  EXPECT_TRUE(after.Wait().ok()) << after.status().ToString();
  service.Shutdown(/*cancel_pending=*/false);
}

TEST(ServerTest, QueuedQueryDeadlineExpiresWithoutRunning) {
  Session session(ServeClusterOptions());
  QueryService service(session,
                       ServeConfig(/*workers=*/1, AdmitPolicy::kQueue));
  Gate gate;
  QueryHandle blocker = service.Submit(
      [&gate](server::QueryContext&) -> Status {
        gate.Wait();
        return Status::OK();
      },
      {});
  while (blocker.state() == QueryState::kQueued) {
    std::this_thread::yield();
  }
  QueryOptions options;
  options.deadline_seconds = 0.03;
  std::atomic<bool> ran{false};
  QueryHandle starved = service.Submit(
      [&ran](server::QueryContext&) -> Status {
        ran.store(true);
        return Status::OK();
      },
      options);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  gate.Open();
  EXPECT_EQ(starved.Wait().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(starved.state(), QueryState::kExpired);
  EXPECT_FALSE(ran.load());
  EXPECT_TRUE(blocker.Wait().ok());
  service.Shutdown(/*cancel_pending=*/false);
}

// ---- introspection & lifecycle ---------------------------------------------

TEST(ServerTest, QueriesJsonReportsStatesAndShutdownCancelsPending) {
  Session session(ServeClusterOptions());
  QueryService service(session,
                       ServeConfig(/*workers=*/1, AdmitPolicy::kQueue));
  Gate gate;
  QueryOptions labelled;
  labelled.label = "held-query";
  QueryHandle running = service.Submit(
      [&gate](server::QueryContext&) -> Status {
        gate.Wait();
        return Status::OK();
      },
      labelled);
  while (running.state() == QueryState::kQueued) {
    std::this_thread::yield();
  }
  std::atomic<bool> queued_ran{false};
  QueryHandle queued = service.Submit(
      [&queued_ran](server::QueryContext&) -> Status {
        queued_ran.store(true);
        return Status::OK();
      },
      {});

  const std::string json = service.QueriesJson();
  EXPECT_NE(json.find("\"held-query\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"running\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"queued\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"reservation_bytes\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"stages_completed\""), std::string::npos) << json;
  EXPECT_EQ(service.ActiveQueries(), 2u);

  // Cancelling the queued query resolves it without ever running it: the
  // only worker is still parked at the gate, so the cancel deterministically
  // precedes any chance to execute.
  queued.Cancel();
  gate.Open();
  EXPECT_EQ(queued.Wait().code(), StatusCode::kCancelled);
  EXPECT_EQ(queued.state(), QueryState::kCancelled);
  EXPECT_FALSE(queued_ran.load());
  EXPECT_TRUE(running.Wait().ok()) << running.status().ToString();
  service.Shutdown(/*cancel_pending=*/true);
  EXPECT_EQ(mem::MemoryGovernor::Global().reserved_bytes(), 0u);
}

// ---- slow-query log ---------------------------------------------------------

TEST(ServerTest, SlowQueryLogEmitsOneParsableLinePerQuery) {
  // IDF_SLOW_QUERY_MS=0 makes every finished query slow; the service reads
  // it when constructed.
  const char* saved = std::getenv("IDF_SLOW_QUERY_MS");
  const std::string saved_value = saved != nullptr ? saved : "";
  ::setenv("IDF_SLOW_QUERY_MS", "0", 1);
  const LogLevel saved_level = GetLogLevel();
  SetLogLevel(LogLevel::kWarn);

  Session session(ServeClusterOptions());
  auto edges = *session.CreateTable("edges", EdgeSchema(), DenseEdges(2000));
  auto indexed = *IndexedDataFrame::Create(edges, "src");
  std::vector<QueryHandle> handles;
  ::testing::internal::CaptureStderr();
  {
    QueryService service(session,
                         ServeConfig(/*workers=*/2, AdmitPolicy::kQueue));
    QueryOptions options;
    options.label = "lookup \"quoted\"\tlabel";
    for (int64_t key = 0; key < 3; ++key) {
      handles.push_back(service.Submit(
          [&, key](server::QueryContext& ctx) -> Status {
            IDF_ASSIGN_OR_RETURN(ctx.result,
                                 indexed.GetRows(Value::Int64(key)));
            return Status::OK();
          },
          options));
    }
    handles.push_back(service.Submit([](server::QueryContext&) -> Status {
      return Status::InvalidArgument("failing query");
    }));
    for (QueryHandle& h : handles) (void)h.Wait();
    service.Shutdown(/*cancel_pending=*/false);
  }
  const std::string captured = ::testing::internal::GetCapturedStderr();
  SetLogLevel(saved_level);
  if (saved != nullptr) {
    ::setenv("IDF_SLOW_QUERY_MS", saved_value.c_str(), 1);
  } else {
    ::unsetenv("IDF_SLOW_QUERY_MS");
  }

  EXPECT_TRUE(handles[0].status().ok()) << handles[0].status().ToString();
  EXPECT_EQ(handles[3].state(), QueryState::kFailed);
  const std::string prefix = "[idf WARN] slow_query ";
  std::vector<std::string> payloads;
  size_t begin = 0;
  while (begin < captured.size()) {
    size_t end = captured.find('\n', begin);
    if (end == std::string::npos) end = captured.size();
    const std::string line = captured.substr(begin, end - begin);
    if (line.starts_with(prefix)) {
      payloads.push_back(line.substr(prefix.size()));
    }
    begin = end + 1;
  }
  ASSERT_EQ(payloads.size(), handles.size()) << captured;
  for (const QueryHandle& h : handles) {
    const std::string id = "{\"query_id\":" + std::to_string(h.id()) + ",";
    const auto it = std::find_if(
        payloads.begin(), payloads.end(),
        [&](const std::string& p) { return p.starts_with(id); });
    ASSERT_NE(it, payloads.end()) << "no slow_query line for query " << h.id();
    EXPECT_TRUE(JsonChecker::Valid(*it)) << *it;
    EXPECT_NE(it->find("\"profile\":"), std::string::npos) << *it;
  }
}

}  // namespace
}  // namespace idf
