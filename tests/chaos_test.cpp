// Chaos differential gate (src/testing/chaos.h, docs/TESTING.md).
//
// The contract under test, for ANY seeded chaos schedule: a query either
// returns results byte-identical to a clean run, or fails cleanly — a
// retryable status (kUnavailable / kCancelled / kDeadlineExceeded /
// kResourceExhausted) with zero leaked reservations, zero leaked pins, and
// no orphan state poisoning later queries.
//
// The sweep runs the same read-only workload under IDF_CHAOS_SWEEP distinct
// seeds (default 20) of ChaosConfig::Mixed — every fault class armed:
// task delays (forced steals), forced world evictions between AND during
// tasks (background evictor on every 4th seed), executor kills mid-stage,
// budget squeezes, reload failures and delays, admission delays. Every
// failing expectation names the seed; export
// IDF_CHAOS_SEED=<seed> to replay exactly that schedule (the sweep then
// runs only that seed), and the flight-recorder journal of the failing run
// is dumped to $IDF_EVENTS_DIR for post-mortem (tools/idf_events.py).
//
// Unlike most suites this one does NOT unset IDF_MEMORY_BUDGET: the gate
// must hold under any budget, and the CI chaos leg deliberately pins a
// small one to keep the spill/reload machinery hot.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/indexed_dataframe.h"
#include "mem/governor.h"
#include "obs/flight_recorder.h"
#include "server/query_service.h"
#include "sql/session.h"
#include "testing/chaos.h"

namespace idf {
namespace {

/// Arms the global engine for the enclosing scope; always disarms on exit
/// (before the enclosing Session is torn down — declare it second).
class ScopedChaos {
 public:
  explicit ScopedChaos(const chaos::ChaosConfig& config) {
    chaos::ChaosEngine::Global().Arm(config);
  }
  ~ScopedChaos() { chaos::ChaosEngine::Global().Disarm(); }
  ScopedChaos(const ScopedChaos&) = delete;
  ScopedChaos& operator=(const ScopedChaos&) = delete;
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

SessionOptions ChaosClusterOptions(uint64_t budget = 0) {
  SessionOptions opts;
  opts.cluster.num_workers = 2;
  opts.cluster.executors_per_worker = 2;
  opts.cluster.cores_per_executor = 2;
  opts.cluster.memory_budget_bytes = budget;
  opts.default_partitions = 4;
  return opts;
}

/// The failure-message suffix that makes any mismatch reproducible.
std::string ReplayHint(uint64_t seed) {
  return "chaos seed " + std::to_string(seed) +
         " — replay with IDF_CHAOS_SEED=" + std::to_string(seed);
}

/// A clean failure the gate accepts: the classes a client retries.
bool IsRetryable(const Status& s) {
  return s.code() == StatusCode::kUnavailable ||
         s.code() == StatusCode::kCancelled ||
         s.code() == StatusCode::kDeadlineExceeded ||
         s.code() == StatusCode::kResourceExhausted;
}

/// Zero-leak gate, checked after every chaos schedule: no reservation
/// survived its query, and no pin survived its scope. Transient pins (the
/// per-thread hint slot) linger by design; the scrub releases them first so
/// only genuinely leaked pins fail the gate.
void ExpectNoLeaks(uint64_t seed) {
  mem::MemoryGovernor& gov = mem::MemoryGovernor::Global();
  EXPECT_EQ(gov.reserved_bytes(), 0u)
      << "leaked reservation; " << ReplayHint(seed);
  gov.ScrubTransientPinsForTesting();
  EXPECT_EQ(gov.TotalPinsForTesting(), 0u)
      << "leaked pin; " << ReplayHint(seed);
}

/// Dumps the flight-recorder ring (which holds every injected chaos_fault
/// of the failing schedule) where the CI chaos leg uploads artifacts from.
void DumpJournalForSeed(uint64_t seed) {
  const char* dir = std::getenv("IDF_EVENTS_DIR");
  const std::string path = std::string(dir != nullptr ? dir : ".") +
                           "/idf-chaos-seed-" + std::to_string(seed) +
                           ".events.jsonl";
  const Status dumped = obs::FlightRecorder::Global().DumpJsonl(path);
  std::fprintf(stderr, "[chaos] seed %llu FAILED — events journal: %s (%s)\n",
               static_cast<unsigned long long>(seed), path.c_str(),
               dumped.ok() ? "written" : dumped.ToString().c_str());
}

/// Seeds for this run: IDF_CHAOS_SEED pins a single schedule (replay);
/// otherwise IDF_CHAOS_SWEEP distinct seeds (default 20).
std::vector<uint64_t> SweepSeeds() {
  if (const char* env = std::getenv("IDF_CHAOS_SEED")) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end != env) return {static_cast<uint64_t>(v)};
  }
  uint64_t count = 20;
  if (const char* env = std::getenv("IDF_CHAOS_SWEEP")) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end != env && v > 0) count = static_cast<uint64_t>(v);
  }
  std::vector<uint64_t> seeds;
  for (uint64_t i = 1; i <= count; ++i) seeds.push_back(i);
  return seeds;
}

// ---- differential sweep -----------------------------------------------------

struct WorkloadResult {
  size_t hits = 0;
  std::vector<std::string> join;
  std::vector<std::string> scan;
  std::vector<std::string> aggregate;
};

/// The read-only query mix every seed replays: an indexed lookup, a join,
/// a full scan, and an SQ6-shaped aggregate (Select then Agg) that folds
/// the scan's row blocks undecoded. Read-only keeps the differential crisp — either every
/// byte matches the clean run or the failure status explains itself.
Result<WorkloadResult> RunWorkload(const IndexedDataFrame& indexed,
                                   const DataFrame& probe) {
  WorkloadResult r;
  IDF_ASSIGN_OR_RETURN(CollectedTable hits, indexed.GetRows(Value::Int64(13)));
  r.hits = hits.rows.size();
  IDF_ASSIGN_OR_RETURN(CollectedTable join,
                       indexed.Join(probe, "src").Collect());
  r.join = join.SortedRowStrings();
  IDF_ASSIGN_OR_RETURN(CollectedTable scan, indexed.AsDataFrame().Collect());
  r.scan = scan.SortedRowStrings();
  IDF_ASSIGN_OR_RETURN(
      CollectedTable aggregate,
      indexed.AsDataFrame()
          .Select({"dst", "weight"})
          .Agg({}, {AggSpec::Count("n"), AggSpec::Sum("dst"),
                    AggSpec::Sum("weight")})
          .Collect());
  r.aggregate = aggregate.SortedRowStrings();
  return r;
}

TEST(ChaosTest, SeededSweepIsByteIdenticalOrCleanlyRetryable) {
  constexpr int64_t kRows = 8000;
  IndexOptions index_options;
  index_options.batch_capacity = 8 << 10;

  // Clean reference, computed once.
  WorkloadResult expected;
  {
    Session session(ChaosClusterOptions());
    auto edges = *session.CreateTable("edges", EdgeSchema(), DenseEdges(kRows));
    auto probe =
        *session.CreateTable("probe", EdgeSchema(), DenseEdges(300, 3));
    auto indexed = *IndexedDataFrame::Create(edges, "src", index_options);
    auto clean = RunWorkload(indexed, probe);
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    expected = *clean;
  }

  uint64_t total_faults = 0;
  uint64_t total_retryable = 0;
  for (uint64_t seed : SweepSeeds()) {
    SCOPED_TRACE(ReplayHint(seed));
    {
      // Tight budget: the reload/spill machinery must be hot for the
      // reload- and eviction-class faults to bite.
      Session session(ChaosClusterOptions(512 << 10));
      auto edges =
          *session.CreateTable("edges", EdgeSchema(), DenseEdges(kRows));
      auto probe =
          *session.CreateTable("probe", EdgeSchema(), DenseEdges(300, 3));
      auto indexed = *IndexedDataFrame::Create(edges, "src", index_options);

      chaos::ChaosConfig config = chaos::ChaosConfig::Mixed(seed);
      // Every 4th seed also runs the background evictor, which force-evicts
      // the world *while* tasks run (wall-clock timing, seeded decisions).
      if (seed % 4 == 0) config.evictor_period_us = 500;
      ScopedChaos armed(config);

      for (int round = 0; round < 3; ++round) {
        auto got = RunWorkload(indexed, probe);
        if (got.ok()) {
          EXPECT_EQ(got->hits, expected.hits);
          EXPECT_EQ(got->join, expected.join);
          EXPECT_EQ(got->scan, expected.scan);
          EXPECT_EQ(got->aggregate, expected.aggregate);
        } else {
          EXPECT_TRUE(IsRetryable(got.status()))
              << "non-retryable failure: " << got.status().ToString();
          ++total_retryable;
        }
      }
      total_faults += chaos::ChaosEngine::Global().faults_injected();
    }
    ExpectNoLeaks(seed);
    if (::testing::Test::HasFailure()) {
      DumpJournalForSeed(seed);
      break;  // the first failing seed is the repro; stop sweeping
    }
  }
  std::fprintf(stderr,
               "[chaos] sweep done: %llu faults injected, %llu retryable "
               "query failures, rest byte-identical\n",
               static_cast<unsigned long long>(total_faults),
               static_cast<unsigned long long>(total_retryable));
  // Mixed() probabilities are calibrated so a full sweep always injects.
  EXPECT_GT(total_faults, 0u);
}

// ---- decision determinism ---------------------------------------------------

/// One packed word per decision the engine handed back, so two schedules
/// compare with a single vector equality.
uint64_t Pack(const chaos::TaskAction& a) {
  return (static_cast<uint64_t>(a.delay_us) << 8) |
         (a.evict_world ? 1u : 0u) | (a.kill_executor ? 2u : 0u) |
         (a.cancel_query ? 4u : 0u) | (a.expire_query ? 8u : 0u) |
         (a.squeeze_budget ? 16u : 0u);
}

TEST(ChaosTest, DecisionScheduleIsAPureFunctionOfTheSeed) {
  // Replays a fixed synthetic visit sequence across every site and checks
  // the engine's decisions are a pure function of (seed, site, coordinates,
  // visit) — the property that makes IDF_CHAOS_SEED replay work at all.
  auto schedule = [](uint64_t seed) {
    chaos::ChaosEngine& engine = chaos::ChaosEngine::Global();
    chaos::ChaosConfig config = chaos::ChaosConfig::Mixed(seed);
    config.max_delay_us = 3;  // keep the in-place reload sleeps negligible
    engine.Arm(config);
    std::vector<uint64_t> trace;
    for (uint32_t i = 0; i < 300; ++i) {
      trace.push_back(Pack(engine.OnTaskStart(0xabcd, i % 16)));
      trace.push_back(static_cast<uint64_t>(
          engine.OnReload(42, i % 8, i % 3).code()));
      trace.push_back(engine.OnAdmissionDelayUs(1000 + i % 10));
    }
    engine.Disarm();
    return trace;
  };

  const auto a = schedule(7);
  EXPECT_EQ(a, schedule(7));  // same seed, same visits -> same schedule
  EXPECT_NE(a, schedule(8));  // a different seed draws a different one

  // Arming is itself journaled: the flight recorder carries the seed, so a
  // crash dump alone is enough to replay the run.
  bool saw_arm = false;
  for (const auto& event : obs::FlightRecorder::Global().Snapshot()) {
    if (event.type == obs::EventType::kChaosArm && event.a == 8) {
      saw_arm = true;
    }
  }
  EXPECT_TRUE(saw_arm);
}

// ---- fig12 fault tolerance under chaos --------------------------------------

TEST(ChaosTest, DoubleExecutorLossDuringShuffledJoinRecoversExactly) {
  // The fig12_fault_tolerance scenario with the screws tightened: two
  // executors die at task boundaries *inside* a shuffled join,
  // under a ~25% budget, with an append the recovery must replay. Lineage
  // recompute must hand back byte-identical rows — at worst after one clean
  // retry.
  constexpr int64_t kRows = 20000;
  IndexOptions index_options;
  index_options.batch_capacity = 16 << 10;
  mem::MemoryGovernor& gov = mem::MemoryGovernor::Global();

  // Clean reference; also sizes the working set for the 25% budget below.
  std::vector<std::string> expected;
  uint64_t working_set = 0;
  {
    const uint64_t resident_before = gov.resident_bytes();
    SessionOptions opts = ChaosClusterOptions();
    opts.broadcast_threshold_bytes = 0;  // force the shuffled join path
    Session session(opts);
    auto edges = *session.CreateTable("edges", EdgeSchema(), DenseEdges(kRows));
    auto extra =
        *session.CreateTable("extra", EdgeSchema(), DenseEdges(1000, 11));
    auto probe =
        *session.CreateTable("probe", EdgeSchema(), DenseEdges(400, 7));
    auto indexed = *IndexedDataFrame::Create(edges, "src", index_options);
    indexed = *indexed.AppendRows(extra);
    working_set = gov.resident_bytes() - resident_before;
    expected = indexed.Join(probe, "src").Collect()->SortedRowStrings();
  }
  ASSERT_GT(working_set, 0u);

  SessionOptions opts = ChaosClusterOptions();
  opts.broadcast_threshold_bytes = 0;
  Session session(opts);
  // The ~25% budget is this test's premise (the lost partitions and the
  // inputs their recompute reads are partly on disk); apply it with
  // ScopedBudget so an ambient IDF_MEMORY_BUDGET (the CI chaos leg pins 64m)
  // cannot override it.
  mem::ScopedBudget tight(std::max<uint64_t>(working_set / 4, 128 << 10));
  auto edges = *session.CreateTable("edges", EdgeSchema(), DenseEdges(kRows));
  auto extra =
      *session.CreateTable("extra", EdgeSchema(), DenseEdges(1000, 11));
  auto probe = *session.CreateTable("probe", EdgeSchema(), DenseEdges(400, 7));
  auto indexed = *IndexedDataFrame::Create(edges, "src", index_options);
  indexed = *indexed.AppendRows(extra);

  // Scripted double loss on the chaos bus: the 3rd and 8th task boundaries
  // of the join kill executors 1 and 2 mid-stage (already-claimed tasks
  // keep running on their host threads; the dead executors' blocks drop).
  std::atomic<int> task_starts{0};
  std::atomic<int> kills{0};
  chaos::ChaosHooks hooks;
  hooks.on_task_start = [&] {
    const int n = task_starts.fetch_add(1);
    if (n == 2 && session.cluster().TryKillExecutor(1)) kills.fetch_add(1);
    if (n == 7 && session.cluster().TryKillExecutor(2)) kills.fetch_add(1);
  };
  chaos::ChaosEngine::SetHooks(std::move(hooks));

  auto under_loss = indexed.Join(probe, "src").Collect();
  chaos::ChaosEngine::SetHooks({});
  EXPECT_EQ(kills.load(), 2);

  if (under_loss.ok()) {
    EXPECT_EQ(under_loss->SortedRowStrings(), expected);
  } else {
    // Blocks dropped out from under in-flight reads: a clean retryable
    // failure, and the retry must recover everything from lineage.
    EXPECT_TRUE(IsRetryable(under_loss.status()))
        << under_loss.status().ToString();
  }
  auto retried = indexed.Join(probe, "src").Collect();
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(retried->SortedRowStrings(), expected);
}

TEST(ChaosTest, ExecutorLossDuringFusedJoinAggregateSumsExactly) {
  // The indexed join's local probe stage runs the partial aggregate inside
  // its own tasks (a fused pipeline). An executor dies at a task boundary
  // inside that stage, under a ~25% budget: the aggregate must come out
  // exact — never counting a pair twice — at worst after one clean retry.
  constexpr int64_t kRows = 20000;
  IndexOptions index_options;
  index_options.batch_capacity = 16 << 10;
  mem::MemoryGovernor& gov = mem::MemoryGovernor::Global();
  const std::vector<AggSpec> sums = {AggSpec::Count("pairs"),
                                     AggSpec::Sum("dst"),
                                     AggSpec::Sum("dst_r")};
  const std::vector<RowVec> edge_rows = DenseEdges(kRows);
  const std::vector<RowVec> probe_rows = DenseEdges(400, 7);
  // The exact answer, from the rows themselves.
  int64_t pairs = 0, dst_sum = 0, probe_dst_sum = 0;
  for (const RowVec& e : edge_rows) {
    for (const RowVec& p : probe_rows) {
      if (e[0] != p[0]) continue;
      ++pairs;
      dst_sum += e[1].int64_value();
      probe_dst_sum += p[1].int64_value();
    }
  }
  const RowVec expected = {Value::Int64(pairs), Value::Int64(dst_sum),
                           Value::Int64(probe_dst_sum)};

  uint64_t working_set = 0;
  {
    const uint64_t resident_before = gov.resident_bytes();
    SessionOptions opts = ChaosClusterOptions();
    Session session(opts);
    auto edges = *session.CreateTable("edges", EdgeSchema(), edge_rows);
    auto indexed = *IndexedDataFrame::Create(edges, "src", index_options);
    working_set = gov.resident_bytes() - resident_before;
  }
  ASSERT_GT(working_set, 0u);

  SessionOptions opts = ChaosClusterOptions();
  opts.broadcast_threshold_bytes = 0;  // the probe shuffles to the partitions
  Session session(opts);
  mem::ScopedBudget tight(std::max<uint64_t>(working_set / 4, 128 << 10));
  auto edges = *session.CreateTable("edges", EdgeSchema(), edge_rows);
  auto probe = *session.CreateTable("probe", EdgeSchema(), probe_rows);
  auto indexed = *IndexedDataFrame::Create(edges, "src", index_options);
  const DataFrame query = indexed.Join(probe, "src").Agg({}, sums);

  // Tasks 0-3 are the probe shuffle's map stage; the 6th task start is
  // the second task of the fused probe + partial aggregate stage.
  std::atomic<int> task_starts{0};
  std::atomic<int> kills{0};
  chaos::ChaosHooks hooks;
  hooks.on_task_start = [&] {
    if (task_starts.fetch_add(1) == 5 &&
        session.cluster().TryKillExecutor(1)) {
      kills.fetch_add(1);
    }
  };
  chaos::ChaosEngine::SetHooks(std::move(hooks));
  auto under_loss = query.Collect();
  chaos::ChaosEngine::SetHooks({});
  EXPECT_EQ(kills.load(), 1);

  if (under_loss.ok()) {
    ASSERT_EQ(under_loss->rows.size(), 1u);
    EXPECT_EQ(under_loss->rows[0], expected);
  } else {
    EXPECT_TRUE(IsRetryable(under_loss.status()))
        << under_loss.status().ToString();
  }
  auto retried = query.Collect();
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  ASSERT_EQ(retried->rows.size(), 1u);
  EXPECT_EQ(retried->rows[0], expected);
  ExpectNoLeaks(0);
}

// ---- admission-queue churn storm --------------------------------------------

TEST(ChaosTest, AdmissionChurnStormLeavesNoReservationAndDrainsQueue) {
  // Randomized submit/cancel/deadline storm against the query service with
  // admission chaos armed (dequeue delays widen every cancel/deadline race,
  // task-boundary chaos fires cancels and deadline expiries mid-query).
  // Whatever the interleaving: every handle terminates, successful results
  // are byte-identical, failures are retryable, the queue drains, and not
  // one byte of reservation survives.
  constexpr int64_t kRows = 6000;
  Session session(ChaosClusterOptions(24 << 20));
  IndexOptions index_options;
  index_options.batch_capacity = 8 << 10;
  auto edges = *session.CreateTable("edges", EdgeSchema(), DenseEdges(kRows));
  auto probe = *session.CreateTable("probe", EdgeSchema(), DenseEdges(200, 5));
  auto indexed = *IndexedDataFrame::Create(edges, "src", index_options);
  const std::vector<std::string> expected =
      indexed.Join(probe, "src").Collect()->SortedRowStrings();
  const size_t expected_hits =
      indexed.GetRows(Value::Int64(29)).value().rows.size();

  mem::MemoryGovernor& gov = mem::MemoryGovernor::Global();
  ASSERT_EQ(gov.reserved_bytes(), 0u);

  const uint64_t seed = SweepSeeds().front();
  chaos::ChaosConfig config = chaos::ChaosConfig::Mixed(seed);
  config.admit_delay_p = 0.5;    // hammer the dequeue->admission window
  config.task_cancel_p = 0.05;   // and fire controls at task boundaries
  config.task_deadline_p = 0.05;
  config.task_kill_p = 0;        // keep the fleet up: this test is about
  config.evictor_period_us = 0;  // admission, not recovery
  ScopedChaos armed(config);

  server::QueryServiceConfig service_config;
  service_config.workers = 3;
  service_config.max_queue = 16;  // small queue: overflow rejections too
  service_config.default_reservation_bytes = 4 << 20;
  service_config.policy = server::AdmitPolicy::kQueue;
  server::QueryService service(session, service_config);

  // Client-side churn is seeded too (same base seed, named by the trace
  // below) — only thread scheduling varies between runs, which the gate
  // tolerates by construction.
  SCOPED_TRACE(ReplayHint(seed));
  std::mutex handles_mu;
  std::vector<server::QueryHandle> handles;
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937_64 rng(seed * 1000 + static_cast<uint64_t>(c));
      for (int i = 0; i < 30; ++i) {
        server::QueryOptions options;
        options.priority = static_cast<int32_t>(rng() % 3);
        const uint64_t dice = rng() % 10;
        if (dice < 3) {
          // A deadline so short it usually fires while queued or mid-run.
          options.deadline_seconds = 1e-4;
        } else if (dice < 5) {
          options.deadline_seconds = 5.0;  // comfortably slack
        }
        server::QueryHandle handle = service.Submit(
            [&](server::QueryContext& ctx) -> Status {
              IDF_ASSIGN_OR_RETURN(ctx.result,
                                   indexed.Join(probe, "src").Collect());
              return Status::OK();
            },
            options);
        if (rng() % 4 == 0) handle.Cancel();  // client-side churn
        std::lock_guard<std::mutex> lock(handles_mu);
        handles.push_back(std::move(handle));
      }
    });
  }
  for (std::thread& t : clients) t.join();

  size_t ok = 0;
  size_t failed_retryable = 0;
  for (server::QueryHandle& handle : handles) {
    const Status status = handle.Wait();
    if (status.ok()) {
      ++ok;
      auto result = handle.TakeResult();
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->SortedRowStrings(), expected);
    } else {
      EXPECT_TRUE(IsRetryable(status)) << status.ToString();
      ++failed_retryable;
    }
  }
  EXPECT_EQ(ok + failed_retryable, handles.size());

  service.Shutdown(/*cancel_pending=*/false);  // drain whatever remains
  EXPECT_EQ(service.ActiveQueries(), 0u);
  EXPECT_EQ(gov.reserved_bytes(), 0u) << ReplayHint(seed);
  ExpectNoLeaks(seed);
  std::fprintf(stderr,
               "[chaos] storm: %zu ok, %zu retryable failures, "
               "%llu faults injected\n",
               ok, failed_retryable,
               static_cast<unsigned long long>(
                   chaos::ChaosEngine::Global().faults_injected()));

  // The shared state survived the storm: the same queries, clean, still
  // return the reference bytes. Disarm first — an armed engine may still
  // (legitimately, retryably) fail a demand reload here.
  chaos::ChaosEngine::Global().Disarm();
  EXPECT_EQ(indexed.GetRows(Value::Int64(29)).value().rows.size(),
            expected_hits);
  EXPECT_EQ(indexed.Join(probe, "src").Collect()->SortedRowStrings(),
            expected);
}

}  // namespace
}  // namespace idf
