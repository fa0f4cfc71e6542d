// Concurrent-serve benchmark: closed-loop clients against the QueryService.
//
// The paper's serving claim is that an indexed, cached table can answer
// many concurrent lookup/join/append clients out of one shared executor
// fleet and one memory budget. This bench reproduces that regime: N client
// threads drive a QueryService (src/server/query_service.h) over one shared
// indexed table with a 70% lookup / 20% join / 10% append mix, closed-loop
// (one outstanding query per client) with an optional per-client pacing
// target. Every lookup and join result is byte-compared against serially
// precomputed expectations — `mismatches` must be 0 or the bench fails.
//
// Flags (plus the usual ObsGuard --metrics-out/--events-out):
//   --clients=2,8       client-count series            (default 2,8)
//   --seconds=N         measured seconds per point     (default 5)
//   --qps=N             aggregate pacing target, 0 = unthrottled (default 0)
//   --serve-out=F.json  write BENCH_serve.json-style results to F
// Env: IDF_SERVE_WORKERS / IDF_ADMIT_* size the service (see docs/SERVER.md);
// IDF_MEMORY_BUDGET / IDF_SPILL_DIR put the run under memory pressure.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench/bench_util.h"
#include "core/indexed_dataframe.h"
#include "mem/governor.h"
#include "obs/query_profile.h"
#include "server/query_service.h"
#include "sql/columnar.h"

using namespace idf;

namespace {

constexpr int64_t kKeySpace = 97;  // src = i % 97: every key is dense

SchemaPtr EdgeSchema() {
  return std::make_shared<Schema>(Schema({
      {"src", TypeId::kInt64, false},
      {"dst", TypeId::kInt64, false},
      {"weight", TypeId::kFloat64, true},
  }));
}

std::vector<RowVec> DenseEdges(int64_t n, int64_t salt) {
  std::vector<RowVec> rows;
  rows.reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    rows.push_back({Value::Int64((i + salt) % kKeySpace), Value::Int64(i),
                    Value::Float64(0.25 * static_cast<double>(i + salt))});
  }
  return rows;
}

/// Deterministic per-client xorshift so the mix is reproducible and two
/// clients never share a stream.
struct Rng {
  uint64_t state;
  uint64_t Next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
};

struct PointResult {
  uint32_t clients = 0;
  uint64_t completed = 0;
  uint64_t lookups = 0;
  uint64_t joins = 0;
  uint64_t appends = 0;
  uint64_t rejected = 0;
  uint64_t mismatches = 0;
  double seconds = 0;
  double qps = 0;
  double p50_ms = 0, p95_ms = 0, p99_ms = 0;
  /// Per-query resource profiles of this point's queries still in the
  /// registry (obs/query_profile.h), heaviest task-wall first.
  std::vector<obs::QueryProfileSnapshot> profiles;
  /// Summed attribution across every query of the point: the profiles
  /// above plus those the query service already retired.
  obs::QueryProfileSnapshot totals;
};

/// Adds (sign > 0) or subtracts `p`'s summable counters into `into`; the
/// pinned-byte peak takes the max.
void AddCounters(obs::QueryProfileSnapshot& into,
                 const obs::QueryProfileSnapshot& p, int sign) {
  auto add = [sign](uint64_t& a, uint64_t b) {
    a = sign > 0 ? a + b : a - b;
  };
  add(into.tasks, p.tasks);
  add(into.task_wall_us, p.task_wall_us);
  add(into.steals, p.steals);
  add(into.resident_hits, p.resident_hits);
  add(into.resident_misses, p.resident_misses);
  add(into.bytes_spilled, p.bytes_spilled);
  add(into.evictions, p.evictions);
  add(into.bytes_reloaded, p.bytes_reloaded);
  add(into.shuffle_pushed_bytes, p.shuffle_pushed_bytes);
  add(into.admission_wait_us, p.admission_wait_us);
  into.peak_pinned_bytes =
      std::max(into.peak_pinned_bytes, p.peak_pinned_bytes);
}

PointResult RunPoint(Session& session, IndexedDataFrame& indexed,
                     const DataFrame& probe, const DataFrame& append_rows,
                     const std::vector<std::vector<std::string>>& lookup_exp,
                     const std::vector<std::string>& join_exp,
                     uint32_t clients, double seconds, double target_qps) {
  // Profile ids allocated before this point belong to earlier points (or
  // the ground-truth EXPLAINs); diffing the registry afterwards isolates
  // this point's queries.
  obs::QueryProfileRegistry& registry = obs::QueryProfileRegistry::Global();
  const std::vector<uint64_t> prior_ids = registry.Ids();
  obs::QueryProfileSnapshot retired_before;  // zeros until a query retires
  registry.Snapshot(obs::kRetiredQueryId, &retired_before);
  server::QueryService service(session);
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint64_t> rejected{0};
  std::atomic<uint64_t> lookups{0}, joins{0}, appends{0};
  std::atomic<bool> stop{false};
  std::vector<Sample> latencies(clients);

  auto client = [&](uint32_t c) {
    Rng rng{0x9e3779b97f4a7c15ull * (c + 1)};
    // Pace each client at target/clients; 0 = as fast as completions allow.
    const double interval_s =
        target_qps > 0 ? static_cast<double>(clients) / target_qps : 0;
    auto next_send = std::chrono::steady_clock::now();
    while (!stop.load(std::memory_order_relaxed)) {
      const uint64_t roll = rng.Next() % 100;
      const int64_t key = static_cast<int64_t>(rng.Next() % kKeySpace);
      server::QueryWork work;
      const std::vector<std::string>* expect = nullptr;
      if (roll < 70) {
        lookups.fetch_add(1, std::memory_order_relaxed);
        expect = &lookup_exp[key];
        work = [&indexed, key](server::QueryContext& ctx) -> Status {
          IDF_ASSIGN_OR_RETURN(ctx.result, indexed.GetRows(Value::Int64(key)));
          return Status::OK();
        };
      } else if (roll < 90) {
        joins.fetch_add(1, std::memory_order_relaxed);
        expect = &join_exp;
        work = [&indexed, &probe](server::QueryContext& ctx) -> Status {
          IDF_ASSIGN_OR_RETURN(ctx.result,
                               indexed.Join(probe, "src").Collect());
          return Status::OK();
        };
      } else {
        appends.fetch_add(1, std::memory_order_relaxed);
        // Appends publish a fresh version each time (dropped afterwards);
        // lookups/joins keep reading the base version, so their expected
        // bytes never change. Read the new version back as the "result".
        work = [&indexed, &append_rows, key](server::QueryContext& ctx)
            -> Status {
          IDF_ASSIGN_OR_RETURN(IndexedDataFrame next,
                               indexed.AppendRows(append_rows));
          IDF_ASSIGN_OR_RETURN(ctx.result, next.GetRows(Value::Int64(key)));
          return Status::OK();
        };
      }
      if (interval_s > 0) {
        next_send += std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(interval_s));
        std::this_thread::sleep_until(next_send);
        if (stop.load(std::memory_order_relaxed)) break;
      }
      const auto t0 = std::chrono::steady_clock::now();
      server::QueryHandle handle = service.Submit(std::move(work), {});
      const Status status = handle.Wait();
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      if (status.ok()) {
        latencies[c].Add(ms);
        if (expect != nullptr) {
          Result<CollectedTable> result = handle.TakeResult();
          if (!result.ok() || result->SortedRowStrings() != *expect) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      } else if (status.code() == StatusCode::kResourceExhausted) {
        rejected.fetch_add(1, std::memory_order_relaxed);
      } else {
        std::fprintf(stderr, "client %u: query failed: %s\n", c,
                     status.ToString().c_str());
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (uint32_t c = 0; c < clients; ++c) threads.emplace_back(client, c);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (std::thread& t : threads) t.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  service.Shutdown(/*cancel_pending=*/false);

  Sample all;
  for (Sample& s : latencies) {
    for (double v : s.values()) all.Add(v);
  }
  PointResult out;
  out.clients = clients;
  out.completed = all.size();
  out.lookups = lookups.load();
  out.joins = joins.load();
  out.appends = appends.load();
  out.rejected = rejected.load();
  out.mismatches = mismatches.load();
  out.seconds = elapsed;
  out.qps = elapsed > 0 ? static_cast<double>(all.size()) / elapsed : 0;
  out.p50_ms = all.Quantile(0.50);
  out.p95_ms = all.Quantile(0.95);
  out.p99_ms = all.Quantile(0.99);
  const std::unordered_set<uint64_t> seen(prior_ids.begin(), prior_ids.end());
  for (obs::QueryProfileSnapshot& snap : registry.SnapshotAll()) {
    if (snap.id == obs::kRetiredQueryId) {
      AddCounters(out.totals, snap, +1);
      AddCounters(out.totals, retired_before, -1);
      continue;
    }
    if (snap.id == 0 || seen.count(snap.id) != 0) continue;
    AddCounters(out.totals, snap, +1);
    out.profiles.push_back(std::move(snap));
  }
  std::sort(out.profiles.begin(), out.profiles.end(),
            [](const obs::QueryProfileSnapshot& a,
               const obs::QueryProfileSnapshot& b) {
              return a.task_wall_us > b.task_wall_us;
            });
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  idf::bench::ObsGuard obs(argc, argv);
  std::vector<uint32_t> client_counts = {2, 8};
  double seconds = 5.0;
  double target_qps = 0;
  std::string serve_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--clients=", 10) == 0) {
      client_counts.clear();
      for (const char* p = argv[i] + 10; *p != '\0';) {
        client_counts.push_back(static_cast<uint32_t>(std::strtoul(p, nullptr, 10)));
        while (*p != '\0' && *p != ',') ++p;
        if (*p == ',') ++p;
      }
    } else if (std::strncmp(argv[i], "--seconds=", 10) == 0) {
      seconds = std::atof(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--qps=", 6) == 0) {
      target_qps = std::atof(argv[i] + 6);
    } else if (std::strncmp(argv[i], "--serve-out=", 12) == 0) {
      serve_out = argv[i] + 12;
    }
  }

  const double scale = bench::ScaleEnv();
  SessionOptions options;
  options.cluster.num_workers = 2;
  options.cluster.executors_per_worker = 2;
  options.cluster.cores_per_executor = 2;
  options.default_partitions = 8;
  bench::PrintHeader(
      "Serve", "concurrent multi-client serving through the query service",
      "N closed-loop clients share one indexed table and one memory budget; "
      "results stay byte-identical to serial execution",
      options);
  const server::QueryServiceConfig service_config =
      server::QueryServiceConfig::FromEnv();
  Session session(options);  // configures the governor from IDF_MEMORY_BUDGET
  std::printf("service: %u workers, queue depth %u, reservation %llu bytes, "
              "policy %s; governor budget %llu bytes\n",
              service_config.workers, service_config.max_queue,
              static_cast<unsigned long long>(
                  service_config.default_reservation_bytes),
              service_config.policy == server::AdmitPolicy::kQueue ? "queue"
                                                                   : "reject",
              static_cast<unsigned long long>(
                  mem::MemoryGovernor::Global().budget_bytes()));
  const int64_t base_rows = std::max<int64_t>(4000, int64_t(100000 * scale));
  IndexOptions index_options;
  index_options.batch_capacity = 4 << 10;
  auto edges =
      *session.CreateTable("edges", EdgeSchema(), DenseEdges(base_rows, 0));
  auto probe =
      *session.CreateTable("probe", EdgeSchema(),
                           DenseEdges(std::max<int64_t>(200, base_rows / 100),
                                      3));
  auto append_rows = *session.CreateTable(
      "append_rows", EdgeSchema(),
      DenseEdges(std::max<int64_t>(500, base_rows / 50), 17));
  auto indexed = *IndexedDataFrame::Create(edges, "src", index_options);

  // Serial ground truth, computed once before any concurrency: what every
  // lookup and join must return, byte for byte, throughout the run.
  std::vector<std::vector<std::string>> lookup_exp(kKeySpace);
  for (int64_t k = 0; k < kKeySpace; ++k) {
    lookup_exp[k] = indexed.GetRows(Value::Int64(k))->SortedRowStrings();
  }
  const std::vector<std::string> join_exp =
      indexed.Join(probe, "src").Collect()->SortedRowStrings();

  std::printf("table: %lld rows, %u partitions, %lld-key space\n\n",
              static_cast<long long>(base_rows), indexed.num_partitions(),
              static_cast<long long>(kKeySpace));
  std::printf("%-9s %-10s %-10s %-9s %-9s %-9s %-9s %-10s\n", "clients",
              "queries", "qps", "p50 ms", "p95 ms", "p99 ms", "rejected",
              "mismatches");

  std::vector<PointResult> results;
  uint64_t total_mismatches = 0;
  for (uint32_t clients : client_counts) {
    PointResult r = RunPoint(session, indexed, probe, append_rows, lookup_exp,
                             join_exp, clients, seconds, target_qps);
    std::printf("%-9u %-10llu %-10.1f %-9.2f %-9.2f %-9.2f %-9llu %-10llu\n",
                r.clients, static_cast<unsigned long long>(r.completed), r.qps,
                r.p50_ms, r.p95_ms, r.p99_ms,
                static_cast<unsigned long long>(r.rejected),
                static_cast<unsigned long long>(r.mismatches));
    total_mismatches += r.mismatches;
    results.push_back(r);
  }

  if (!serve_out.empty()) {
    FILE* f = std::fopen(serve_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", serve_out.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\"bench\": \"fig_serve\", \"workers\": %u, "
                 "\"budget_bytes\": %llu, \"target_qps\": %.1f, "
                 "\"points\": [",
                 service_config.workers,
                 static_cast<unsigned long long>(
                     mem::MemoryGovernor::Global().budget_bytes()),
                 target_qps);
    for (size_t i = 0; i < results.size(); ++i) {
      const PointResult& r = results[i];
      std::fprintf(
          f,
          "%s{\"clients\": %u, \"queries\": %llu, \"lookups\": %llu, "
          "\"joins\": %llu, \"appends\": %llu, \"seconds\": %.2f, "
          "\"qps\": %.2f, \"p50_ms\": %.3f, \"p95_ms\": %.3f, "
          "\"p99_ms\": %.3f, \"rejected\": %llu, \"mismatches\": %llu",
          i == 0 ? "" : ", ", r.clients,
          static_cast<unsigned long long>(r.completed),
          static_cast<unsigned long long>(r.lookups),
          static_cast<unsigned long long>(r.joins),
          static_cast<unsigned long long>(r.appends), r.seconds, r.qps,
          r.p50_ms, r.p95_ms, r.p99_ms,
          static_cast<unsigned long long>(r.rejected),
          static_cast<unsigned long long>(r.mismatches));
      // Summed attribution across every query of the point, then the
      // heaviest few individual profiles (the full set can be thousands of
      // one-lookup queries; the sum is what conservation checks need).
      std::fprintf(f, ", \"profiled_queries\": %zu, \"profile_totals\": %s",
                   r.profiles.size(), obs::QueryProfileJson(r.totals).c_str());
      std::fprintf(f, ", \"profiles\": [");
      const size_t top = std::min<size_t>(r.profiles.size(), 8);
      for (size_t j = 0; j < top; ++j) {
        std::fprintf(f, "%s%s", j == 0 ? "" : ", ",
                     obs::QueryProfileJson(r.profiles[j]).c_str());
      }
      std::fprintf(f, "]}");
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
    std::printf("serve results written to %s\n", serve_out.c_str());
  }

  if (total_mismatches != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu result mismatches against serial ground truth\n",
                 static_cast<unsigned long long>(total_mismatches));
    return 1;
  }
  std::printf("all results byte-identical to serial ground truth\n");
  bench::PrintFooter();
  return 0;
}
