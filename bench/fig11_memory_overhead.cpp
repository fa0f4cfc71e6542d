// Fig. 11 reproduction: per-partition memory overhead of the cTrie index.
//
// Paper: the 30 GB SNB edge table split into 64 partitions; "the memory
// overhead for the Indexed DataFrame is consistently lower than 2% and
// therefore negligible". We measure index bytes (deep cTrie size, the JAMM
// analogue) against row-batch data bytes for each of 64 partitions.
//
// --budget mode: additionally sweeps shrinking memory budgets through the
// memory governor (src/mem/governor.h) and reports resident vs spilled
// bytes and reload-fault counts for a fixed lookup workload at each step —
// the out-of-core extension the paper sketches in §III-C.
//
// --columnar mode: engages the governor before the session exists so the
// vanilla cache's columnar chunks are sealed as budgeted evictables, then
// sweeps a filter query over the SNB edge table at shrinking budgets. At
// every step the query result must be byte-identical to the unbudgeted run,
// and the residency-aware scheduler's hit counters show how many tasks were
// dispatched onto resident inputs.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>

#include "bench/bench_util.h"
#include "core/indexed_dataframe.h"
#include "mem/governor.h"
#include "obs/metrics_registry.h"
#include "workload/snb.h"

using namespace idf;

namespace {

/// Fixed probe workload: point lookups across the key range. Returns total
/// rows matched (sanity: must be identical at every budget). With
/// `largest_result` set, also reports the bytes of the largest single
/// lookup result (its operator's bytes_out): each result is governed while
/// its lookup runs and freed before the next one starts.
uint64_t RunLookups(const IndexedDataFrame& indexed, int64_t max_key,
                    uint64_t* largest_result = nullptr) {
  uint64_t matched = 0;
  for (int64_t k = 1; k <= max_key; k += max_key / 64) {
    QueryMetrics metrics;
    if (largest_result != nullptr) {
      metrics.op_profile = std::make_shared<std::map<const void*, OpProfile>>();
    }
    auto rows = indexed.GetRows(Value::Int64(k), &metrics);
    if (rows.ok()) matched += rows->rows.size();
    if (largest_result == nullptr) continue;
    for (const auto& [node, profile] : *metrics.op_profile) {
      *largest_result = std::max(*largest_result, profile.bytes_out);
    }
  }
  return matched;
}

void RunBudgetSweep(const IndexedDataFrame& indexed, int64_t max_key) {
  mem::MemoryGovernor& gov = mem::MemoryGovernor::Global();
  const uint64_t index_bytes = gov.resident_bytes();
  uint64_t result_bytes = 0;
  const uint64_t baseline_rows = RunLookups(indexed, max_key, &result_bytes);
  const uint64_t working_set = index_bytes + result_bytes;
  std::printf("\nbudget sweep (working set %.1f MB = index %.1f MB + largest "
              "lookup result %.1f KB, fixed lookup workload of %llu rows):\n",
              working_set / 1048576.0, index_bytes / 1048576.0,
              result_bytes / 1024.0,
              static_cast<unsigned long long>(baseline_rows));
  std::printf("  %-10s %-12s %-12s %-10s %-10s %-8s\n", "budget", "resident",
              "spilled", "evictions", "faults", "rows");
  // 100% (unbounded) down to 12.5% of the working set. One RegistryDelta per
  // rung isolates that rung's governor activity from everything before it.
  const double fractions[] = {1.0, 0.75, 0.5, 0.25, 0.125};
  obs::RegistryDelta delta;
  for (const double fraction : fractions) {
    const uint64_t budget =
        static_cast<uint64_t>(static_cast<double>(working_set) * fraction);
    delta.Reset();
    mem::ScopedBudget scoped(budget);
    const uint64_t rows = RunLookups(indexed, max_key);
    std::printf("  %6.1f%%    %-12llu %-12llu %-10llu %-10llu %llu\n",
                fraction * 100.0,
                static_cast<unsigned long long>(gov.resident_bytes()),
                static_cast<unsigned long long>(gov.spilled_bytes()),
                static_cast<unsigned long long>(delta.Counter("mem.evictions")),
                static_cast<unsigned long long>(
                    delta.Counter("mem.reload_faults")),
                static_cast<unsigned long long>(rows));
  }
}

/// --columnar sweep: a fixed filter query over the governed columnar cache
/// at 100% / 50% / 25% of the query's working set: the cached table plus
/// the query's own result chunks, which are governed too and share the
/// budget with the table while the query runs. Chunks evict and fault back
/// column-by-column; the scheduler prefers tasks whose partitions are still
/// resident. Results must match the unbudgeted baseline exactly.
void RunColumnarSweep(DataFrame& edges) {
  mem::MemoryGovernor& gov = mem::MemoryGovernor::Global();
  const uint64_t table_bytes = gov.resident_bytes();
  ExprPtr predicate = Gt(Col("weight"), Lit(0.5));
  uint64_t result_bytes = 0;
  std::vector<std::string> expected;
  {
    auto baseline = edges.Filter(predicate).Execute();
    auto collected = baseline.ok() ? edges.session()->Collect(*baseline)
                                   : Result<CollectedTable>(baseline.status());
    if (!collected.ok()) {
      std::printf("columnar sweep: baseline query failed: %s\n",
                  collected.status().ToString().c_str());
      return;
    }
    result_bytes = baseline->total_bytes;
    expected = collected->SortedRowStrings();
  }  // the baseline's result chunks are freed here, before the first rung
  const uint64_t working_set = table_bytes + result_bytes;

  std::printf("\ncolumnar sweep (working set %.1f MB = table %.1f MB + result "
              "%.1f MB, filter weight > 0.5, %zu matching rows):\n",
              working_set / 1048576.0, table_bytes / 1048576.0,
              result_bytes / 1048576.0, expected.size());
  std::printf("  %-8s %-12s %-12s %-10s %-8s %-10s %-10s %-9s %s\n", "budget",
              "resident", "spilled", "evictions", "faults", "res.hits",
              "res.misses", "hit-rate", "identical");
  // Two delta scopes: `sweep` spans the whole sweep for the overall hit
  // rate; `rung` resets per budget step for the table rows.
  obs::RegistryDelta sweep;
  obs::RegistryDelta rung;
  const double fractions[] = {1.0, 0.5, 0.25};
  for (const double fraction : fractions) {
    const uint64_t budget =
        static_cast<uint64_t>(static_cast<double>(working_set) * fraction);
    rung.Reset();
    mem::ScopedBudget scoped(budget);
    auto result = edges.Filter(predicate).Collect();
    const bool identical =
        result.ok() && result->SortedRowStrings() == expected;
    const uint64_t hit_delta = rung.Counter("sched.resident_hits");
    const uint64_t task_delta = rung.Counter("engine.tasks");
    std::printf("  %5.1f%%   %-12llu %-12llu %-10llu %-8llu %-10llu %-10llu "
                "%6.1f%%   %s\n",
                fraction * 100.0,
                static_cast<unsigned long long>(gov.resident_bytes()),
                static_cast<unsigned long long>(gov.spilled_bytes()),
                static_cast<unsigned long long>(rung.Counter("mem.evictions")),
                static_cast<unsigned long long>(
                    rung.Counter("mem.reload_faults")),
                static_cast<unsigned long long>(hit_delta),
                static_cast<unsigned long long>(
                    rung.Counter("sched.resident_misses")),
                task_delta == 0
                    ? 0.0
                    : 100.0 * static_cast<double>(hit_delta) /
                          static_cast<double>(task_delta),
                identical ? "yes" : "NO");
  }
  const uint64_t sweep_hits = sweep.Counter("sched.resident_hits");
  const uint64_t sweep_tasks = sweep.Counter("engine.tasks");
  std::printf("overall resident-dispatch hit rate: %llu/%llu tasks (%.1f%%)\n",
              static_cast<unsigned long long>(sweep_hits),
              static_cast<unsigned long long>(sweep_tasks),
              sweep_tasks == 0 ? 0.0
                               : 100.0 * static_cast<double>(sweep_hits) /
                                     static_cast<double>(sweep_tasks));
}

}  // namespace

int main(int argc, char** argv) {
  idf::bench::ObsGuard obs(argc, argv);
  bool budget_mode = false;
  bool columnar_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--budget") == 0) budget_mode = true;
    if (std::strcmp(argv[i], "--columnar") == 0) columnar_mode = true;
  }
  // In --columnar mode the governor must be engaged before the session is
  // built: columnar chunks only register as evictables when sealed while a
  // budget is active. A huge budget keeps the build itself unconstrained.
  std::optional<mem::ScopedBudget> engage;
  if (columnar_mode) engage.emplace(1ull << 40);
  const double scale = bench::ScaleEnv();
  SessionOptions options = bench::PrivateCluster();
  bench::PrintHeader("Fig. 11", "per-partition index memory overhead",
                     "overhead consistently below 2% of the partition data",
                     options);
  Session session(options);

  const SnbConfig snb = SnbConfig::ScaleFactor(2.0 * scale, 64);
  SnbGenerator generator(snb);
  DataFrame edges = generator.Edges(session).value();
  if (columnar_mode) {
    RunColumnarSweep(edges);
    bench::PrintFooter();
    return 0;
  }
  IndexOptions index_options;
  index_options.num_partitions = 64;  // as in the paper's figure
  IndexedDataFrame indexed =
      IndexedDataFrame::Create(edges, "edge_source", index_options).value();

  auto report = indexed.MemoryReport().value();
  double min_pct = 1e9, max_pct = 0, sum_pct = 0;
  uint64_t total_data = 0, total_allocated = 0, total_index = 0;
  uint64_t total_batches = 0;
  for (const PartitionMemory& pm : report) {
    const double pct = pm.overhead_fraction() * 100.0;
    min_pct = std::min(min_pct, pct);
    max_pct = std::max(max_pct, pct);
    sum_pct += pct;
    total_data += pm.data_bytes;
    total_allocated += pm.allocated_bytes;
    total_batches += pm.num_batches;
    total_index += pm.index_bytes;
  }

  std::printf("partitions: %zu | rows: %llu | data: %.1f MB | index: %.2f MB\n",
              report.size(),
              static_cast<unsigned long long>(indexed.num_rows()),
              total_data / 1048576.0, total_index / 1048576.0);
  std::printf("batches: %llu | allocated: %.1f MB | unused batch tails: "
              "%.2f MB\n",
              static_cast<unsigned long long>(total_batches),
              total_allocated / 1048576.0,
              (total_allocated - total_data) / 1048576.0);
  std::printf("per-partition overhead: min %.2f%%  mean %.2f%%  max %.2f%%\n",
              min_pct, sum_pct / static_cast<double>(report.size()), max_pct);
  std::printf("first 8 partitions:\n");
  for (size_t i = 0; i < std::min<size_t>(8, report.size()); ++i) {
    const PartitionMemory& pm = report[i];
    std::printf("  p%-3u rows=%-8llu data=%-10llu allocated=%-10llu "
                "index=%-9llu overhead=%.2f%%\n",
                pm.partition, static_cast<unsigned long long>(pm.num_rows),
                static_cast<unsigned long long>(pm.data_bytes),
                static_cast<unsigned long long>(pm.allocated_bytes),
                static_cast<unsigned long long>(pm.index_bytes),
                pm.overhead_fraction() * 100.0);
  }
  std::printf("paper: <2%% everywhere; measured max: %.2f%% -> %s\n", max_pct,
              max_pct < 2.0 ? "REPRODUCED" : "see EXPERIMENTS.md discussion");
  if (budget_mode) {
    RunBudgetSweep(indexed, static_cast<int64_t>(snb.num_vertices));
  }
  bench::PrintFooter();
  return 0;
}
