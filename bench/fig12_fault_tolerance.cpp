// Fig. 12 reproduction: executor failure during a 200-query S-join sequence.
//
// Paper (8-node cluster, executor holding 4 indexed partitions killed during
// query 20): "re-creating the index extends the execution time of this query
// to over 13s, but subsequent queries operate at regular speed and the
// average execution time is only increased marginally".
#include <cstdio>

#include "bench/bench_util.h"
#include "core/indexed_dataframe.h"
#include "workload/snb.h"

using namespace idf;

int main(int argc, char** argv) {
  idf::bench::ObsGuard obs(argc, argv);
  const double scale = bench::ScaleEnv();
  const int queries = bench::RepsEnv(0) > 0 ? bench::RepsEnv(0) : 200;
  SessionOptions options = bench::PrivateCluster(8);
  bench::PrintHeader("Fig. 12", "executor failure during 200 S-joins",
                     "one query pays the re-index + append replay; the rest "
                     "run at normal speed",
                     options);
  Session session(options);

  const SnbConfig snb = SnbConfig::ScaleFactor(1.0 * scale, 32);
  SnbGenerator generator(snb);
  DataFrame edges = generator.Edges(session).value();
  IndexedDataFrame indexed =
      IndexedDataFrame::Create(edges, "edge_source").value();
  // Include an append so recovery must also replay it (§III-D).
  DataFrame extra = generator.EdgeSample(session, 1000, 42).value();
  indexed = indexed.AppendRows(extra).value();

  DataFrame probe =
      generator
          .EdgeSample(session, std::max<uint64_t>(4, snb.num_edges / 100000),
                      7)
          .value();

  Sample normal;
  double failure_query_seconds = 0;
  double recovery_seconds = 0;
  uint32_t recovered_tasks = 0;
  for (int q = 1; q <= queries; ++q) {
    if (q == 20) {
      const size_t lost = session.cluster().KillExecutor(3);
      std::printf("query %d: killed executor 3 (%zu blocks lost)\n", q, lost);
    }
    QueryMetrics metrics;
    Stopwatch timer;
    (void)indexed.Join(probe, "edge_source").Count(&metrics).value();
    const double elapsed = timer.ElapsedSeconds();
    if (metrics.recovered_tasks > 0) {
      failure_query_seconds = elapsed;
      recovery_seconds = metrics.totals.recovery_seconds;
      recovered_tasks = metrics.recovered_tasks;
      std::printf("query %d: %.1f ms (recovered %u partitions from lineage, "
                  "%.1f ms of re-indexing + replay)\n",
                  q, elapsed * 1e3, metrics.recovered_tasks,
                  recovery_seconds * 1e3);
    } else {
      normal.Add(elapsed);
      if (q <= 25 || q % 50 == 0) {
        std::printf("query %d: %.2f ms\n", q, elapsed * 1e3);
      }
    }
  }

  std::printf("--- summary ---\n");
  std::printf("normal queries: mean %.2f ms (n=%zu)\n", normal.Mean() * 1e3,
              normal.size());
  std::printf("failure query: %.1f ms = %.0fx a normal query "
              "(%u partitions recovered)\n",
              failure_query_seconds * 1e3,
              failure_query_seconds / normal.Mean(), recovered_tasks);
  const double with = (normal.Mean() * static_cast<double>(normal.size()) +
                       failure_query_seconds) /
                      static_cast<double>(normal.size() + 1);
  std::printf("average incl. failure: %.2f ms (+%.1f%% — 'increased only "
              "marginally')\n",
              with * 1e3, (with / normal.Mean() - 1.0) * 100.0);
  bench::PrintFooter();
  return 0;
}
