// Fig. 10 reproduction: write throughput of appendRows / createIndex for
// various rows-per-append, cumulated over 200 appends.
//
// Paper: "most of the write time is dominated by shuffles ... the results
// are similar for both append and createIndex, as the two APIs perform the
// same internal operations"; 200 appends of 1M rows (200M rows) took just
// below 7 seconds on their cluster.
#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"
#include "core/indexed_dataframe.h"
#include "workload/snb.h"

using namespace idf;

int main(int argc, char** argv) {
  idf::bench::ObsGuard obs(argc, argv);
  const double scale = bench::ScaleEnv();
  const int appends = bench::RepsEnv(0) > 0 ? bench::RepsEnv(0) : 200;
  SessionOptions options = bench::PrivateCluster();
  bench::PrintHeader("Fig. 10", "append/createIndex write throughput",
                     "throughput dominated by the shuffle; larger append "
                     "batches amortize better; append == createIndex",
                     options);
  Session session(options);

  const SnbConfig snb = SnbConfig::ScaleFactor(0.1 * scale, 32);
  SnbGenerator generator(snb);

  std::printf("--- appendRows: %d appends per batch size ---\n", appends);
  std::printf("%-14s %-14s %-16s %-16s %-14s\n", "rows/append", "total rows",
              "total time (s)", "rows/s", "shuffle MB");
  for (uint64_t rows_per_append :
       {uint64_t(1000 * scale), uint64_t(10000 * scale),
        uint64_t(50000 * scale)}) {
    DataFrame edges = generator.Edges(session).value();
    IndexedDataFrame current =
        IndexedDataFrame::Create(edges, "edge_source").value();
    QueryMetrics total_metrics;
    Stopwatch timer;
    for (int a = 0; a < appends; ++a) {
      DataFrame extra =
          generator.EdgeSample(session, rows_per_append, 9000 + a).value();
      QueryMetrics metrics;
      current = current.AppendRows(extra, &metrics).value();
      total_metrics.totals.MergeFrom(metrics.totals);
    }
    const double seconds = timer.ElapsedSeconds();
    const uint64_t total_rows = rows_per_append * appends;
    std::printf("%-14llu %-14llu %-16.2f %-16.0f %-14.1f\n",
                static_cast<unsigned long long>(rows_per_append),
                static_cast<unsigned long long>(total_rows), seconds,
                static_cast<double>(total_rows) / seconds,
                total_metrics.totals.shuffle_bytes_written / 1048576.0);
  }

  std::printf("--- createIndex on the same volumes (same write mechanism) ---\n");
  std::printf("%-14s %-16s %-16s\n", "rows", "time (s)", "rows/s");
  for (uint64_t rows : {uint64_t(200000 * scale), uint64_t(2000000 * scale)}) {
    SnbConfig config = snb;
    config.num_edges = rows;
    config.num_vertices = std::max<uint64_t>(1, rows / 100);
    SnbGenerator g(config);
    DataFrame edges = g.Edges(session).value();
    Stopwatch timer;
    (void)IndexedDataFrame::Create(edges, "edge_source").value();
    const double seconds = timer.ElapsedSeconds();
    std::printf("%-14llu %-16.2f %-16.0f\n",
                static_cast<unsigned long long>(rows), seconds,
                static_cast<double>(rows) / seconds);
  }
  std::printf("(per-row cost of createIndex matches bulk appendRows: same "
              "shuffle + insert path)\n");
  bench::PrintFooter();
  return 0;
}
