// Fig. 9 reproduction: read-latency increase when interleaving appends.
//
// Paper: 200 S-joins with an append every 5 queries; "writes of at most 100K
// rows slow down reads by a factor of 3X, but larger writes double the
// latency to a factor of 6X" — still well under vanilla Spark's per-query
// cost (Fig. 7), which tolerates no appends at all.
#include <cstdio>

#include "bench/bench_util.h"
#include "core/indexed_dataframe.h"
#include "workload/snb.h"

using namespace idf;

namespace {

/// Mean read (join) latency across `queries` S-joins with an append of
/// `append_rows` rows every 5 queries (0 = no appends, the baseline).
double MeanReadLatency(Session& session, const SnbGenerator& generator,
                       const SnbConfig& snb, uint64_t append_rows,
                       int queries) {
  DataFrame edges = generator.Edges(session).value();
  IndexedDataFrame current =
      IndexedDataFrame::Create(edges, "edge_source").value();
  DataFrame probe = generator
                        .EdgeSample(session,
                                    std::max<uint64_t>(4, snb.num_edges / 100000),
                                    /*seed=*/11)
                        .value();
  Sample reads;
  for (int q = 0; q < queries; ++q) {
    if (append_rows > 0 && q % 5 == 4) {
      DataFrame extra =
          generator.EdgeSample(session, append_rows, 500 + q).value();
      current = current.AppendRows(extra).value();
    }
    Stopwatch timer;
    (void)current.Join(probe, "edge_source").Count().value();
    reads.Add(timer.ElapsedSeconds());
  }
  return reads.Mean();
}

}  // namespace

int main(int argc, char** argv) {
  idf::bench::ObsGuard obs(argc, argv);
  const double scale = bench::ScaleEnv();
  const int queries = bench::RepsEnv(0) > 0 ? bench::RepsEnv(0) : 100;
  SessionOptions options = bench::PrivateCluster();
  bench::PrintHeader("Fig. 9", "read latency under interleaved appends",
                     "appends <=100K rows: ~3x read slowdown; 1M-row "
                     "appends: ~6x — all cheaper than vanilla joins",
                     options);
  Session session(options);

  const SnbConfig snb = SnbConfig::ScaleFactor(1.0 * scale, 32);
  SnbGenerator generator(snb);

  const double baseline =
      MeanReadLatency(session, generator, snb, 0, queries);
  std::printf("baseline (no appends): mean S-join latency %.2f ms\n",
              baseline * 1e3);

  std::printf("%-16s %-20s %-14s %s\n", "append rows", "mean read (ms)",
              "slowdown", "paper");
  struct Point {
    uint64_t rows;
    const char* paper;
  };
  // Paper sweeps 100 .. 1M appended rows; we keep the same 4-decade sweep
  // relative to our build size (paper: 1e-7..1e-3 of 1B; ours: of ~1M).
  const Point points[] = {
      {snb.num_edges / 10000, "~3x (small writes)"},
      {snb.num_edges / 1000, "~3x"},
      {snb.num_edges / 100, "~3x (100K rows)"},
      {snb.num_edges / 10, "~6x (large writes)"},
  };
  for (const Point& point : points) {
    const double mean =
        MeanReadLatency(session, generator, snb, point.rows, queries);
    std::printf("%-16llu %-20.2f %-14.2f %s\n",
                static_cast<unsigned long long>(point.rows), mean * 1e3,
                mean / baseline, point.paper);
  }
  bench::PrintFooter();
  return 0;
}
