// Fig. 4 reproduction: executors-per-machine x cores-per-executor x NUMA
// pinning, on the XL join (1B-row analogue, Table III).
//
// Paper: IQR boxplots over repeated runs; "more fine-grained executors
// perform better, and NUMA pinning is able to further reduce the running
// time"; the best configuration is 4 executors x 4 cores, pinned.
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "core/indexed_dataframe.h"
#include "workload/snb.h"

using namespace idf;

namespace {

struct Config {
  const char* label;
  uint32_t executors_per_worker;
  uint32_t cores_per_executor;
  bool pinned;
};

}  // namespace

int main(int argc, char** argv) {
  idf::bench::ObsGuard obs(argc, argv);
  const double scale = bench::ScaleEnv();
  const int reps = bench::RepsEnv(8);

  const Config configs[] = {
      {"1 exec x 16 cores (spans sockets)", 1, 16, false},
      {"2 exec x 8 cores, unpinned", 2, 8, false},
      {"4 exec x 4 cores, unpinned", 4, 4, false},
      {"8 exec x 2 cores, unpinned", 8, 2, false},
      {"4 exec x 4 cores, NUMA-pinned", 4, 4, true},
  };

  SessionOptions base = bench::PrivateCluster(8);
  bench::PrintHeader("Fig. 4",
                     "executor/core/NUMA configuration sweep (XL join)",
                     "finer-grained executors win; NUMA pinning wins again; "
                     "4x4 pinned is best",
                     base);

  const SnbConfig snb = SnbConfig::ScaleFactor(2.0 * scale, 32);
  const uint64_t probe_rows = std::max<uint64_t>(8, snb.num_edges / 100);

  // Keep every configuration's session alive and interleave the repetitions
  // round-robin. Measuring configurations back-to-back would confound them
  // with process-lifetime drift (allocator churn from the large join
  // outputs); interleaving spreads any drift across all of them.
  struct Instance {
    std::unique_ptr<Session> session;
    std::unique_ptr<IndexedDataFrame> indexed;
    std::unique_ptr<SnbGenerator> generator;
    Sample sim_seconds;
  };
  std::vector<Instance> instances;
  for (const Config& config : configs) {
    SessionOptions options = base;
    options.cluster.executors_per_worker = config.executors_per_worker;
    options.cluster.cores_per_executor = config.cores_per_executor;
    options.cluster.numa_pinned = config.pinned;
    Instance inst;
    inst.session = std::make_unique<Session>(options);
    inst.generator = std::make_unique<SnbGenerator>(snb);
    DataFrame edges = inst.generator->Edges(*inst.session).value();
    inst.indexed = std::make_unique<IndexedDataFrame>(
        IndexedDataFrame::Create(edges, "edge_source").value());
    instances.push_back(std::move(inst));
  }

  for (int r = 0; r < reps; ++r) {
    for (Instance& inst : instances) {
      // XL probe (Table III ratio), re-sampled per repetition so the
      // boxplot has genuine run-to-run variation.
      DataFrame probe =
          inst.generator->EdgeSample(*inst.session, probe_rows, 1000 + r)
              .value();
      QueryMetrics metrics;
      // The (large) join output is released when its handle drops here.
      inst.indexed->Join(probe, "edge_source").Execute(&metrics).value();
      inst.sim_seconds.Add(metrics.simulated_seconds);
    }
  }

  std::printf("%-36s %s\n", "configuration", "simulated runtime boxplot (s)");
  // Rank by median: the robust center of the paper's IQR boxplots (means
  // are distorted by rare host hiccups during the real task execution).
  double best = 1e300, worst = 0;
  std::string best_label, worst_label;
  for (size_t i = 0; i < instances.size(); ++i) {
    Sample& sim_seconds = instances[i].sim_seconds;
    std::printf("%-36s %s\n", configs[i].label,
                sim_seconds.BoxplotString().c_str());
    const double median = sim_seconds.Median();
    if (median < best) {
      best = median;
      best_label = configs[i].label;
    }
    if (median > worst) {
      worst = median;
      worst_label = configs[i].label;
    }
  }
  std::printf("--- summary (by median) ---\n");
  std::printf("best: %s | worst: %s | spread %.2fx\n", best_label.c_str(),
              worst_label.c_str(), worst / best);
  bench::PrintFooter();
  return 0;
}
