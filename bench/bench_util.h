// Shared scaffolding for the figure/table reproduction benches.
//
// Every bench prints (a) what the paper's figure reports, (b) the simulated
// topology used (Table I analogue), and (c) our measured rows/series.
// Scale is adjustable without recompiling:
//   IDF_BENCH_SCALE  — multiplies dataset sizes (default 1.0)
//   IDF_BENCH_REPS   — repetitions per data point (default per-bench)
//
// Observability (see docs/OBSERVABILITY.md):
//   --metrics-out=<file>.json  (or IDF_METRICS_OUT=<file>)
//       dump the global metrics registry as JSON on exit
//   --events-out=<file>.jsonl  (or IDF_EVENTS_OUT=<file>)
//       dump the flight-recorder journal (decode with tools/idf_events.py;
//       its --chrome flag turns the journal into a Chrome trace_event file)
//   --hold-seconds=<n>         (or IDF_HOLD_SECONDS=<n>)
//       sleep n seconds before exporting/exiting, so an external scraper
//       (curl against IDF_OBS_PORT) can observe the finished run
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>

#include "common/stats.h"
#include "common/timer.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "sql/session.h"

namespace idf::bench {

/// Declared at the top of a bench's main(): parses --metrics-out= /
/// --events-out= (and the matching env vars) and exports both files from
/// its destructor — after the bench body has run.
class ObsGuard {
 public:
  ObsGuard(int argc, char** argv) {
    if (const char* env = std::getenv("IDF_METRICS_OUT")) metrics_path_ = env;
    if (const char* env = std::getenv("IDF_EVENTS_OUT")) events_path_ = env;
    if (const char* env = std::getenv("IDF_HOLD_SECONDS")) {
      hold_seconds_ = std::atoi(env);
    }
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--metrics-out=", 14) == 0) {
        metrics_path_ = arg + 14;
      } else if (std::strncmp(arg, "--events-out=", 13) == 0) {
        events_path_ = arg + 13;
      } else if (std::strncmp(arg, "--hold-seconds=", 15) == 0) {
        hold_seconds_ = std::atoi(arg + 15);
      }
    }
  }

  ~ObsGuard() {
    if (hold_seconds_ > 0) {
      std::printf("holding %d s for external scrapers (/metrics /events)...\n",
                  hold_seconds_);
      std::fflush(stdout);
      std::this_thread::sleep_for(std::chrono::seconds(hold_seconds_));
    }
    if (!events_path_.empty()) {
      const Status s =
          obs::FlightRecorder::Global().DumpJsonl(events_path_);
      if (s.ok()) {
        std::printf("flight-recorder journal written to %s "
                    "(decode with tools/idf_events.py)\n",
                    events_path_.c_str());
      } else {
        std::fprintf(stderr, "events export failed: %s\n",
                     s.message().c_str());
      }
    }
    if (!metrics_path_.empty()) {
      const Status s = obs::Registry::Global().WriteJson(metrics_path_);
      if (s.ok()) {
        std::printf("metrics registry written to %s\n", metrics_path_.c_str());
      } else {
        std::fprintf(stderr, "metrics export failed: %s\n",
                     s.message().c_str());
      }
    }
  }

  ObsGuard(const ObsGuard&) = delete;
  ObsGuard& operator=(const ObsGuard&) = delete;

 private:
  std::string metrics_path_;
  std::string events_path_;
  int hold_seconds_ = 0;
};

inline double ScaleEnv() {
  const char* s = std::getenv("IDF_BENCH_SCALE");
  if (s == nullptr) return 1.0;
  const double v = std::atof(s);
  return v > 0 ? v : 1.0;
}

inline int RepsEnv(int fallback) {
  const char* s = std::getenv("IDF_BENCH_REPS");
  if (s == nullptr) return fallback;
  const int v = std::atoi(s);
  return v > 0 ? v : fallback;
}

/// Table I "Private Cluster": dual-socket 16-core nodes, FDR InfiniBand.
inline SessionOptions PrivateCluster(uint32_t workers = 8) {
  SessionOptions options;
  options.cluster.num_workers = workers;
  // §IV-B best configuration: 4 executors per machine, 4 cores each,
  // two per NUMA domain, pinned.
  options.cluster.executors_per_worker = 4;
  options.cluster.cores_per_executor = 4;
  options.cluster.cores_per_worker = 16;
  options.cluster.sockets_per_worker = 2;
  options.cluster.numa_pinned = true;
  options.cluster.network.bandwidth_bytes_per_s = 7.0e9;  // FDR IB ~56 Gbps
  options.cluster.network.latency_s = 2e-6;
  options.default_partitions = 32;
  return options;
}

/// Table I "Amazon EC2": i3.xlarge (4 cores) or i3.8xlarge (16), 10 Gbps.
inline SessionOptions Ec2Cluster(uint32_t workers = 4, bool big = false) {
  SessionOptions options;
  options.cluster.num_workers = workers;
  options.cluster.executors_per_worker = 1;
  options.cluster.cores_per_executor = big ? 16 : 4;
  options.cluster.cores_per_worker = big ? 16 : 4;
  options.cluster.sockets_per_worker = big ? 2 : 1;
  options.cluster.numa_pinned = false;
  options.cluster.network.bandwidth_bytes_per_s = 1.25e9;  // 10 Gbps
  options.cluster.network.latency_s = 1e-4;
  options.default_partitions = workers * (big ? 16u : 4u);
  return options;
}

inline void PrintHeader(const std::string& figure, const std::string& title,
                        const std::string& paper_expectation,
                        const SessionOptions& options) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure.c_str(), title.c_str());
  std::printf("paper expectation: %s\n", paper_expectation.c_str());
  std::printf("simulated topology: %s\n", options.cluster.ToString().c_str());
  std::printf("bench scale: %.2fx\n", ScaleEnv());
  std::printf("--------------------------------------------------------------\n");
}

inline void PrintFooter() {
  std::printf("==============================================================\n\n");
}

/// Runs `fn` `reps` times; returns per-run seconds.
inline Sample TimeRepeated(int reps, const std::function<void()>& fn) {
  Sample sample;
  for (int r = 0; r < reps; ++r) {
    Stopwatch timer;
    fn();
    sample.Add(timer.ElapsedSeconds());
  }
  return sample;
}

/// Collected timings of a query under both clocks.
struct QueryTiming {
  Sample real;       // host CPU seconds
  Sample simulated;  // DES cluster seconds
};

/// Runs a DataFrame query `reps` times, recording both clocks.
inline QueryTiming TimeQuery(int reps,
                             const std::function<QueryMetrics()>& run) {
  QueryTiming timing;
  for (int r = 0; r < reps; ++r) {
    Stopwatch timer;
    QueryMetrics metrics = run();
    timing.real.Add(timer.ElapsedSeconds());
    timing.simulated.Add(metrics.simulated_seconds);
  }
  return timing;
}

}  // namespace idf::bench
