// Engine-wide metrics registry (observability layer; timestamped events
// live in obs/flight_recorder.h).
//
// Named, typed counters / gauges / histograms with cheap atomic updates.
// Hot paths obtain a metric reference once (a function-local static or a
// cached member) and then pay one relaxed atomic RMW per update — the
// registry map lookup happens only at first use. Metrics can be tagged
// (executor / stage / operator) via TaggedName(), which folds the tags into
// the metric name: `engine.stage.seconds{stage=filter}`.
//
// A snapshot of every metric can be taken at any point and exported as JSON
// (benches write it through the --metrics-out flag in bench/bench_util.h).
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace idf::obs {

/// Monotonically increasing 64-bit counter.
class Counter {
 public:
  void Add(uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-written-wins double value with atomic add.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double v) {
    // CAS loop instead of atomic<double>::fetch_add for portability.
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + v,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Lock-free histogram over base-2 exponential buckets.
///
/// Observations are doubles >= 0 (seconds, bytes, rows — unit is up to the
/// metric name). Bucket i covers values with binary exponent i + kMinExp,
/// giving ~2x resolution from 2^-40 (~1e-12) to 2^47 (~1e14) — wide enough
/// for nanoseconds-as-seconds up to terabytes-as-bytes. Quantiles are
/// estimated at bucket resolution (upper bound of the bucket).
class Histogram {
 public:
  static constexpr int kMinExp = -40;
  static constexpr int kNumBuckets = 88;

  void Observe(double v);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const {
    const uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }
  double min() const;
  double max() const;

  /// Bucket-resolution quantile estimate, q in [0, 1].
  double Quantile(double q) const;

  /// Non-cumulative per-bucket counts as (upper_bound, count) pairs, only
  /// buckets with count > 0, ascending by bound. The Prometheus exporter
  /// accumulates these into cumulative `le` buckets.
  std::vector<std::pair<double, uint64_t>> BucketCounts() const;

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  // Exact min/max, maintained with CAS loops; infinities until first Observe.
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Point-in-time value of one metric (see Registry::Snapshot).
struct MetricSnapshot {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  uint64_t counter_value = 0;   // kCounter
  double gauge_value = 0;       // kGauge
  uint64_t count = 0;           // kHistogram
  double sum = 0, mean = 0, min = 0, max = 0, p50 = 0, p95 = 0, p99 = 0;
  /// kHistogram: non-cumulative (upper_bound, count) pairs, non-zero
  /// buckets only, ascending (see Histogram::BucketCounts).
  std::vector<std::pair<double, uint64_t>> buckets;
};

/// Bucket-resolution quantile over a (upper_bound, count) bucket vector —
/// the same estimate Histogram::Quantile computes from its live buckets,
/// usable on diffed snapshots.
double BucketQuantile(const std::vector<std::pair<double, uint64_t>>& buckets,
                      double q);

/// Per-metric difference `after - before` of two Registry snapshots, for
/// per-phase reporting (benches): counters and histogram count/sum/buckets
/// subtract (quantiles/mean/min/max recomputed from the bucket deltas);
/// gauges are levels, not totals, so the delta keeps the `after` value.
/// Metrics absent from `before` count as zero there; metrics absent from
/// `after` are dropped. Output is sorted by name.
std::vector<MetricSnapshot> DiffSnapshots(
    const std::vector<MetricSnapshot>& before,
    const std::vector<MetricSnapshot>& after);

class Registry;

/// Phase-scoped metric deltas for benches: capture a baseline at
/// construction, then ask what changed.
///
///   obs::RegistryDelta phase;            // snapshot "before"
///   RunWorkload();
///   uint64_t evictions = phase.Counter("mem.evictions");
///   std::vector<MetricSnapshot> all = phase.Deltas();
///
/// Lets figure benches report per-phase numbers (one budget step, one
/// thread-count rung) instead of process-lifetime totals.
class RegistryDelta {
 public:
  /// Captures the baseline snapshot now. Defaults to the global registry.
  explicit RegistryDelta(const Registry* registry = nullptr);

  /// Re-captures the baseline (start of the next phase).
  void Reset();

  /// All metric deltas since the baseline (see DiffSnapshots).
  std::vector<MetricSnapshot> Deltas() const;

  /// Delta of one counter since the baseline (0 if never registered).
  uint64_t Counter(const std::string& name) const;

 private:
  const Registry* registry_;
  std::vector<MetricSnapshot> before_;
};

/// One tag dimension; TaggedName folds a list of these into a metric name.
using MetricTag = std::pair<const char*, std::string>;

/// "engine.task.seconds" + {{"stage","filter"},{"executor","3"}} ->
/// "engine.task.seconds{executor=3,stage=filter}" (tags sorted by key so
/// the same tag set always names the same metric).
std::string TaggedName(const std::string& base,
                       std::initializer_list<MetricTag> tags);

class Registry {
 public:
  /// The process-wide registry. Everything in the engine records here;
  /// tests may construct private registries.
  static Registry& Global();

  /// Get-or-create. References stay valid for the registry's lifetime, so
  /// hot paths cache them (e.g. in a function-local static). Requesting an
  /// existing name with a different kind is a programming error (checked).
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  /// All metrics, sorted by name.
  std::vector<MetricSnapshot> Snapshot() const;

  /// The snapshot rendered as a JSON object:
  ///   {"counters": {name: value, ...},
  ///    "gauges": {name: value, ...},
  ///    "histograms": {name: {"count":..,"sum":..,"mean":..,"min":..,
  ///                          "max":..,"p50":..,"p95":..,"p99":..,
  ///                          "buckets":[[le,count],...]}, ...}}
  /// Histogram "buckets" are non-cumulative counts keyed by the bucket's
  /// inclusive upper bound, non-zero buckets only — external tools get the
  /// explicit base-2 boundaries instead of reimplementing the bucket math.
  std::string ToJson() const;

  Status WriteJson(const std::string& path) const;

 private:
  struct Entry {
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mutex_;
  std::map<std::string, Entry> metrics_;
};

/// JSON string escaping shared by the metrics/trace/log JSON emitters.
std::string JsonEscape(const std::string& s);

}  // namespace idf::obs
