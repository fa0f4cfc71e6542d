#include "obs/metrics_registry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace idf::obs {

namespace {

int BucketOf(double v) {
  if (v <= 0.0) return 0;
  int exp = 0;
  std::frexp(v, &exp);  // v = m * 2^exp, m in [0.5, 1)
  const int bucket = exp - Histogram::kMinExp;
  return std::clamp(bucket, 0, Histogram::kNumBuckets - 1);
}

/// Upper bound of a bucket's value range (quantile estimates report this).
double BucketUpper(int bucket) {
  return std::ldexp(1.0, bucket + Histogram::kMinExp);
}

}  // namespace

std::vector<std::pair<double, uint64_t>> Histogram::BucketCounts() const {
  std::vector<std::pair<double, uint64_t>> out;
  for (int b = 0; b < kNumBuckets; ++b) {
    const uint64_t n = buckets_[b].load(std::memory_order_relaxed);
    if (n > 0) out.emplace_back(BucketUpper(b), n);
  }
  return out;
}

namespace {

void AtomicMinMax(std::atomic<double>& slot, double v, bool want_min) {
  double cur = slot.load(std::memory_order_relaxed);
  while (want_min ? v < cur : v > cur) {
    if (slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) return;
  }
}

void AtomicAddDouble(std::atomic<double>& slot, double v) {
  double cur = slot.load(std::memory_order_relaxed);
  while (!slot.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
}

}  // namespace

void Histogram::Observe(double v) {
  count_.fetch_add(1, std::memory_order_relaxed);
  buckets_[BucketOf(v)].fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(sum_, v);
  AtomicMinMax(min_, v, /*want_min=*/true);
  AtomicMinMax(max_, v, /*want_min=*/false);
}

double Histogram::min() const {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::max() const {
  return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

double Histogram::Quantile(double q) const {
  const uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(n - 1));
  uint64_t seen = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    seen += buckets_[b].load(std::memory_order_relaxed);
    if (seen > rank) return std::min(BucketUpper(b), max());
  }
  return max();
}

std::string TaggedName(const std::string& base,
                       std::initializer_list<MetricTag> tags) {
  if (tags.size() == 0) return base;
  std::vector<MetricTag> sorted(tags);
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return std::string_view(a.first) < std::string_view(b.first);
  });
  std::string out = base;
  out += '{';
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i) out += ',';
    out += sorted[i].first;
    out += '=';
    out += sorted[i].second;
  }
  out += '}';
  return out;
}

Registry& Registry::Global() {
  static Registry* registry = new Registry();
  return *registry;
}

Counter& Registry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = metrics_[name];
  if (entry.counter == nullptr) {
    IDF_CHECK_MSG(entry.gauge == nullptr && entry.histogram == nullptr,
                  "metric registered with a different kind");
    entry.kind = MetricKind::kCounter;
    entry.counter = std::make_unique<Counter>();
  }
  return *entry.counter;
}

Gauge& Registry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = metrics_[name];
  if (entry.gauge == nullptr) {
    IDF_CHECK_MSG(entry.counter == nullptr && entry.histogram == nullptr,
                  "metric registered with a different kind");
    entry.kind = MetricKind::kGauge;
    entry.gauge = std::make_unique<Gauge>();
  }
  return *entry.gauge;
}

Histogram& Registry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = metrics_[name];
  if (entry.histogram == nullptr) {
    IDF_CHECK_MSG(entry.counter == nullptr && entry.gauge == nullptr,
                  "metric registered with a different kind");
    entry.kind = MetricKind::kHistogram;
    entry.histogram = std::make_unique<Histogram>();
  }
  return *entry.histogram;
}

std::vector<MetricSnapshot> Registry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<MetricSnapshot> out;
  out.reserve(metrics_.size());
  for (const auto& [name, entry] : metrics_) {
    MetricSnapshot snap;
    snap.name = name;
    snap.kind = entry.kind;
    switch (entry.kind) {
      case MetricKind::kCounter:
        snap.counter_value = entry.counter->value();
        break;
      case MetricKind::kGauge:
        snap.gauge_value = entry.gauge->value();
        break;
      case MetricKind::kHistogram: {
        const Histogram& h = *entry.histogram;
        snap.count = h.count();
        snap.sum = h.sum();
        snap.mean = h.mean();
        snap.min = h.min();
        snap.max = h.max();
        snap.p50 = h.Quantile(0.50);
        snap.p95 = h.Quantile(0.95);
        snap.p99 = h.Quantile(0.99);
        snap.buckets = h.BucketCounts();
        break;
      }
    }
    out.push_back(std::move(snap));
  }
  return out;
}

namespace {

std::string NumberJson(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

std::string Registry::ToJson() const {
  const std::vector<MetricSnapshot> snaps = Snapshot();
  std::string counters, gauges, histograms;
  for (const MetricSnapshot& s : snaps) {
    switch (s.kind) {
      case MetricKind::kCounter:
        if (!counters.empty()) counters += ",";
        counters += "\"" + JsonEscape(s.name) +
                    "\":" + std::to_string(s.counter_value);
        break;
      case MetricKind::kGauge:
        if (!gauges.empty()) gauges += ",";
        gauges += "\"" + JsonEscape(s.name) + "\":" + NumberJson(s.gauge_value);
        break;
      case MetricKind::kHistogram:
        if (!histograms.empty()) histograms += ",";
        histograms += "\"" + JsonEscape(s.name) + "\":{\"count\":" +
                      std::to_string(s.count) + ",\"sum\":" + NumberJson(s.sum) +
                      ",\"mean\":" + NumberJson(s.mean) +
                      ",\"min\":" + NumberJson(s.min) +
                      ",\"max\":" + NumberJson(s.max) +
                      ",\"p50\":" + NumberJson(s.p50) +
                      ",\"p95\":" + NumberJson(s.p95) +
                      ",\"p99\":" + NumberJson(s.p99) + ",\"buckets\":[";
        for (size_t i = 0; i < s.buckets.size(); ++i) {
          if (i) histograms += ",";
          histograms += "[" + NumberJson(s.buckets[i].first) + "," +
                        std::to_string(s.buckets[i].second) + "]";
        }
        histograms += "]}";
        break;
    }
  }
  return "{\"counters\":{" + counters + "},\"gauges\":{" + gauges +
         "},\"histograms\":{" + histograms + "}}";
}

Status Registry::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Unavailable("cannot open metrics file '" + path + "'");
  }
  const std::string json = ToJson();
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  if (written != json.size()) {
    return Status::Unavailable("short write to metrics file '" + path + "'");
  }
  return Status::OK();
}

// ---- snapshot diffing (per-phase bench reporting) ---------------------------

double BucketQuantile(const std::vector<std::pair<double, uint64_t>>& buckets,
                      double q) {
  uint64_t total = 0;
  for (const auto& [bound, n] : buckets) total += n;
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(total - 1));
  uint64_t seen = 0;
  for (const auto& [bound, n] : buckets) {
    seen += n;
    if (seen > rank) return bound;
  }
  return buckets.back().first;
}

namespace {

/// Rebuilds a histogram snapshot's derived stats from diffed buckets.
/// Exact min/max are not diffable (the extremum may predate the baseline),
/// so they degrade to bucket-resolution bounds of the delta distribution.
void FillHistogramStats(MetricSnapshot& s) {
  s.mean = s.count == 0 ? 0.0 : s.sum / static_cast<double>(s.count);
  s.min = s.buckets.empty() ? 0.0 : s.buckets.front().first / 2.0;
  s.max = s.buckets.empty() ? 0.0 : s.buckets.back().first;
  s.p50 = BucketQuantile(s.buckets, 0.50);
  s.p95 = BucketQuantile(s.buckets, 0.95);
  s.p99 = BucketQuantile(s.buckets, 0.99);
}

}  // namespace

std::vector<MetricSnapshot> DiffSnapshots(
    const std::vector<MetricSnapshot>& before,
    const std::vector<MetricSnapshot>& after) {
  std::map<std::string, const MetricSnapshot*> base;
  for (const MetricSnapshot& s : before) base[s.name] = &s;
  std::vector<MetricSnapshot> out;
  out.reserve(after.size());
  for (const MetricSnapshot& s : after) {
    MetricSnapshot d = s;
    auto it = base.find(s.name);
    const MetricSnapshot* b =
        (it != base.end() && it->second->kind == s.kind) ? it->second : nullptr;
    switch (s.kind) {
      case MetricKind::kCounter:
        if (b != nullptr) d.counter_value -= std::min(b->counter_value,
                                                      d.counter_value);
        break;
      case MetricKind::kGauge:
        break;  // a level, not a total: report where it is now
      case MetricKind::kHistogram: {
        if (b != nullptr) {
          d.count -= std::min(b->count, d.count);
          d.sum -= b->sum;
          std::map<double, uint64_t> merged(d.buckets.begin(), d.buckets.end());
          for (const auto& [bound, n] : b->buckets) {
            auto m = merged.find(bound);
            if (m != merged.end()) m->second -= std::min(n, m->second);
          }
          d.buckets.clear();
          for (const auto& [bound, n] : merged) {
            if (n > 0) d.buckets.emplace_back(bound, n);
          }
        }
        FillHistogramStats(d);
        break;
      }
    }
    out.push_back(std::move(d));
  }
  return out;
}

RegistryDelta::RegistryDelta(const Registry* registry)
    : registry_(registry != nullptr ? registry : &Registry::Global()),
      before_(registry_->Snapshot()) {}

void RegistryDelta::Reset() { before_ = registry_->Snapshot(); }

std::vector<MetricSnapshot> RegistryDelta::Deltas() const {
  return DiffSnapshots(before_, registry_->Snapshot());
}

uint64_t RegistryDelta::Counter(const std::string& name) const {
  uint64_t baseline = 0;
  for (const MetricSnapshot& s : before_) {
    if (s.name == name && s.kind == MetricKind::kCounter) {
      baseline = s.counter_value;
      break;
    }
  }
  const std::vector<MetricSnapshot> now = registry_->Snapshot();
  for (const MetricSnapshot& s : now) {
    if (s.name == name && s.kind == MetricKind::kCounter) {
      return s.counter_value - std::min(baseline, s.counter_value);
    }
  }
  return 0;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace idf::obs
