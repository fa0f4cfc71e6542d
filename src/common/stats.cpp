#include "common/stats.h"

#include <cstdio>
#include <limits>
#include <numeric>

namespace idf {

double Sample::Mean() const {
  if (values_.empty()) return 0.0;
  return std::accumulate(values_.begin(), values_.end(), 0.0) /
         static_cast<double>(values_.size());
}

void Sample::Sort() {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

double Sample::Quantile(double q) {
  if (values_.empty()) return 0.0;
  Sort();
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(values_.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values_[lo] * (1.0 - frac) + values_[hi] * frac;
}

std::string Sample::BoxplotString() {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "min=%.4g p25=%.4g med=%.4g p75=%.4g max=%.4g mean=%.4g",
                Min(), Quantile(0.25), Median(), Quantile(0.75), Max(),
                Mean());
  return buf;
}

}  // namespace idf
