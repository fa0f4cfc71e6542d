// Sample statistics and benchmark reporting helpers.
//
// The paper reports "averages of performance metrics over many runs" and IQR
// boxplots (Fig. 4); Sample covers both.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace idf {

/// A batch of observations with quantile queries (for boxplots).
class Sample {
 public:
  void Add(double x) { values_.push_back(x); sorted_ = false; }
  void Reserve(size_t n) { values_.reserve(n); }

  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  double Mean() const;
  double Min() { Sort(); return values_.empty() ? 0.0 : values_.front(); }
  double Max() { Sort(); return values_.empty() ? 0.0 : values_.back(); }

  /// Linear-interpolated quantile, q in [0,1].
  double Quantile(double q);
  double Median() { return Quantile(0.5); }

  const std::vector<double>& values() const { return values_; }

  /// "min=.. p25=.. med=.. p75=.. max=.. mean=.." — one boxplot row.
  std::string BoxplotString();

 private:
  void Sort();

  std::vector<double> values_;
  bool sorted_ = false;
};

}  // namespace idf
