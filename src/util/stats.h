// Streaming statistics, percentiles, and set/vector similarity measures used by the evaluation harness (Fig. 3 similarity analysis,
// Fig. 9/10 latency aggregation).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

namespace socl::util {

/// Welford-style running mean/variance with min/max tracking.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Percentile with linear interpolation; p in [0, 100]. Sorts a copy.
/// ±inf samples are legal (interpolation next to one falls back to
/// nearest-rank instead of producing NaN); a NaN sample throws
/// std::invalid_argument, since NaN breaks the sort's ordering.
double percentile(std::vector<double> values, double p);

/// Median shortcut.
double median(std::vector<double> values);

/// Batch percentile extraction via nth_element instead of a full sort:
/// returns one value per entry of `ps` (each in [0, 100], any order), with
/// the same linear interpolation (and ±inf / NaN rules) as percentile().
/// Ranks are visited in
/// ascending order so each nth_element call only partitions the suffix the
/// previous calls left unsorted — O(n · |ps|) worst case, ~O(n) in practice,
/// vs O(n log n) per percentile for the sort-based variant.
std::vector<double> quantiles(std::vector<double> values,
                              std::span<const double> ps);

/// Jaccard similarity |A∩B| / |A∪B| of two integer sets; 1.0 if both empty.
double jaccard_similarity(const std::unordered_set<std::uint64_t>& a,
                          const std::unordered_set<std::uint64_t>& b);

/// Cosine similarity of two equal-length vectors; 0.0 if either is zero.
double cosine_similarity(std::span<const double> a, std::span<const double> b);

}  // namespace socl::util
