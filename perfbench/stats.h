#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// The benchmark's aggregation rules, kept header-only and free of library
// dependencies so stats_test.cc can pin them on hand-computed inputs.
//
//  * A timing is reported as its median and the highest percentile (at
//    most p99) that still has at least ten samples beyond it, so a tail
//    figure never rests on one or two outliers.
//  * A rate is work items per second of busy time, never per second of
//    the driver's schedule.
//  * The host's speed drifts by 15-30% over tens of seconds to minutes
//    (README.md, "Noise on this host"), and every timed figure follows it.
//    Each workload therefore reports its least-disturbed measurement of
//    the same work: the closed loop keeps each instance's best solve time
//    over its repeats, and the open loop replays the same ticks in several
//    passes and keeps each request's and each batch's best time over them
//    (KeepBest below). A change to the program moves every repeat and
//    every pass; the host's slow spells move only some.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for an even count); 0 for
/// an empty input.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(
      v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lo + hi) / 2.0;
}

/// A tail reading: the nearest-rank value at `quantile`, and how many
/// samples lie strictly beyond it.
struct Tail {
  double value = 0.0;
  double quantile = 0.0;
  size_t beyond = 0;
};

/// The highest nearest-rank percentile, at most p99, that has at least ten
/// samples strictly above its rank. With ten samples or fewer no
/// percentile qualifies and the maximum is returned with beyond == 0,
/// which callers report as an undersized run.
inline Tail TailPercentile(std::vector<double> v) {
  constexpr double kMaxQuantile = 0.99;
  constexpr size_t kMinBeyond = 10;
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n <= kMinBeyond) {
    t.value = v.back();
    t.quantile = 1.0;
    return t;
  }
  // Nearest rank r (1-based) of quantile q is ceil(q * n).
  size_t rank = static_cast<size_t>(
      std::ceil(kMaxQuantile * static_cast<double>(n) - 1e-9));
  rank = std::clamp<size_t>(rank, 1, n - kMinBeyond);
  t.value = v[rank - 1];
  t.quantile = static_cast<double>(rank) / static_cast<double>(n);
  t.beyond = n - rank;
  return t;
}

/// Work items per second of busy time: the count of `busy_ms` samples
/// over their sum.
inline double BusyRate(const std::vector<double>& busy_ms) {
  double sum = 0.0;
  for (double x : busy_ms) sum += x;
  return sum > 0.0 ? 1e3 * static_cast<double>(busy_ms.size()) / sum : 0.0;
}

/// Folds one pass's per-item times into the best so far: each item keeps
/// the smaller of its two times. Both vectors hold one time per item, in
/// the same item order; an item a pass could not time holds +infinity.
inline void KeepBest(std::vector<double>* best,
                     const std::vector<double>& pass) {
  for (size_t i = 0; i < best->size() && i < pass.size(); ++i) {
    (*best)[i] = std::min((*best)[i], pass[i]);
  }
}

/// The items of `best` that some pass timed (the finite ones).
inline std::vector<double> Timed(const std::vector<double>& best) {
  std::vector<double> out;
  for (double x : best) {
    if (std::isfinite(x)) out.push_back(x);
  }
  return out;
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
