// Tests of the benchmark's aggregation rules (stats.h) on hand-computed
// inputs. Run with `python3 perfbench/run.py --selftest`; exits non-zero
// on the first failed expectation.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::abs(a - b) < 1e-9; }

std::vector<double> Range(int n) {  // 1, 2, ..., n, shuffled
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  for (size_t i = 0; i < v.size(); ++i) {
    std::swap(v[i], v[(i * 7919) % v.size()]);
  }
  return v;
}

void TestMedian() {
  using perfbench::Median;
  Expect(Median({}) == 0.0, "median of nothing is 0");
  Expect(Median({3.0}) == 3.0, "median of one sample");
  Expect(Median({5.0, 1.0, 3.0}) == 3.0, "odd count takes the middle");
  Expect(Median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even count averages the middle");
  Expect(Median(Range(1001)) == 501.0, "median of 1..1001");
}

void TestTailPercentile() {
  using perfbench::TailPercentile;
  // 2000 samples: p99 is rank 1980, with 20 samples beyond it.
  perfbench::Tail t = TailPercentile(Range(2000));
  Expect(t.value == 1980.0 && t.beyond == 20 && Near(t.quantile, 0.99),
         "p99 of 1..2000 is 1980 with 20 beyond");
  // Exactly 1000 samples: p99 is rank 990 and has exactly 10 beyond.
  t = TailPercentile(Range(1000));
  Expect(t.value == 990.0 && t.beyond == 10, "p99 of 1..1000 keeps 10 beyond");
  // 500 samples: p99 (rank 495) would have 5 beyond, so the rule steps
  // down to rank 490, the highest with 10 beyond (p98).
  t = TailPercentile(Range(500));
  Expect(t.value == 490.0 && t.beyond == 10 && Near(t.quantile, 0.98),
         "undersized run falls back to the highest percentile with 10 beyond");
  // 11 samples: only the minimum has 10 beyond.
  t = TailPercentile(Range(11));
  Expect(t.value == 1.0 && t.beyond == 10, "11 samples give rank 1");
  // 10 or fewer: no percentile qualifies; the maximum with beyond == 0.
  t = TailPercentile(Range(10));
  Expect(t.value == 10.0 && t.beyond == 0, "10 samples cannot support a tail");
  t = TailPercentile({});
  Expect(t.value == 0.0 && t.beyond == 0, "no samples, no tail");
}

void TestBusyRate() {
  using perfbench::BusyRate;
  Expect(BusyRate({}) == 0.0, "no work, no rate");
  Expect(BusyRate({0.0, 0.0}) == 0.0, "no busy time, no rate");
  // 4 items in 2 ms of busy time: 2000 per second, whatever their spread.
  Expect(Near(BusyRate({0.5, 0.5, 0.5, 0.5}), 2000.0), "even items");
  Expect(Near(BusyRate({1.7, 0.1, 0.1, 0.1}), 2000.0),
         "pooled, not a mean of per-item rates");
}

void TestKeepBest() {
  using perfbench::KeepBest;
  using perfbench::Timed;
  const double none = std::numeric_limits<double>::infinity();
  // Three items over three passes; item 2 is untimed in the first pass
  // and item 1 in every pass.
  std::vector<double> best(3, none);
  KeepBest(&best, {4.0, none, none});
  KeepBest(&best, {2.0, none, 7.0});
  KeepBest(&best, {3.0, none, 6.5});
  Expect(best[0] == 2.0, "an item keeps its best time over the passes");
  Expect(best[2] == 6.5, "an item untimed in one pass keeps the others' best");
  Expect(std::isinf(best[1]), "an item no pass timed stays untimed");
  Expect(Timed(best) == std::vector<double>({2.0, 6.5}),
         "only timed items are reported, in item order");
  // The best times are taken per item, not from the best pass: no single
  // pass here reads {1, 1}.
  std::vector<double> pair(2, none);
  KeepBest(&pair, {1.0, 9.0});
  KeepBest(&pair, {9.0, 1.0});
  Expect(pair == std::vector<double>({1.0, 1.0}), "per-item best");
}

}  // namespace

int main() {
  TestMedian();
  TestTailPercentile();
  TestBusyRate();
  TestKeepBest();
  if (failures == 0) std::printf("perfbench stats: all tests passed\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
