// Adversarial bit-identity suite of the SIMD kernel layer (util/simd.h):
// the scalar and AVX2 implementations must agree bit for bit on every
// input — including exact ties, signed zeros, denormals, and infinities.
// The AVX2 halves skip gracefully on hosts without AVX2 (or FTA_SIMD=OFF
// builds), where the dispatch layer has only one path to agree with itself.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/math_util.h"
#include "util/rng.h"
#include "util/simd.h"

namespace fta {
namespace {

// The adversarial size ladder: empty, sub-block, exact block, block+tail,
// and the |W| ≈ 256 regime of the game bench gate (255/256/257 cover the
// full-blocks, exact-multiple, and trailing-lane cases).
const size_t kSizes[] = {0, 1, 3, 4, 5, 255, 256, 257};

/// Forces a dispatch mode for one scope, restoring the previous mode on
/// exit (the mode is process-global; tests must not leak a forced mode).
class ScopedSimdMode {
 public:
  explicit ScopedSimdMode(simd::SimdMode mode)
      : previous_(simd::ActiveSimdMode()), ok_(simd::SetSimdMode(mode)) {}
  ~ScopedSimdMode() { simd::SetSimdMode(previous_); }
  ScopedSimdMode(const ScopedSimdMode&) = delete;
  ScopedSimdMode& operator=(const ScopedSimdMode&) = delete;
  bool ok() const { return ok_; }

 private:
  simd::SimdMode previous_;
  bool ok_;
};

/// Ascending sequence with long tie runs, both zero signs, and denormals —
/// every hazard the compare/accumulate kernels must handle exactly.
std::vector<double> AdversarialSorted(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<double> v;
  v.reserve(n);
  while (v.size() < n) {
    const double x = rng.Uniform(-4.0, 4.0);
    v.push_back(x);
    for (size_t r = rng.Index(3); r > 0 && v.size() < n; --r) {
      v.push_back(x);  // tie runs
    }
  }
  if (n >= 6) {
    v[rng.Index(n)] = 0.0;
    v[rng.Index(n)] = -0.0;
    v[rng.Index(n)] = std::numeric_limits<double>::denorm_min();
    v[rng.Index(n)] = -std::numeric_limits<double>::denorm_min();
  }
  std::sort(v.begin(), v.end());
  return v;
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// ------------------------------------------------- blocked prefix sums --

TEST(BlockedPrefixSumTest, ShortInputsKeepSerialSemantics) {
  // n < 4 has no full block, so the canonical order IS the plain serial
  // left-to-right pass — the pre-kernel semantics.
  const std::vector<double> v = {0.5, -1.25, 3.75};
  for (size_t n = 0; n <= v.size(); ++n) {
    std::vector<double> prefix(n + 1, -7.0);
    simd::internal::BlockedPrefixSumScalar(v.data(), n, prefix.data());
    double carry = 0.0;
    EXPECT_EQ(Bits(prefix[0]), Bits(0.0));
    for (size_t i = 0; i < n; ++i) {
      carry = carry + v[i];
      EXPECT_EQ(Bits(prefix[i + 1]), Bits(carry)) << "n=" << n << " i=" << i;
    }
  }
}

TEST(BlockedPrefixSumTest, PrefixesMatchPlainSumToTolerance) {
  for (size_t n : kSizes) {
    const std::vector<double> v = AdversarialSorted(11 + n, n);
    std::vector<double> prefix(n + 1, 0.0);
    simd::internal::BlockedPrefixSumScalar(v.data(), n, prefix.data());
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      sum += v[i];
      EXPECT_NEAR(prefix[i + 1], sum, 1e-9 * (1.0 + std::abs(sum)))
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(BlockedPrefixSumTest, ScalarAndAvx2AreBitIdentical) {
  if (!simd::CpuSupportsAvx2()) GTEST_SKIP() << "AVX2 unavailable";
#ifdef FTA_SIMD_AVX2
  for (size_t n : kSizes) {
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      const std::vector<double> v = AdversarialSorted(seed * 131 + n, n);
      std::vector<double> scalar(n + 1, 0.0);
      std::vector<double> avx2(n + 1, 0.0);
      simd::internal::BlockedPrefixSumScalar(v.data(), n, scalar.data());
      simd::internal::BlockedPrefixSumAvx2(v.data(), n, avx2.data());
      for (size_t i = 0; i <= n; ++i) {
        ASSERT_EQ(Bits(scalar[i]), Bits(avx2[i]))
            << "n=" << n << " seed=" << seed << " i=" << i;
      }
    }
  }
#endif
}

// ------------------------------------------------ pairwise-diff totals --

TEST(PairwiseDiffTest, MatchesQuadraticOracleToTolerance) {
  for (size_t n : kSizes) {
    if (n > 300) continue;  // the oracle is O(n²); every size here is fine
    const std::vector<double> v = AdversarialSorted(23 + n, n);
    double oracle = 0.0;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) oracle += v[j] - v[i];
    }
    const double got =
        simd::internal::PairwiseDiffTotalSortedScalar(v.data(), n);
    EXPECT_NEAR(got, oracle, 1e-9 * (1.0 + std::abs(oracle))) << "n=" << n;
  }
}

TEST(PairwiseDiffTest, ScalarAndAvx2AreBitIdentical) {
  if (!simd::CpuSupportsAvx2()) GTEST_SKIP() << "AVX2 unavailable";
#ifdef FTA_SIMD_AVX2
  for (size_t n : kSizes) {
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      const std::vector<double> v = AdversarialSorted(seed * 17 + n, n);
      const double scalar =
          simd::internal::PairwiseDiffTotalSortedScalar(v.data(), n);
      const double avx2 =
          simd::internal::PairwiseDiffTotalSortedAvx2(v.data(), n);
      ASSERT_EQ(Bits(scalar), Bits(avx2)) << "n=" << n << " seed=" << seed;
    }
  }
#endif
}

TEST(PairwiseDiffTest, NegativeZeroCarryAgreesAcrossPaths) {
  if (!simd::CpuSupportsAvx2()) GTEST_SKIP() << "AVX2 unavailable";
#ifdef FTA_SIMD_AVX2
  // A -0.0 carry is the one place the naive scalar form (p0 = carry) would
  // diverge from the vector form (p0 = carry + 0.0): -0.0 + 0.0 = +0.0.
  const std::vector<double> v = {-0.0, -0.0, -0.0, -0.0, -0.0,
                                 -0.0, -0.0, -0.0, 1.0};
  const double scalar =
      simd::internal::PairwiseDiffTotalSortedScalar(v.data(), v.size());
  const double avx2 =
      simd::internal::PairwiseDiffTotalSortedAvx2(v.data(), v.size());
  EXPECT_EQ(Bits(scalar), Bits(avx2));
#endif
}

TEST(PairwiseDiffTest, MeanAbsolutePairwiseDifferenceIsModeInvariant) {
  std::vector<double> v = AdversarialSorted(99, 257);
  double scalar_result = 0.0;
  {
    ScopedSimdMode scoped(simd::SimdMode::kScalar);
    scalar_result = MeanAbsolutePairwiseDifferenceSorted(v);
  }
  if (!simd::CpuSupportsAvx2()) GTEST_SKIP() << "AVX2 unavailable";
  ScopedSimdMode scoped(simd::SimdMode::kAvx2);
  ASSERT_TRUE(scoped.ok());
  EXPECT_EQ(Bits(scalar_result), Bits(MeanAbsolutePairwiseDifferenceSorted(v)));
}

// ------------------------------------------------------------ dispatch --

TEST(SimdDispatchTest, SetSimdModeRoundTripsAndFailsGracefully) {
  const simd::SimdMode before = simd::ActiveSimdMode();
  ASSERT_TRUE(simd::SetSimdMode(simd::SimdMode::kScalar));
  EXPECT_EQ(simd::ActiveSimdMode(), simd::SimdMode::kScalar);
  if (simd::CpuSupportsAvx2()) {
    ASSERT_TRUE(simd::SetSimdMode(simd::SimdMode::kAvx2));
    EXPECT_EQ(simd::ActiveSimdMode(), simd::SimdMode::kAvx2);
  } else {
    // Unavailable mode: refused, and the active mode is untouched.
    EXPECT_FALSE(simd::SetSimdMode(simd::SimdMode::kAvx2));
    EXPECT_EQ(simd::ActiveSimdMode(), simd::SimdMode::kScalar);
  }
  simd::SetSimdMode(before);
}

TEST(SimdDispatchTest, ModeNamesAreStable) {
  EXPECT_STREQ(simd::SimdModeName(simd::SimdMode::kScalar), "scalar");
  EXPECT_STREQ(simd::SimdModeName(simd::SimdMode::kAvx2), "avx2");
}

}  // namespace
}  // namespace fta
