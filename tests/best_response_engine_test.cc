// Correctness battery for the shared BestResponseEngine: bit-identical
// solver output with the incremental availability index on or off, cache
// coherence under random strategy churn, counter accounting, agreement
// with the one-shot BestResponse wrapper, and the window walk's bit-for-bit
// agreement with a full-scan oracle (tests/best_response_oracle.h).

#include "game/best_response.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <vector>

#include "best_response_oracle.h"
#include "game/equilibrium.h"
#include "game/fgt.h"
#include "game/iegt.h"
#include "game/init.h"
#include "model/builder.h"
#include "util/rng.h"
#include "vdps/catalog.h"

namespace fta {
namespace {

Instance RandomInstance(uint64_t seed, size_t num_dps, size_t num_workers) {
  Rng rng(seed);
  InstanceBuilder builder(Point{4, 4});
  builder.Speed(5.0);
  for (size_t d = 0; d < num_dps; ++d) {
    builder.DeliveryPoint({rng.Uniform(0, 8), rng.Uniform(0, 8)},
                          1 + rng.Index(4), rng.Uniform(1.0, 4.0));
  }
  for (size_t w = 0; w < num_workers; ++w) {
    builder.Worker({rng.Uniform(0, 8), rng.Uniform(0, 8)});
  }
  return builder.Build();
}

/// The solver-visible dynamics of a run: everything except the engine's
/// observational work counters (which legitimately differ between engine
/// configurations) must be bit-identical.
void ExpectSameDynamics(const GameResult& a, const GameResult& b) {
  EXPECT_EQ(a.assignment.routes(), b.assignment.routes());
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.early_stopped, b.early_stopped);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].iteration, b.trace[i].iteration);
    // Bit-identical, not approximately equal: the engine configuration
    // must not perturb a single rounding.
    EXPECT_EQ(a.trace[i].payoff_difference, b.trace[i].payoff_difference);
    EXPECT_EQ(a.trace[i].average_payoff, b.trace[i].average_payoff);
    EXPECT_EQ(a.trace[i].potential, b.trace[i].potential);
    EXPECT_EQ(a.trace[i].num_changes, b.trace[i].num_changes);
  }
}

std::vector<BestResponseConfig> EngineVariants() {
  std::vector<BestResponseConfig> variants;
  for (bool incremental : {true, false}) {
    BestResponseConfig config;
    config.use_incremental_index = incremental;
    variants.push_back(config);
  }
  return variants;
}

class EngineSeeds : public ::testing::TestWithParam<uint64_t> {};

// The two solver tests below keep their names from when the engine also
// fanned its scan out over a thread pool; the engine is serial now, and the
// remaining configuration axis is the incremental availability index.

TEST_P(EngineSeeds, FgtDeterministicAcrossThreadsAndIndexModes) {
  const Instance inst = RandomInstance(GetParam(), 12, 5);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  FgtConfig config;
  config.record_trace = true;
  config.seed = GetParam() * 31 + 7;
  const GameResult reference = SolveFgt(inst, catalog, config);
  for (const BestResponseConfig& engine : EngineVariants()) {
    FgtConfig variant = config;
    variant.engine = engine;
    const GameResult run = SolveFgt(inst, catalog, variant);
    ExpectSameDynamics(reference, run);
    EXPECT_EQ(reference.assignment.PayoffDifference(inst),
              run.assignment.PayoffDifference(inst));
  }
}

TEST_P(EngineSeeds, IegtDeterministicAcrossThreadsAndIndexModes) {
  const Instance inst = RandomInstance(GetParam() + 500, 12, 5);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  IegtConfig config;
  config.record_trace = true;
  config.seed = GetParam() * 17 + 3;
  const GameResult reference = SolveIegt(inst, catalog, config);
  for (const BestResponseConfig& engine : EngineVariants()) {
    IegtConfig variant = config;
    variant.engine = engine;
    const GameResult run = SolveIegt(inst, catalog, variant);
    ExpectSameDynamics(reference, run);
    EXPECT_EQ(reference.assignment.PayoffDifference(inst),
              run.assignment.PayoffDifference(inst));
  }
}

TEST_P(EngineSeeds, EvaluateMatchesFreeFunctionBestResponse) {
  const Instance inst = RandomInstance(GetParam() + 1000, 10, 4);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  const IauParams params;
  JointState state(inst, catalog);
  Rng rng(GetParam());
  RandomSingletonInit(state, rng);
  BestResponseEngine engine(state, params);
  // Interleave random churn with comparisons so the cache sees real dirt.
  for (int step = 0; step < 50; ++step) {
    for (size_t w = 0; w < inst.num_workers(); ++w) {
      EXPECT_EQ(engine.BestResponse(w), BestResponse(state, w, params));
    }
    const size_t w = rng.Index(inst.num_workers());
    const auto& strategies = catalog.strategies(w);
    if (strategies.empty()) continue;
    const int32_t idx = rng.Bernoulli(0.2)
                            ? kNullStrategy
                            : static_cast<int32_t>(rng.Index(strategies.size()));
    if (state.IsAvailable(w, idx)) engine.Apply(w, idx);
  }
}

TEST_P(EngineSeeds, AvailabilityCacheMatchesGroundTruthUnderChurn) {
  const Instance inst = RandomInstance(GetParam() + 2000, 10, 4);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  JointState state(inst, catalog);
  BestResponseEngine engine(state, IauParams(), BestResponseConfig());
  Rng rng(GetParam() * 3 + 1);
  for (int step = 0; step < 200; ++step) {
    const size_t w = rng.Index(inst.num_workers());
    const auto& strategies = catalog.strategies(w);
    if (!strategies.empty()) {
      const int32_t idx =
          rng.Bernoulli(0.25)
              ? kNullStrategy
              : static_cast<int32_t>(rng.Index(strategies.size()));
      if (state.IsAvailable(w, idx)) engine.Apply(w, idx);
    }
    // Every cached availability bit must agree with a fresh DP walk.
    for (size_t v = 0; v < inst.num_workers(); ++v) {
      for (size_t i = 0; i < catalog.strategies(v).size(); ++i) {
        const int32_t idx = static_cast<int32_t>(i);
        EXPECT_EQ(engine.IsAvailableCached(v, idx), state.IsAvailable(v, idx))
            << "worker " << v << " strategy " << i << " step " << step;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineSeeds,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12, 13, 14, 15, 16, 17, 18, 19,
                                           20));

TEST(BestResponseEngineTest, CacheSkipsGrowAndScansShrinkAfterWarmup) {
  const Instance inst = RandomInstance(99, 14, 6);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  FgtConfig with_index;
  with_index.record_trace = true;
  FgtConfig without_index = with_index;
  without_index.engine.use_incremental_index = false;
  const GameResult warm = SolveFgt(inst, catalog, with_index);
  const GameResult cold = SolveFgt(inst, catalog, without_index);
  ExpectSameDynamics(warm, cold);
  EXPECT_EQ(cold.engine.cache_skips, 0u);
  EXPECT_GT(warm.engine.cache_skips, 0u);
  // The incremental index must do strictly less availability work overall,
  // and the per-round scan counts after round 1 must drop versus cold.
  EXPECT_LT(warm.engine.strategies_scanned, cold.engine.strategies_scanned);
  ASSERT_GE(warm.trace.size(), 3u);
  for (size_t i = 2; i < warm.trace.size(); ++i) {
    EXPECT_LE(warm.trace[i].engine.strategies_scanned,
              cold.trace[i].engine.strategies_scanned);
  }
}

TEST(BestResponseEngineTest, EquilibriumConsumersAgreeAcrossEngineConfigs) {
  const Instance inst = RandomInstance(21, 5, 2);
  VdpsConfig vdps;
  vdps.max_set_size = 2;
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, vdps);
  const GameResult fgt = SolveFgt(inst, catalog);
  for (const BestResponseConfig& engine : EngineVariants()) {
    const EquilibriumReport report = AnalyzeEquilibrium(
        inst, catalog, fgt.assignment, IauParams(), engine);
    EXPECT_TRUE(report.is_nash);
    const NashEnumeration nash =
        EnumeratePureNash(inst, catalog, IauParams(), 2'000'000, engine);
    ASSERT_TRUE(nash.complete);
    bool found = false;
    for (const Assignment& eq : nash.equilibria) {
      found = found || eq.routes() == fgt.assignment.routes();
    }
    EXPECT_TRUE(found);
  }
}

TEST(BestResponseEngineTest, EmptyCatalogWorkerKeepsNullStrategy) {
  // A worker that cannot reach anything must best-respond with null.
  std::vector<DeliveryPoint> dps;
  dps.emplace_back(Point{100, 100},
                   std::vector<SpatialTask>{SpatialTask{0, 0.1, 1.0}});
  Instance inst(Point{0, 0}, std::move(dps), {Worker{{0, 0}, 3}},
                TravelModel(1.0));
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  JointState state(inst, catalog);
  BestResponseEngine engine(state, IauParams(), BestResponseConfig());
  EXPECT_EQ(engine.BestResponse(0), kNullStrategy);
  EXPECT_FALSE(engine.Step(0));
  EXPECT_TRUE(engine.IsNash());
}

// ------------------------------------------------------------- window --

/// Every delivery point sits on the radius-5 circle around the center at
/// integer coordinates and every worker starts at the center, so at speed
/// 5 each single-point strategy takes exactly one hour and its payoff IS
/// its reward, bit for bit. That lets the window test place payoffs
/// exactly: ties, neighbours a few ulps apart, a zero payoff.
Instance ExactPayoffInstance(const std::vector<double>& rewards,
                             size_t num_workers) {
  static constexpr int kCircle[12][2] = {{5, 0},  {0, 5},   {-5, 0}, {0, -5},
                                         {3, 4},  {4, 3},   {-3, 4}, {-4, 3},
                                         {3, -4}, {4, -3},  {-3, -4},
                                         {-4, -3}};
  InstanceBuilder builder(Point{0, 0});
  builder.Speed(5.0);
  for (size_t d = 0; d < rewards.size() && d < 12; ++d) {
    builder.DeliveryPointWithTasks(
        {static_cast<double>(kCircle[d][0]),
         static_cast<double>(kCircle[d][1])},
        {SpatialTask{0, /*expiry=*/10.0, rewards[d]}});
  }
  for (size_t w = 0; w < num_workers; ++w) builder.Worker({0, 0});
  return builder.Build();
}

/// Field-by-field, bit-pattern comparison of Evaluate against the oracle.
void ExpectSameOutcome(const BestResponseOutcome& got,
                       const BestResponseOutcome& want, const char* where,
                       size_t w) {
  EXPECT_EQ(got.strategy, want.strategy) << where << " worker " << w;
  EXPECT_EQ(std::bit_cast<uint64_t>(got.utility),
            std::bit_cast<uint64_t>(want.utility))
      << where << " worker " << w;
  EXPECT_EQ(std::bit_cast<uint64_t>(got.incumbent_utility),
            std::bit_cast<uint64_t>(want.incumbent_utility))
      << where << " worker " << w;
  EXPECT_EQ(std::bit_cast<uint64_t>(got.best_utility),
            std::bit_cast<uint64_t>(want.best_utility))
      << where << " worker " << w;
}

/// Drives random churn through an engine and checks every worker's
/// Evaluate against the full-scan oracle at every step.
void ExpectWindowMatchesOracle(const Instance& inst, const IauParams& params,
                               uint64_t seed, const char* where) {
  VdpsConfig vdps;
  vdps.max_set_size = 1;
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, vdps);
  JointState state(inst, catalog);
  BestResponseEngine engine(state, params);
  Rng rng(seed);
  for (int step = 0; step < 60; ++step) {
    for (size_t w = 0; w < inst.num_workers(); ++w) {
      ExpectSameOutcome(engine.Evaluate(w),
                        testing_oracle::FullScanBestResponse(state, w, params),
                        where, w);
    }
    // Alternate best-response moves (the solver's own trajectory) with
    // random ones (states no solver would visit).
    const size_t w = rng.Index(inst.num_workers());
    if (rng.Bernoulli(0.5)) {
      engine.Step(w);
      continue;
    }
    const size_t n = catalog.strategies(w).size();
    const int32_t idx = n == 0 || rng.Bernoulli(0.2)
                            ? kNullStrategy
                            : static_cast<int32_t>(rng.Index(n));
    if (state.IsAvailable(w, idx)) engine.Apply(w, idx);
  }
}

TEST(BestResponseEngineTest, WindowWalkMatchesFullScanOracle) {
  // The walk's premise, on the paper's own Iau transliteration: for
  // beta < 1 the IAU is strictly increasing in the worker's own payoff, so
  // the highest available payoff wins up to rounding.
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> others(1 + rng.Index(10));
    for (double& p : others) p = rng.Uniform(0, 5);
    const IauParams params{rng.Uniform(0, 2.0), rng.Uniform(0, 0.99)};
    const double lo = rng.Uniform(0, 5);
    const double hi = lo + rng.Uniform(0.01, 2.0);
    EXPECT_LT(Iau(lo, others, params), Iau(hi, others, params));
  }

  // The paper's parameters, a negative alpha (smaller but positive slope),
  // beta = 1 and a negative slope (both: infinite window, full scan), and
  // alpha = beta = 0 (IAU is the payoff itself).
  const std::vector<IauParams> params = {
      {0.5, 0.5}, {-0.5, 0.5}, {0.5, 0.99}, {1.0, 1.0},
      {-0.3, 1.0}, {0.4, 1.7}, {0.0, 0.0}, {2.0, 0.0}};
  const double r = 2.0;
  const double up1 = std::nextafter(r, 10.0);
  const double up2 = std::nextafter(up1, 10.0);
  const double dn1 = std::nextafter(r, 0.0);
  const std::vector<std::vector<double>> reward_sets = {
      // Exact payoff ties, including the top payoff.
      {3.0, 3.0, 3.0, 2.0, 2.0, 1.0, 1.0, 1.0, 3.0, 2.0, 0.5, 0.5},
      // Neighbours a few ulps apart around 2.0.
      {r, up1, up2, dn1, r, up1, dn1, up2, 1.0, r, up1, 0.25},
      // Zero payoffs competing with the null strategy.
      {0.0, 0.0, 1e-300, 0.0, 1.0, 0.0, 4.0, 0.0, 0.0, 2.0, 0.0, 0.0},
      // A wide spread.
      {1e-6, 1e6, 5.0, 5.0, 1e3, 7.0, 1e-3, 0.1, 40.0, 40.0, 2.5, 9.0},
  };
  uint64_t seed = 1;
  for (const std::vector<double>& rewards : reward_sets) {
    for (size_t workers : {size_t{1}, size_t{3}, size_t{7}}) {
      const Instance inst = ExactPayoffInstance(rewards, workers);
      for (const IauParams& p : params) {
        ExpectWindowMatchesOracle(inst, p, seed++, "exact payoffs");
      }
    }
  }
  // Random geometry (multi-point strategies, varied payoffs).
  for (uint64_t s = 1; s <= 6; ++s) {
    const Instance inst = RandomInstance(s + 3000, 12, 6);
    for (const IauParams& p : params) {
      ExpectWindowMatchesOracle(inst, p, seed++, "random instance");
    }
  }
}

TEST(BestResponseEngineTest, WindowWalkScansFewerStrategiesThanFullScan) {
  // The walk stops at the window, so with the index off it checks the
  // availability of fewer strategies than a full scan would — and at
  // beta = 1 (infinite window) exactly as many.
  const Instance inst = RandomInstance(42, 14, 6);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  JointState state(inst, catalog);
  BestResponseConfig no_index;
  no_index.use_incremental_index = false;
  BestResponseEngine walk(state, IauParams{0.5, 0.5}, no_index);
  BestResponseEngine full(state, IauParams{1.0, 1.0}, no_index);
  uint64_t candidates = 0;
  for (size_t w = 0; w < inst.num_workers(); ++w) {
    walk.Evaluate(w);
    full.Evaluate(w);
    candidates += catalog.strategies(w).size();
  }
  EXPECT_EQ(full.counters().strategies_scanned, candidates);
  EXPECT_LT(walk.counters().strategies_scanned, candidates);
}

}  // namespace
}  // namespace fta
