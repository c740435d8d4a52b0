// Pins the best-response engine against the full-scan oracle over whole
// runs. The engine serves Evaluate from the payoff ledger's exclude-one
// view and scores only the strategies inside the rounding window below the
// first available one (game/best_response.h); the oracle
// (tests/best_response_oracle.h) rebuilds an OthersView per call and
// scores every available candidate. Stepping FGT from the same seeded
// start through each must produce the same moves and byte-for-byte the
// same runs — same routes, same rounds, and the same IEEE-754 bit patterns
// in every utility, traced P_dif, payoff and potential.
//
// The comparison digests the *whole run* with FNV-1a over 64-bit words,
// across 12 seeds and several IAU weightings, so a single-ulp divergence
// anywhere in any round fails the test. There are no golden constants
// here on purpose: the contract is engine == oracle, not a frozen value —
// tests/validate_identity_test.cc pins the absolute bits.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include "best_response_oracle.h"
#include "game/best_response.h"
#include "game/fgt.h"
#include "game/iegt.h"
#include "game/init.h"
#include "game/potential.h"
#include "model/builder.h"
#include "util/math_util.h"
#include "util/rng.h"
#include "util/simd.h"
#include "vdps/catalog.h"

namespace fta {
namespace {

// FNV-1a over explicit 64-bit words; doubles enter via their bit patterns.
class Digest {
 public:
  void Fold(uint64_t word) {
    hash_ ^= word;
    hash_ *= 1099511628211ull;
  }
  void Fold(double value) { Fold(std::bit_cast<uint64_t>(value)); }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

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

uint64_t DigestRun(const Instance& instance, const GameResult& result) {
  Digest d;
  d.Fold(static_cast<uint64_t>(result.rounds));
  d.Fold(static_cast<uint64_t>(result.converged));
  d.Fold(static_cast<uint64_t>(result.early_stopped));
  for (const Route& route : result.assignment.routes()) {
    d.Fold(static_cast<uint64_t>(route.size()));
    for (uint32_t dp : route) d.Fold(static_cast<uint64_t>(dp));
  }
  for (double p : result.assignment.Payoffs(instance)) d.Fold(p);
  for (const IterationStats& it : result.trace) {
    d.Fold(static_cast<uint64_t>(it.iteration));
    d.Fold(it.payoff_difference);
    d.Fold(it.average_payoff);
    d.Fold(it.potential);
    d.Fold(static_cast<uint64_t>(it.num_changes));
  }
  return d.value();
}

/// One FGT run stepped through `evaluate` / `apply` from the state's
/// current joint strategy: the SolveFgt loop (sequential order, rounds
/// until no worker moves), with every Evaluate outcome, every move and every round's
/// P_dif / potential folded into the digest. The trace metrics are
/// recomputed from scratch (sorting) on both sides, so they check the
/// states, not the ledger.
struct SteppedRun {
  std::vector<std::pair<size_t, int32_t>> moves;
  int rounds = 0;
  std::vector<Route> routes;
  uint64_t digest = 0;
};

SteppedRun StepFgt(
    JointState& state, double alpha,
    const std::function<BestResponseOutcome(size_t)>& evaluate,
    const std::function<void(size_t, int32_t)>& apply) {
  SteppedRun run;
  Digest d;
  for (int round = 1; round <= FgtConfig().max_rounds; ++round) {
    size_t changes = 0;
    for (size_t w = 0; w < state.payoffs().size(); ++w) {
      const BestResponseOutcome out = evaluate(w);
      d.Fold(static_cast<uint64_t>(static_cast<uint32_t>(out.strategy)));
      d.Fold(out.utility);
      d.Fold(out.incumbent_utility);
      d.Fold(out.best_utility);
      if (out.strategy == state.strategy_of(w)) continue;
      apply(w, out.strategy);
      run.moves.emplace_back(w, out.strategy);
      ++changes;
    }
    run.rounds = round;
    const double p_dif = MeanAbsolutePairwiseDifference(state.payoffs());
    d.Fold(p_dif);
    d.Fold(ExactPotential(state.payoffs(), alpha, p_dif));
    if (changes == 0) break;
  }
  run.routes = state.ToAssignment().routes();
  for (double p : state.payoffs()) d.Fold(p);
  run.digest = d.value();
  return run;
}

/// The IAU weightings the runs cover: the paper's, a negative alpha, and
/// beta = 1 (infinite window: the walk degenerates to the full scan).
const IauParams kWeightings[] = {{0.5, 0.5}, {-0.5, 0.5}, {1.0, 1.0}};

class LedgerIdentitySeeds : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LedgerIdentitySeeds, FgtLedgerAndRebuildRunsAreBitIdentical) {
  const uint64_t seed = GetParam();
  const Instance inst = RandomInstance(seed, 14, 6);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  for (const IauParams& params : kWeightings) {
    // SolveFgt's seeded start, built before the engine binds to the state.
    const uint64_t start = seed * 31 + 7;
    const auto seeded_state = [&] {
      JointState state(inst, catalog);
      Rng rng(start);
      RandomSingletonInit(state, rng);
      return state;
    };
    JointState engine_state = seeded_state();
    BestResponseEngine engine(engine_state, params);
    const SteppedRun walk = StepFgt(
        engine_state, params.alpha,
        [&](size_t w) { return engine.Evaluate(w); },
        [&](size_t w, int32_t idx) { engine.Apply(w, idx); });

    JointState oracle_state = seeded_state();
    const SteppedRun full = StepFgt(
        oracle_state, params.alpha,
        [&](size_t w) {
          return testing_oracle::FullScanBestResponse(oracle_state, w,
                                                      params);
        },
        [&](size_t w, int32_t idx) { oracle_state.Apply(w, idx); });

    EXPECT_EQ(walk.moves, full.moves)
        << "seed " << seed << " alpha " << params.alpha;
    EXPECT_EQ(walk.digest, full.digest)
        << "seed " << seed << " alpha " << params.alpha;

    // The production solver follows the same trajectory.
    FgtConfig config;
    config.iau = params;
    config.seed = start;
    const GameResult solved = SolveFgt(inst, catalog, config);
    EXPECT_EQ(solved.assignment.routes(), walk.routes);
    EXPECT_EQ(solved.rounds, walk.rounds);
  }
}

TEST_P(LedgerIdentitySeeds, IegtLedgerAndRebuildRunsAreBitIdentical) {
  // IEGT's evolution candidates come from the engine's incremental
  // availability index; the reference loop re-derives them from
  // JointState::IsAvailable and recomputes every traced metric by sorting.
  const uint64_t seed = GetParam() + 4000;
  const Instance inst = RandomInstance(seed, 14, 6);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  IegtConfig config;
  config.record_trace = true;
  config.seed = seed * 17 + 3;
  config.early_stop.patience = 3;  // exercise the shared-P_dif path too
  const GameResult engine_run = SolveIegt(inst, catalog, config);

  JointState state(inst, catalog);
  Rng rng(config.seed);
  RandomSingletonInit(state, rng);
  GameResult reference;
  const auto snapshot = [&](int round, size_t changes) {
    IterationStats s;
    s.iteration = round;
    s.payoff_difference = MeanAbsolutePairwiseDifference(state.payoffs());
    s.average_payoff = Mean(state.payoffs());
    s.num_changes = changes;
    return s;
  };
  reference.trace.push_back(snapshot(0, 0));
  EarlyStopMonitor early(config.early_stop);
  std::vector<int32_t> better;
  for (int round = 1; round <= config.max_rounds; ++round) {
    const double avg = Mean(state.payoffs());
    size_t changes = 0;
    for (size_t w = 0; w < inst.num_workers(); ++w) {
      const double payoff = state.payoff_of(w);
      if (!(payoff < avg - kEps)) continue;
      better.clear();
      const std::vector<double>& payoffs = catalog.strategy_payoffs(w);
      for (size_t i = 0; i < payoffs.size(); ++i) {
        const int32_t idx = static_cast<int32_t>(i);
        if (idx == state.strategy_of(w)) continue;
        if (payoffs[i] <= payoff + kEps) break;
        if (state.IsAvailable(w, idx)) better.push_back(idx);
      }
      if (!better.empty()) {
        state.Apply(w, better[rng.Index(better.size())]);
        ++changes;
      }
    }
    reference.rounds = round;
    reference.trace.push_back(snapshot(round, changes));
    if (changes == 0) {
      reference.converged = true;
      break;
    }
    if (early.ShouldStop(reference.trace.back().payoff_difference)) {
      reference.early_stopped = true;
      break;
    }
  }
  reference.assignment = state.ToAssignment();
  EXPECT_EQ(DigestRun(inst, engine_run), DigestRun(inst, reference))
      << "seed " << seed;
}

// SIMD dispatch is the other axis of the identity contract: forcing the
// scalar and AVX2 paths of util/simd.h (the ledger's prefix sums and the
// sort-free P_dif) must leave every whole-run digest untouched, for both
// solvers. Skips on hosts without AVX2 (or FTA_SIMD=OFF builds), where
// only one path exists.
TEST_P(LedgerIdentitySeeds, DispatchModesProduceBitIdenticalRuns) {
  if (!simd::CpuSupportsAvx2()) {
    GTEST_SKIP() << "AVX2 unavailable; single dispatch mode";
  }
  const simd::SimdMode before = simd::ActiveSimdMode();
  const uint64_t seed = GetParam() + 8000;
  const Instance inst = RandomInstance(seed, 14, 6);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  FgtConfig fgt;
  fgt.record_trace = true;
  fgt.seed = seed * 13 + 5;
  IegtConfig iegt;
  iegt.record_trace = true;
  iegt.seed = seed * 13 + 5;

  ASSERT_TRUE(simd::SetSimdMode(simd::SimdMode::kScalar));
  const uint64_t fgt_scalar = DigestRun(inst, SolveFgt(inst, catalog, fgt));
  const uint64_t iegt_scalar = DigestRun(inst, SolveIegt(inst, catalog, iegt));

  ASSERT_TRUE(simd::SetSimdMode(simd::SimdMode::kAvx2));
  EXPECT_EQ(fgt_scalar, DigestRun(inst, SolveFgt(inst, catalog, fgt)))
      << "FGT seed " << seed;
  EXPECT_EQ(iegt_scalar, DigestRun(inst, SolveIegt(inst, catalog, iegt)))
      << "IEGT seed " << seed;
  simd::SetSimdMode(before);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LedgerIdentitySeeds,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12));

}  // namespace
}  // namespace fta
