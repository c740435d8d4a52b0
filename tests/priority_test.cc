#include "game/priority.h"

#include <gtest/gtest.h>

#include <vector>

#include "game/fgt.h"
#include "game/iau.h"
#include "game/iegt.h"
#include "game/init.h"
#include "game/joint_state.h"
#include "util/math_util.h"
#include "util/rng.h"
#include "vdps/catalog.h"

namespace fta {
namespace {

Instance RandomInstance(uint64_t seed, size_t num_dps, size_t num_workers,
                        double area = 10.0) {
  Rng rng(seed);
  std::vector<DeliveryPoint> dps;
  for (uint32_t d = 0; d < num_dps; ++d) {
    std::vector<SpatialTask> tasks;
    const size_t n = 1 + rng.Index(4);
    for (size_t t = 0; t < n; ++t) {
      tasks.push_back(SpatialTask{d, rng.Uniform(1.0, 4.0), 1.0});
    }
    dps.emplace_back(Point{rng.Uniform(0, area), rng.Uniform(0, area)},
                     std::move(tasks));
  }
  std::vector<Worker> workers;
  for (size_t w = 0; w < num_workers; ++w) {
    workers.push_back(
        Worker{{rng.Uniform(0, area), rng.Uniform(0, area)}, 3});
  }
  return Instance(Point{area / 2, area / 2}, std::move(dps),
                  std::move(workers), TravelModel(5.0));
}

TEST(PriorityValidationTest, AcceptsPositiveWeights) {
  EXPECT_TRUE(ValidPriorities({1.0, 2.5, 0.1}, 3));
}

TEST(PriorityValidationTest, RejectsBadWeights) {
  EXPECT_FALSE(ValidPriorities({1.0, 2.0}, 3));       // wrong count
  EXPECT_FALSE(ValidPriorities({1.0, 0.0, 1.0}, 3));  // zero
  EXPECT_FALSE(ValidPriorities({1.0, -1.0, 1.0}, 3)); // negative
  EXPECT_FALSE(ValidPriorities({1.0, kInfinity, 1.0}, 3));
}

TEST(PriorityPayoffDifferenceTest, AllOnesReducesToPdif) {
  const std::vector<double> payoffs{1.0, 3.0, 2.0};
  EXPECT_NEAR(PriorityPayoffDifference(payoffs, {1.0, 1.0, 1.0}),
              MeanAbsolutePairwiseDifference(payoffs), 1e-12);
}

TEST(PriorityPayoffDifferenceTest, ProportionalPayoffsArePerfectlyFair) {
  // Payoffs exactly proportional to priorities -> zero weighted P_dif.
  const std::vector<double> priorities{1.0, 2.0, 4.0};
  const std::vector<double> payoffs{3.0, 6.0, 12.0};
  EXPECT_NEAR(PriorityPayoffDifference(payoffs, priorities), 0.0, 1e-12);
}

TEST(PriorityPayoffDifferenceTest, EqualPayoffsUnfairUnderSkewedPriorities) {
  const std::vector<double> priorities{1.0, 4.0};
  const std::vector<double> payoffs{2.0, 2.0};
  EXPECT_GT(PriorityPayoffDifference(payoffs, priorities), 0.0);
}

// ---------------------------------------------------- Priority-blind FGT --

/// Sequential best-response dynamics on *normalized* payoffs: worker w
/// scores a strategy of payoff P as the IAU of P / p_w against the others'
/// P_j / p_j, over a fresh OthersView and every available candidate —
/// the priority-weighted FGT that game/priority.h argues cannot differ
/// from SolveFgt for beta < 1. Returns the converged routes.
std::vector<Route> PriorityWeightedFgtRoutes(
    const Instance& instance, const VdpsCatalog& catalog,
    const std::vector<double>& priorities, uint64_t seed) {
  JointState state(instance, catalog);
  Rng rng(seed);
  RandomSingletonInit(state, rng);
  const IauParams params;
  for (int round = 1; round <= FgtConfig().max_rounds; ++round) {
    size_t changes = 0;
    for (size_t w = 0; w < instance.num_workers(); ++w) {
      std::vector<double> others;
      for (size_t j = 0; j < instance.num_workers(); ++j) {
        if (j != w) others.push_back(state.payoff_of(j) / priorities[j]);
      }
      const OthersView view(std::move(others));
      const double p_w = priorities[w];
      const int32_t current = state.strategy_of(w);
      int32_t best_idx = current;
      double best_u = view.Iau(state.payoff_of(w) / p_w, params);
      if (current != kNullStrategy) {
        const double null_u = view.Iau(0.0, params);
        if (DefinitelyGreater(null_u, best_u)) {
          best_idx = kNullStrategy;
          best_u = null_u;
        }
      }
      const std::vector<WorkerStrategy>& strategies = catalog.strategies(w);
      for (size_t i = 0; i < strategies.size(); ++i) {
        const int32_t idx = static_cast<int32_t>(i);
        if (idx == current || !state.IsAvailable(w, idx)) continue;
        const double u = view.Iau(strategies[i].payoff / p_w, params);
        if (DefinitelyGreater(u, best_u)) {
          best_idx = idx;
          best_u = u;
        }
      }
      if (best_idx != current) {
        state.Apply(w, best_idx);
        ++changes;
      }
    }
    if (changes == 0) break;
  }
  return state.ToAssignment().routes();
}

class PriorityFgtTest : public ::testing::TestWithParam<uint64_t> {};

/// Reproduction finding: for beta < 1 the IAU is strictly increasing in
/// the worker's own payoff, so a per-worker monotone rescaling (priority)
/// cannot change any best response — priority-weighted FGT coincides with
/// plain FGT under the paper's alpha = beta = 0.5, which is why there is
/// no SolvePriorityFgt. The monotonicity itself is checked in
/// BestResponseEngineTest.WindowWalkMatchesFullScanOracle; this pins the
/// end-to-end consequence with skewed priorities.
TEST_P(PriorityFgtTest, CoincidesWithPlainFgtForBetaBelowOne) {
  const Instance inst = RandomInstance(GetParam() * 100 + 9, 12, 6);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  std::vector<double> priorities;
  for (size_t w = 0; w < inst.num_workers(); ++w) {
    priorities.push_back(w % 2 == 0 ? 1.0 : 3.0);
  }
  FgtConfig plain;
  plain.seed = GetParam();
  EXPECT_EQ(PriorityWeightedFgtRoutes(inst, catalog, priorities, GetParam()),
            SolveFgt(inst, catalog, plain).assignment.routes());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PriorityFgtTest,
                         ::testing::Values(1, 2, 3, 4));

// --------------------------------------------------------- Priority IEGT --

class PriorityIegtTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PriorityIegtTest, AllOnesMatchesPlainIegt) {
  const Instance inst = RandomInstance(GetParam() + 70, 10, 5);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  IegtConfig plain;
  plain.seed = GetParam() + 2;
  PriorityIegtConfig prio;
  prio.priorities.assign(inst.num_workers(), 1.0);
  prio.seed = GetParam() + 2;
  EXPECT_EQ(SolveIegt(inst, catalog, plain).assignment.routes(),
            SolvePriorityIegt(inst, catalog, prio).assignment.routes());
}

TEST_P(PriorityIegtTest, ConvergesToValidAssignment) {
  const Instance inst = RandomInstance(GetParam() + 80, 12, 6);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  PriorityIegtConfig config;
  Rng rng(GetParam());
  for (size_t w = 0; w < inst.num_workers(); ++w) {
    config.priorities.push_back(rng.Uniform(0.5, 3.0));
  }
  config.seed = GetParam();
  const GameResult result = SolvePriorityIegt(inst, catalog, config);
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(result.assignment.Validate(inst).ok());
}

TEST_P(PriorityIegtTest, ReducesWeightedUnfairnessVsPlainIegt) {
  // Skewed priorities: the priority-aware evolution should produce a lower
  // priority-weighted P_dif than priority-blind IEGT, summed over seeds
  // (individual seeds may tie).
  double weighted_prio = 0.0, weighted_plain = 0.0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const Instance inst = RandomInstance(GetParam() * 131 + seed, 14, 7);
    const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
    std::vector<double> priorities;
    for (size_t w = 0; w < inst.num_workers(); ++w) {
      priorities.push_back(w % 2 == 0 ? 1.0 : 3.0);
    }
    PriorityIegtConfig config;
    config.priorities = priorities;
    config.seed = seed;
    const GameResult prio = SolvePriorityIegt(inst, catalog, config);
    IegtConfig plain;
    plain.seed = seed;
    const GameResult base = SolveIegt(inst, catalog, plain);
    weighted_prio += PriorityPayoffDifference(
        prio.assignment.Payoffs(inst), priorities);
    weighted_plain += PriorityPayoffDifference(
        base.assignment.Payoffs(inst), priorities);
  }
  EXPECT_LE(weighted_prio, weighted_plain + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PriorityIegtTest,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace fta
