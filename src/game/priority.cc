#include "game/priority.h"

#include <cmath>

#include "game/best_response.h"
#include "game/init.h"
#include "game/joint_state.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/math_util.h"
#include "util/rng.h"

namespace fta {

bool ValidPriorities(const std::vector<double>& priorities,
                     size_t num_workers) {
  if (priorities.size() != num_workers) return false;
  for (double p : priorities) {
    if (!(p > 0.0) || std::isinf(p) || std::isnan(p)) return false;
  }
  return true;
}

namespace {

std::vector<double> Normalize(const std::vector<double>& payoffs,
                              const std::vector<double>& priorities) {
  std::vector<double> normalized(payoffs.size());
  for (size_t i = 0; i < payoffs.size(); ++i) {
    normalized[i] = payoffs[i] / priorities[i];
  }
  return normalized;
}

}  // namespace

double PriorityPayoffDifference(const std::vector<double>& payoffs,
                                const std::vector<double>& priorities) {
  FTA_CHECK(payoffs.size() == priorities.size());
  return MeanAbsolutePairwiseDifference(Normalize(payoffs, priorities));
}

GameResult SolvePriorityIegt(const Instance& instance,
                             const VdpsCatalog& catalog,
                             const PriorityIegtConfig& config) {
  FTA_CHECK_MSG(ValidPriorities(config.priorities, instance.num_workers()),
                "need one strictly positive priority per worker");
  JointState state(instance, catalog);
  Rng rng(config.seed);
  RandomSingletonInit(state, rng);
  // The shared engine serves the evolution candidates (the same scan as
  // SolveIegt, through the incremental availability index).
  BestResponseEngine engine(state);

  const auto snapshot = [&](int round, size_t changes) {
    IterationStats s;
    s.iteration = round;
    s.payoff_difference =
        PriorityPayoffDifference(state.payoffs(), config.priorities);
    s.average_payoff = Mean(state.payoffs());
    s.num_changes = changes;
    return s;
  };

  GameResult result;
  if (config.record_trace) result.trace.push_back(snapshot(0, 0));

  std::vector<int32_t> better;
  for (int round = 1; round <= config.max_rounds; ++round) {
    // Selection pressure compares *normalized* payoffs to their mean: the
    // evolutionary target state is P_w proportional to p_w.
    const double avg_normalized =
        Mean(Normalize(state.payoffs(), config.priorities));
    size_t changes = 0;
    for (size_t w = 0; w < instance.num_workers(); ++w) {
      const double payoff = state.payoff_of(w);
      if (payoff / config.priorities[w] >= avg_normalized - kEps) continue;
      engine.AvailableAbovePayoff(w, payoff, better);
      if (!better.empty()) {
        engine.Apply(w, better[rng.Index(better.size())]);
        ++changes;
      }
    }
    result.rounds = round;
    // Round-boundary contracts, as in SolveIegt.
    FTA_DCHECK_OK(state.ValidateInvariants());
    FTA_DCHECK_OK(engine.ValidateAvailabilityIndex());
    FTA_DCHECK_OK(engine.ValidateLedger());
    if (config.record_trace) result.trace.push_back(snapshot(round, changes));
    if (changes == 0) {
      result.converged = true;
      break;
    }
  }
  result.assignment = state.ToAssignment();
  return result;
}

}  // namespace fta
