#ifndef FTA_GAME_PRIORITY_H_
#define FTA_GAME_PRIORITY_H_

#include <vector>

#include "game/trace.h"
#include "model/instance.h"
#include "vdps/catalog.h"

namespace fta {

/// Priority-aware fairness — the paper's first named future-work direction
/// ("introduce additional descriptive models of fairness, e.g.,
/// priority-aware fairness, into spatial crowdsourcing task assignment").
///
/// Each worker carries a priority weight p_w > 0 (seniority, rating,
/// contract tier). Fairness now means payoffs *proportional to priority*:
/// the equalized quantity is the normalized payoff P̂_w = P_w / p_w. All
/// the machinery of the symmetric case carries over in normalized space —
/// including the exact potential — because the normalization is a
/// per-player constant rescaling of payoffs.

/// Validates priorities (one strictly positive weight per worker).
bool ValidPriorities(const std::vector<double>& priorities,
                     size_t num_workers);

/// Priority-weighted payoff difference: the mean absolute pairwise
/// difference of normalized payoffs P_w / p_w. Reduces to Equation 2 when
/// all priorities are 1.
double PriorityPayoffDifference(const std::vector<double>& payoffs,
                                const std::vector<double>& priorities);

/// There is no priority-aware FGT. For beta < 1 the IAU of Equation 5 is
/// strictly increasing in the worker's own payoff (dU/dP ≥ 1 − beta > 0),
/// so every best response is the max-payoff available strategy and a
/// per-worker monotone rescaling — a priority — cannot change any argmax:
/// priority-weighted best responses coincide with SolveFgt's (the engine's
/// window walk, game/best_response.h, relies on the same monotonicity).
/// Fairness in the best-response game comes from the sequential dynamics,
/// not from per-move trade-offs. Priorities bite in the evolutionary game
/// below, whose *selection pressure* depends on normalized payoffs.

/// Configuration of the priority-aware IEGT variant.
struct PriorityIegtConfig {
  /// One weight per worker; must validate via ValidPriorities.
  std::vector<double> priorities;
  int max_rounds = 500;
  uint64_t seed = 42;
  bool record_trace = false;
};

/// Priority-aware IEGT: replicator dynamics on *normalized* payoffs. A
/// worker is pressured to evolve when P_w / p_w falls below the population
/// average of normalized payoffs, so high-priority workers keep climbing
/// to proportionally higher payoffs while low-priority workers settle
/// earlier; the improved evolutionary equilibrium equalizes P_w / p_w.
/// With all-ones priorities this is exactly SolveIegt. The trace's
/// payoff_difference column reports the priority-weighted P_dif.
GameResult SolvePriorityIegt(const Instance& instance,
                             const VdpsCatalog& catalog,
                             const PriorityIegtConfig& config);

}  // namespace fta

#endif  // FTA_GAME_PRIORITY_H_
