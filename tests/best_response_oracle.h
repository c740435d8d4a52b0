// Full-scan reference for BestResponseEngine::Evaluate, shared by the
// engine's window test and the whole-run identity battery. It shares no
// state with the engine: a fresh OthersView over the other workers'
// payoffs, availability straight from JointState, SortedIau (through
// OthersView::Iau) over *every* available candidate, and Equation 10's
// fold — the best response as Evaluate computed it before the window walk.

#ifndef FTA_TESTS_BEST_RESPONSE_ORACLE_H_
#define FTA_TESTS_BEST_RESPONSE_ORACLE_H_

#include <algorithm>
#include <vector>

#include "game/best_response.h"
#include "game/iau.h"
#include "game/joint_state.h"
#include "util/math_util.h"
#include "vdps/catalog.h"

namespace fta {
namespace testing_oracle {

inline BestResponseOutcome FullScanBestResponse(const JointState& state,
                                                size_t w,
                                                const IauParams& params) {
  std::vector<double> others;
  for (size_t j = 0; j < state.payoffs().size(); ++j) {
    if (j != w) others.push_back(state.payoff_of(j));
  }
  const OthersView view(std::move(others));
  const int32_t current = state.strategy_of(w);
  const double incumbent_u = view.Iau(state.payoff_of(w), params);

  // Candidates in Equation 10 order: null first, then ascending index. In
  // that order only a strictly greater utility replaces the running
  // winner, so exact ties keep the earlier (lower-index) candidate.
  bool valid = false;
  double best_u = 0.0;
  int32_t best_idx = kNullStrategy;
  if (current != kNullStrategy) {
    best_u = view.Iau(0.0, params);
    valid = true;
  }
  const std::vector<WorkerStrategy>& strategies =
      state.catalog().strategies(w);
  for (size_t i = 0; i < strategies.size(); ++i) {
    const int32_t idx = static_cast<int32_t>(i);
    if (idx == current || !state.IsAvailable(w, idx)) continue;
    const double u = view.Iau(strategies[i].payoff, params);
    if (!valid || u > best_u) {
      best_u = u;
      best_idx = idx;
      valid = true;
    }
  }

  BestResponseOutcome out;
  out.incumbent_utility = incumbent_u;
  out.best_utility = valid ? std::max(incumbent_u, best_u) : incumbent_u;
  if (valid && DefinitelyGreater(best_u, incumbent_u)) {
    out.strategy = best_idx;
    out.utility = best_u;
  } else {
    out.strategy = current;
    out.utility = incumbent_u;
  }
  return out;
}

}  // namespace testing_oracle
}  // namespace fta

#endif  // FTA_TESTS_BEST_RESPONSE_ORACLE_H_
