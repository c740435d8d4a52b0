#ifndef FTA_GAME_BEST_RESPONSE_H_
#define FTA_GAME_BEST_RESPONSE_H_

#include <cstdint>
#include <vector>

#include "game/iau.h"
#include "game/joint_state.h"
#include "game/payoff_ledger.h"
#include "game/trace.h"
#include "util/status.h"

namespace fta {

/// Tuning of the shared best-response engine.
struct BestResponseConfig {
  /// Maintain the incremental availability index: per-strategy cached
  /// availability bits, invalidated through the catalog's delivery-point →
  /// strategies inverted index on every strategy switch. Purely a
  /// performance feature — results are identical with it off. One-shot
  /// callers (BestResponse, IsPureNashEquilibrium) turn it off: building
  /// the cache would cost one full scan anyway.
  bool use_incremental_index = true;
};

/// Outcome of one best-response scan.
struct BestResponseOutcome {
  /// The best response (Equation 10 tie-breaking: a challenger must beat
  /// the incumbent's utility beyond tolerance, exact utility ties among
  /// challengers go to the lowest strategy index, kNullStrategy ordering
  /// below index 0).
  int32_t strategy = kNullStrategy;
  /// IAU of `strategy`.
  double utility = 0.0;
  /// IAU of the incumbent strategy.
  double incumbent_utility = 0.0;
  /// Max IAU over the incumbent, the null strategy, and every available
  /// deviation — the best-response utility of equilibrium analysis. Can
  /// exceed `utility` only within the strict-improvement tolerance.
  double best_utility = 0.0;
};

/// The shared inner loop of the game solvers (FGT, IEGT, equilibrium
/// analysis, pure-NE enumeration): finds a worker's best response against
/// the current joint state, re-checking a strategy's availability only when
/// a delivery point of that strategy changed owner since the last check
/// (incremental availability index).
///
/// Evaluate() does not score every candidate. IAU (Equation 5) increases
/// strictly with the worker's own payoff whenever its smallest slope
/// 1 + min(alpha, 0) − max(beta, 0) is positive, so it walks the
/// payoff-sorted strategy list to the first available strategy and scores
/// only the available strategies whose payoff lies within a rounding
/// window below it; every strategy further down provably computes a lower
/// utility. The outcome equals a full scan's argmax bit for bit (DESIGN.md
/// §2 derives the window). A non-positive slope makes the window infinite
/// and the walk a full scan.
///
/// All joint-state mutations must go through Apply() so the availability
/// cache stays coherent. The engine never mutates the state on its own.
/// Not thread-safe: one engine serves one solver loop.
class BestResponseEngine {
 public:
  /// Binds the engine to a state. `state` and the catalog it references
  /// must outlive the engine.
  explicit BestResponseEngine(JointState& state,
                              const IauParams& params = IauParams(),
                              const BestResponseConfig& config =
                                  BestResponseConfig());
  BestResponseEngine(const BestResponseEngine&) = delete;
  BestResponseEngine& operator=(const BestResponseEngine&) = delete;

  /// Best response of worker w (Equation 10), with utilities.
  BestResponseOutcome Evaluate(size_t w);

  /// The best-response strategy index of worker w.
  int32_t BestResponse(size_t w) { return Evaluate(w).strategy; }

  /// Computes worker w's best response and applies it when it differs from
  /// the incumbent. Returns true if the strategy changed.
  bool Step(size_t w);

  /// Switches worker w to strategy `idx` (must be available), keeping the
  /// availability cache coherent. The only sanctioned mutation path.
  void Apply(size_t w, int32_t idx);

  /// Availability of strategy `idx` for worker w, served from the
  /// incremental index when possible. Identical to
  /// JointState::IsAvailable in outcome.
  bool IsAvailableCached(size_t w, int32_t idx);

  /// Appends (ascending index order, incumbent excluded) every available
  /// strategy of w whose payoff strictly exceeds `payoff_threshold` beyond
  /// tolerance. Strategies are payoff-sorted, so the scan early-exits at
  /// the first non-qualifying payoff. IEGT's evolution candidates.
  void AvailableAbovePayoff(size_t w, double payoff_threshold,
                            std::vector<int32_t>& out);

  /// True if no worker has a strictly improving available deviation.
  bool IsNash();

  /// Exactness contract of the incremental availability index
  /// (FTA_VALIDATE, called at solver round boundaries): every cache slot
  /// that is not kUnknown must agree with a fresh
  /// JointState::IsAvailable scan. Trivially OK when the index is off.
  Status ValidateAvailabilityIndex() const;

  /// Exactness contract of the payoff ledger (FTA_VALIDATE, called at
  /// solver round boundaries): the ledger's sorted array and position maps
  /// must be a bit-exact permutation of the live payoffs.
  Status ValidateLedger() const;

  /// The incrementally sorted payoff ledger that serves Evaluate's
  /// exclude-one views. Solvers use it for sort-free per-round P_dif /
  /// Gini / potential.
  const PayoffLedger& ledger() const { return ledger_; }

  const BestResponseCounters& counters() const {
    counters_.ledger = ledger_.counters();
    return counters_;
  }
  const JointState& state() const { return *state_; }
  const IauParams& params() const { return params_; }

 private:
  static constexpr uint8_t kUnknown = 0;
  static constexpr uint8_t kAvailable = 1;
  static constexpr uint8_t kBlocked = 2;

  // FTA_HOT_BEGIN(candidate-fold)
  /// Candidate in the Equation-10 fold; ordered by (utility desc, index
  /// asc), the null strategy's index -1 sorting below every catalog index.
  /// `valid` is false for the identity element. Allocation-free by
  /// construction, checked by fta_lint's hot-path-allocation rule.
  struct Candidate {
    double utility = 0.0;
    int32_t index = 0;
    bool valid = false;
  };
  static Candidate Better(const Candidate& a, const Candidate& b) {
    if (!a.valid) return b;
    if (!b.valid) return a;
    if (a.utility != b.utility) return a.utility > b.utility ? a : b;
    return a.index <= b.index ? a : b;
  }
  // FTA_HOT_END(candidate-fold)

  /// Availability with counter accounting.
  bool Available(size_t w, int32_t idx);

  /// Writes `value` into the cache entry of every strategy touching `dp`,
  /// except the mover's own entries (exempt through self-ownership).
  void Mark(uint32_t dp, size_t mover, uint8_t value);

  /// Width δ of the payoff window below the first available candidate of
  /// worker w (DESIGN.md §2); infinite when IAU is not strictly monotone.
  double WindowWidth(size_t w) const;

  JointState* state_;
  IauParams params_;
  /// 128·2⁻⁵³·(1 + |alpha| + |beta|) / slope, the parameter-only factor of
  /// δ; +∞ when the slope 1 + min(alpha, 0) − max(beta, 0) is not positive.
  double window_scale_;
  /// avail_[w][i]: cached availability of strategy i for worker w.
  std::vector<std::vector<uint8_t>> avail_;
  /// Incrementally sorted payoffs; kept coherent by Apply().
  PayoffLedger ledger_;
  /// mutable: counters() is conceptually const but folds the ledger's own
  /// counters in on read so round deltas include them.
  mutable BestResponseCounters counters_;
};

}  // namespace fta

#endif  // FTA_GAME_BEST_RESPONSE_H_
