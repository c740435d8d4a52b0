#include "game/best_response.h"

#include <algorithm>
#include <cmath>

#include "obs/trace.h"
#include "util/math_util.h"
#include "util/string_util.h"
#include "vdps/catalog.h"

namespace fta {

namespace {

/// Rounding slack of the window width, in units of 2^-53 (DESIGN.md §2: the
/// first-order error bound needs 16; the rest absorbs higher-order terms
/// and the rounding of the window comparison itself).
constexpr double kWindowUlps = 128.0;

}  // namespace

BestResponseEngine::BestResponseEngine(JointState& state,
                                       const IauParams& params,
                                       const BestResponseConfig& config)
    : state_(&state), params_(params) {
  const double slope =
      1.0 + std::min(params_.alpha, 0.0) - std::max(params_.beta, 0.0);
  window_scale_ = slope > 0.0 ? kWindowUlps * 0x1p-53 *
                                    (1.0 + std::abs(params_.alpha) +
                                     std::abs(params_.beta)) /
                                    slope
                              : kInfinity;
  if (config.use_incremental_index) {
    const VdpsCatalog& catalog = state_->catalog();
    avail_.resize(catalog.num_workers());
    for (size_t w = 0; w < catalog.num_workers(); ++w) {
      avail_[w].assign(catalog.strategies(w).size(), kUnknown);
    }
  }
  ledger_.Reset(state_->payoffs());
}

bool BestResponseEngine::Available(size_t w, int32_t idx) {
  if (idx == kNullStrategy) return true;
  if (avail_.empty()) {
    ++counters_.strategies_scanned;
    return state_->IsAvailable(w, idx);
  }
  uint8_t& slot = avail_[w][static_cast<size_t>(idx)];
  if (slot != kUnknown) {
    ++counters_.cache_skips;
    return slot == kAvailable;
  }
  ++counters_.strategies_scanned;
  const bool ok = state_->IsAvailable(w, idx);
  slot = ok ? kAvailable : kBlocked;
  return ok;
}

void BestResponseEngine::Mark(uint32_t dp, size_t mover, uint8_t value) {
  for (const StrategyRef& ref : state_->catalog().strategies_touching(dp)) {
    // The mover's own entries are exempt from its own ownership (a worker
    // may always reuse its own points), so none of them change.
    if (ref.worker == mover) continue;
    avail_[ref.worker][static_cast<size_t>(ref.strategy)] = value;
  }
}

void BestResponseEngine::Apply(size_t w, int32_t idx) {
  const int32_t old = state_->strategy_of(w);
  if (old == idx) return;
  if (!avail_.empty()) {
    // Ownership changes exactly on (old \ new) — released — and
    // (new \ old) — claimed; points in both stay owned by w. A claim makes
    // every other worker's strategy on that point exactly kBlocked (a
    // cache *write*, not an invalidation); a release makes previously
    // blocked entries unknown (other points may still block them).
    const VdpsCatalog& catalog = state_->catalog();
    static const std::vector<uint32_t> kNoDps;
    auto dps_of = [&](int32_t s) -> const std::vector<uint32_t>& {
      if (s == kNullStrategy) return kNoDps;
      return catalog
          .entry(catalog.strategies(w)[static_cast<size_t>(s)].entry_id)
          .dps;
    };
    const std::vector<uint32_t>& old_dps = dps_of(old);
    const std::vector<uint32_t>& new_dps = dps_of(idx);
    // Both sets are sorted ascending; two-pointer set difference.
    size_t a = 0;
    size_t b = 0;
    while (a < old_dps.size() || b < new_dps.size()) {
      if (b == new_dps.size() ||
          (a < old_dps.size() && old_dps[a] < new_dps[b])) {
        Mark(old_dps[a++], w, kUnknown);  // released
      } else if (a == old_dps.size() || new_dps[b] < old_dps[a]) {
        Mark(new_dps[b++], w, kBlocked);  // claimed
      } else {
        ++a;  // kept: still owned by w, no cache effect
        ++b;
      }
    }
  }
  state_->Apply(w, idx);
  ledger_.Update(w, state_->payoff_of(w));
}

double BestResponseEngine::WindowWidth(size_t w) const {
  if (window_scale_ == kInfinity) return kInfinity;
  // Magnitude bounds of the error analysis: the largest |payoff| among w's
  // strategies (a descending list's ends) and among all workers (the
  // ledger's ends, a superset of the exclude-w view), m = |W| - 1 others.
  const std::vector<double>& own = state_->catalog().strategy_payoffs(w);
  const std::vector<double>& all = ledger_.sorted();
  const double own_max = std::max(std::abs(own.front()), std::abs(own.back()));
  const double others_max =
      std::max(std::abs(all.front()), std::abs(all.back()));
  const double m = static_cast<double>(all.size() - 1);
  return window_scale_ * (own_max + (m + 4.0) * others_max);
}

// FTA_HOT_BEGIN(best-response-scan)
// Steady-state region (fta_lint hot-path-allocation): Evaluate through
// AvailableAbovePayoff run once per candidate move, every round. Nothing
// here may allocate per call.

BestResponseOutcome BestResponseEngine::Evaluate(size_t w) {
  FTA_SPAN("game/best_response");
  // Sort-free, allocation-free exclude-one view (DESIGN.md §9).
  const LedgerView& view = ledger_.Exclude(w);
  const int32_t current = state_->strategy_of(w);
  const double incumbent_u = view.Iau(state_->payoff_of(w), params_);

  // The null strategy (always available) seeds the challenger fold; its
  // index kNullStrategy = -1 sorts below every catalog index, preserving
  // the "null first" candidate order of Equation 10.
  Candidate challenger;
  if (current != kNullStrategy) {
    challenger = Candidate{view.Iau(0.0, params_), kNullStrategy, true};
  }

  // Walk the payoff-descending strategy list to the first available
  // candidate p0, then score every available candidate down to p0 - δ.
  // Below the window no computed utility can reach p0's (DESIGN.md §2),
  // so the fold equals the full scan's, tie-breaks included.
  const std::vector<double>& payoffs = state_->catalog().strategy_payoffs(w);
  double floor = -kInfinity;
  bool seen = false;
  for (size_t i = 0; i < payoffs.size(); ++i) {
    if (payoffs[i] < floor) break;  // descending: the rest lie below too
    const int32_t idx = static_cast<int32_t>(i);
    if (idx == current) continue;  // evaluated as the incumbent
    if (!Available(w, idx)) continue;
    if (!seen) {
      seen = true;
      floor = payoffs[i] - WindowWidth(w);
    }
    challenger = Better(
        challenger, Candidate{view.Iau(payoffs[i], params_), idx, true});
  }

  BestResponseOutcome out;
  out.incumbent_utility = incumbent_u;
  out.best_utility = challenger.valid
                         ? std::max(incumbent_u, challenger.utility)
                         : incumbent_u;
  if (challenger.valid && DefinitelyGreater(challenger.utility, incumbent_u)) {
    out.strategy = challenger.index;
    out.utility = challenger.utility;
  } else {
    out.strategy = current;
    out.utility = incumbent_u;
  }
  return out;
}

bool BestResponseEngine::Step(size_t w) {
  const BestResponseOutcome outcome = Evaluate(w);
  if (outcome.strategy == state_->strategy_of(w)) return false;
  Apply(w, outcome.strategy);
  return true;
}

bool BestResponseEngine::IsAvailableCached(size_t w, int32_t idx) {
  return Available(w, idx);
}

void BestResponseEngine::AvailableAbovePayoff(size_t w,
                                              double payoff_threshold,
                                              std::vector<int32_t>& out) {
  out.clear();
  const int32_t current = state_->strategy_of(w);
  const std::vector<double>& payoffs = state_->catalog().strategy_payoffs(w);
  for (size_t i = 0; i < payoffs.size(); ++i) {
    const int32_t idx = static_cast<int32_t>(i);
    if (idx == current) continue;
    if (payoffs[i] <= payoff_threshold + kEps) break;  // sorted desc
    // Caller-owned buffer, reused across calls (out.clear() above keeps
    // capacity): growth amortizes to zero in steady state.
    if (Available(w, idx)) out.push_back(idx);  // NOLINT(fta-alloc)
  }
}

// FTA_HOT_END(best-response-scan)

Status BestResponseEngine::ValidateAvailabilityIndex() const {
  for (size_t w = 0; w < avail_.size(); ++w) {
    for (size_t i = 0; i < avail_[w].size(); ++i) {
      const uint8_t slot = avail_[w][i];
      if (slot == kUnknown) continue;
      const bool actual = state_->IsAvailable(w, static_cast<int32_t>(i));
      if (actual != (slot == kAvailable)) {
        return Status::Internal(StrFormat(
            "availability cache stale for worker %zu strategy %zu: cached "
            "%s, actual %s",
            w, i, slot == kAvailable ? "available" : "blocked",
            actual ? "available" : "blocked"));
      }
    }
  }
  return Status::Ok();
}

Status BestResponseEngine::ValidateLedger() const {
  return ledger_.Validate(state_->payoffs());
}

bool BestResponseEngine::IsNash() {
  for (size_t w = 0; w < state_->payoffs().size(); ++w) {
    if (Evaluate(w).strategy != state_->strategy_of(w)) return false;
  }
  return true;
}

}  // namespace fta
