#include "game/solver_metrics.h"

#include <string>

#include "obs/metrics.h"
#include "util/simd.h"

namespace fta {

void PublishGameRun(const char* solver, const GameResult& result) {
  auto& reg = obs::MetricsRegistry::Global();
  const std::string prefix(solver);
  // Per-solver registrations are looked up by name on every run (solvers
  // run at most a handful of times per process; the map lookup is not a
  // hot path, unlike the per-observation cell updates).
  reg.GetCounter(prefix + "/runs").Increment();
  reg.GetCounter(prefix + "/rounds")
      .Add(static_cast<uint64_t>(result.rounds));
  if (result.converged) reg.GetCounter(prefix + "/converged").Increment();
  if (result.early_stopped) {
    reg.GetCounter(prefix + "/early_stopped").Increment();
  }
  // Round count as a distribution: observations are exact small integers,
  // so the histogram is as deterministic as the solve itself.
  reg.GetHistogram(prefix + "/rounds_dist",
                   obs::ExponentialBounds(1.0, 2.0, 8))
      .Observe(static_cast<double>(result.rounds));
  // Engine work is shared across solvers on purpose: the Figure-12 benches
  // compare total scan/cache traffic regardless of which loop drove it.
  reg.GetCounter("game/engine/strategies_scanned")
      .Add(result.engine.strategies_scanned);
  reg.GetCounter("game/engine/cache_skips").Add(result.engine.cache_skips);
  // Which util/simd dispatch path served the ledger's prefix sums and the
  // sort-free P_dif, so dashboards can tell which kernels produced a run.
  reg.GetCounter(std::string("game/simd/dispatch_") +
                 simd::SimdModeName(simd::ActiveSimdMode()))
      .Increment();
  // Payoff-ledger savings (game/payoff_ledger.h): what the OthersView
  // rebuild path would have cost, measured rather than estimated.
  reg.GetCounter("game/ledger/sorts_eliminated")
      .Add(result.engine.ledger.sorts_eliminated);
  reg.GetCounter("game/ledger/bytes_not_allocated")
      .Add(result.engine.ledger.bytes_not_allocated);
  reg.GetCounter("game/ledger/memmove_elements")
      .Add(result.engine.ledger.memmove_elements);
  reg.GetCounter("game/ledger/scratch_reuses")
      .Add(result.engine.ledger.scratch_reuses);
}

}  // namespace fta
