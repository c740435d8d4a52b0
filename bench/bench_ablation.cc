// Ablations for the design choices DESIGN.md calls out (not in the paper):
//   1. MPTA candidate cap K — quality/width/CPU trade-off of the top-K
//      restriction plus greedy completion.
//   2. IAU envy weight beta at alpha = 0.5 — how strongly inequity
//      aversion trades average payoff for fairness in FGT. Each row prints
//      the IAU slope s = 1 + min(alpha, 0) - max(beta, 0): while s > 0 IAU
//      is increasing in the worker's own payoff, so best responses are
//      payoff argmaxes and beta cannot change FGT's trajectory.
//   3. Pareto frontier depth — how many (time, slack) sequence options per
//      C-VDPS are worth keeping for far-from-center workers.

#include <algorithm>

#include "bench/common.h"

namespace fta {
namespace bench {
namespace {

void AblateMptaCandidates(const Instance& instance) {
  ResultTable t("Ablation — MPTA candidates-per-worker cap K",
                {"K", "total payoff", "avg payoff", "P_dif", "exact",
                 "width", "CPU (ms)"});
  for (size_t k : {1u, 2u, 4u, 8u, 16u, 32u}) {
    SolverOptions options = GmOptions();
    const VdpsCatalog catalog =
        VdpsCatalog::Generate(instance, options.vdps);
    MptaConfig config = options.mpta;
    config.candidates_per_worker = k;
    CpuTimer timer;
    const MptaResult r = SolveMpta(instance, catalog, config);
    const double ms = timer.ElapsedMillis();
    t.AddRow({StrFormat("%zu", k),
              StrFormat("%.2f", r.assignment.TotalPayoff(instance)),
              StrFormat("%.4f", r.assignment.AveragePayoff(instance)),
              StrFormat("%.4f", r.assignment.PayoffDifference(instance)),
              r.exact ? "yes" : "no", StrFormat("%d", r.width),
              StrFormat("%.1f", ms)});
  }
  std::printf("%s\n", t.ToText().c_str());
}

void AblateIauWeights(const Instance& instance) {
  ResultTable t("Ablation — FGT envy weight beta (alpha = 0.5)",
                {"alpha", "beta", "slope s", "P_dif", "avg payoff",
                 "rounds"});
  const VdpsCatalog catalog =
      VdpsCatalog::Generate(instance, GmOptions().vdps);
  const double alpha = 0.5;
  for (double beta : {0.0, 0.5, 1.0, 1.5, 2.0, 4.0}) {
    FgtConfig config;
    config.iau = IauParams{alpha, beta};
    const double slope = 1.0 + std::min(alpha, 0.0) - std::max(beta, 0.0);
    const GameResult r = SolveFgt(instance, catalog, config);
    t.AddRow({StrFormat("%.2f", alpha), StrFormat("%.2f", beta),
              StrFormat("%.2f", slope),
              StrFormat("%.4f", r.assignment.PayoffDifference(instance)),
              StrFormat("%.4f", r.assignment.AveragePayoff(instance)),
              StrFormat("%d", r.rounds)});
  }
  std::printf("%s\n", t.ToText().c_str());
}

void AblateParetoDepth(const Instance& instance) {
  ResultTable t("Ablation — Pareto frontier depth per C-VDPS",
                {"depth", "entries", "strategies", "IEGT P_dif",
                 "IEGT avg payoff", "gen CPU (ms)"});
  for (uint32_t depth : {1u, 2u, 4u, 8u}) {
    VdpsConfig vdps = GmOptions().vdps;
    vdps.max_pareto = depth;
    CpuTimer timer;
    const VdpsCatalog catalog = VdpsCatalog::Generate(instance, vdps);
    const double gen_ms = timer.ElapsedMillis();
    size_t strategies = 0;
    for (size_t w = 0; w < catalog.num_workers(); ++w) {
      strategies += catalog.strategies(w).size();
    }
    const GameResult r = SolveIegt(instance, catalog);
    t.AddRow({StrFormat("%u", depth),
              StrFormat("%zu", catalog.num_entries()),
              StrFormat("%zu", strategies),
              StrFormat("%.4f", r.assignment.PayoffDifference(instance)),
              StrFormat("%.4f", r.assignment.AveragePayoff(instance)),
              StrFormat("%.1f", gen_ms)});
  }
  std::printf("%s\n", t.ToText().c_str());
}

void Main() {
  PrintHeader("Ablations — MPTA cap K, IAU weights, Pareto depth");
  const Instance instance =
      GenerateGMissionLike(GmDefault(), GmPrepDefault());
  AblateMptaCandidates(instance);
  AblateIauWeights(instance);
  AblateParetoDepth(instance);
}

}  // namespace
}  // namespace bench
}  // namespace fta

int main() { fta::bench::Main(); }
