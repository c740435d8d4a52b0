// Micro-benchmarks (google-benchmark) for the library's hot paths: C-VDPS
// generation with and without pruning, IAU evaluation, best-response
// rounds, the solvers end-to-end, k-means, tree-decomposition MWIS, and
// grid-index radius queries.
//
// Two hard gates run before the suite (and can be run alone with
// --bench=obs / --bench=game): the observability overhead gate
// (BENCH_obs.json) and the best-response gate (BENCH_game.json), which
// fails the binary unless Evaluate does zero steady-state heap
// allocations, agrees with a full-scan replica on every worker, and beats
// that replica by >= 2x per call.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include "bench/common.h"
#include "fta/fta.h"
#include "util/check.h"

// Global allocation counter backing the game gate's zero-allocation claim:
// every global operator new bumps it, so a steady-state delta of zero is
// proof, not an estimate. Relaxed ordering is fine — the gate reads the
// counter on the same thread that allocates (the engine under test is
// serial), and the benchmark's own threads only add noise *between* reads.
namespace {
std::atomic<uint64_t> g_heap_allocations{0};
}  // namespace

// GCC cannot see that the replacement operator new below is malloc-backed
// and flags every free() in the matching deletes as mismatched; the pair
// is consistent by construction.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace fta {
namespace {

Instance GmInstance(size_t tasks = 200, size_t dps = 100,
                    size_t workers = 40) {
  GMissionConfig config;
  config.num_tasks = tasks;
  config.num_workers = workers;
  config.seed = 11;
  GMissionPrepConfig prep;
  prep.num_delivery_points = dps;
  prep.seed = 12;
  return GenerateGMissionLike(config, prep);
}

VdpsConfig PrunedVdps(double epsilon = 0.6) {
  VdpsConfig vdps;
  vdps.epsilon = epsilon;
  vdps.max_set_size = 3;
  return vdps;
}

void BM_VdpsGenerationPruned(benchmark::State& state) {
  const Instance inst = GmInstance();
  const VdpsConfig vdps =
      PrunedVdps(static_cast<double>(state.range(0)) / 10.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(VdpsCatalog::Generate(inst, vdps));
  }
}
BENCHMARK(BM_VdpsGenerationPruned)->Arg(2)->Arg(6)->Arg(10);

void BM_VdpsGenerationUnpruned(benchmark::State& state) {
  const Instance inst = GmInstance();
  VdpsConfig vdps;
  vdps.max_set_size = 3;  // epsilon = infinity
  for (auto _ : state) {
    benchmark::DoNotOptimize(VdpsCatalog::Generate(inst, vdps));
  }
}
BENCHMARK(BM_VdpsGenerationUnpruned);

void BM_VdpsExactDp(benchmark::State& state) {
  const Instance inst =
      GmInstance(60, static_cast<size_t>(state.range(0)), 10);
  VdpsConfig vdps;
  vdps.max_set_size = 3;
  vdps.use_exact_dp = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(VdpsCatalog::Generate(inst, vdps));
  }
}
BENCHMARK(BM_VdpsExactDp)->Arg(10)->Arg(14)->Arg(18);

void BM_IauNaive(benchmark::State& state) {
  Rng rng(1);
  std::vector<double> others(static_cast<size_t>(state.range(0)));
  for (double& p : others) p = rng.Uniform(0, 10);
  const IauParams params;
  double own = 5.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Iau(own, others, params));
  }
}
BENCHMARK(BM_IauNaive)->Arg(100)->Arg(1000)->Arg(10000);

void BM_IauOthersView(benchmark::State& state) {
  Rng rng(1);
  std::vector<double> others(static_cast<size_t>(state.range(0)));
  for (double& p : others) p = rng.Uniform(0, 10);
  const OthersView view(others);
  const IauParams params;
  double own = 5.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(view.Iau(own, params));
  }
}
BENCHMARK(BM_IauOthersView)->Arg(100)->Arg(1000)->Arg(10000);

void BM_FgtSolve(benchmark::State& state) {
  const Instance inst = GmInstance();
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, PrunedVdps());
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveFgt(inst, catalog));
  }
}
BENCHMARK(BM_FgtSolve);

// Cold (full availability re-check every turn) vs incremental (inverted
// index + dirty bits). Arg(0/1) = index off/on. Counter columns show the
// per-run scan reduction; wall time shows the payoff.
void BM_BestResponseIncrementalIndex(benchmark::State& state) {
  const Instance inst = GmInstance();
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, PrunedVdps());
  FgtConfig config;
  config.engine.use_incremental_index = state.range(0) != 0;
  config.record_trace = true;
  uint64_t scanned = 0;
  uint64_t skipped = 0;
  uint64_t scanned_after_r1 = 0;  // the steady-state scan load
  for (auto _ : state) {
    const GameResult result = SolveFgt(inst, catalog, config);
    scanned += result.engine.strategies_scanned;
    skipped += result.engine.cache_skips;
    for (const IterationStats& it : result.trace) {
      if (it.iteration >= 2) {
        scanned_after_r1 += it.engine.strategies_scanned;
      }
    }
    benchmark::DoNotOptimize(result);
  }
  state.counters["scanned"] =
      benchmark::Counter(static_cast<double>(scanned),
                         benchmark::Counter::kAvgIterations);
  state.counters["scanned_r2plus"] =
      benchmark::Counter(static_cast<double>(scanned_after_r1),
                         benchmark::Counter::kAvgIterations);
  state.counters["cache_skips"] =
      benchmark::Counter(static_cast<double>(skipped),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_BestResponseIncrementalIndex)->Arg(0)->Arg(1);

void BM_IegtSolve(benchmark::State& state) {
  const Instance inst = GmInstance();
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, PrunedVdps());
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveIegt(inst, catalog));
  }
}
BENCHMARK(BM_IegtSolve);

void BM_GtaSolve(benchmark::State& state) {
  const Instance inst = GmInstance();
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, PrunedVdps());
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveGta(inst, catalog));
  }
}
BENCHMARK(BM_GtaSolve);

void BM_MptaSolve(benchmark::State& state) {
  const Instance inst = GmInstance();
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, PrunedVdps());
  MptaConfig config;
  config.candidates_per_worker = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveMpta(inst, catalog, config));
  }
}
BENCHMARK(BM_MptaSolve)->Arg(4)->Arg(8)->Arg(16);

void BM_KMeans(benchmark::State& state) {
  Rng data_rng(3);
  std::vector<Point> pts(static_cast<size_t>(state.range(0)));
  for (Point& p : pts) {
    p = {data_rng.Uniform(0, 100), data_rng.Uniform(0, 100)};
  }
  for (auto _ : state) {
    Rng rng(4);
    benchmark::DoNotOptimize(KMeans(pts, 50, rng));
  }
}
BENCHMARK(BM_KMeans)->Arg(1000)->Arg(10000);

void BM_TreeDecompositionMwis(benchmark::State& state) {
  Rng rng(5);
  const size_t n = static_cast<size_t>(state.range(0));
  Graph g(n);
  for (uint32_t u = 0; u < n; ++u) {
    for (uint32_t v = u + 1; v < n; ++v) {
      if (rng.Bernoulli(4.0 / static_cast<double>(n))) g.AddEdge(u, v);
    }
  }
  std::vector<double> w(n);
  for (double& x : w) x = rng.Uniform(0.1, 10.0);
  for (auto _ : state) {
    const TreeDecomposition td = TreeDecomposition::Build(g);
    benchmark::DoNotOptimize(MwisOverTreeDecomposition(g, w, td, 24));
  }
}
BENCHMARK(BM_TreeDecompositionMwis)->Arg(50)->Arg(200);

void BM_GridRadiusQuery(benchmark::State& state) {
  Rng rng(6);
  std::vector<Point> pts(static_cast<size_t>(state.range(0)));
  for (Point& p : pts) p = {rng.Uniform(0, 100), rng.Uniform(0, 100)};
  const GridIndex index(pts, 2.0);
  size_t i = 0;
  for (auto _ : state) {
    const Point q{static_cast<double>(i % 100),
                  static_cast<double>((i * 7) % 100)};
    benchmark::DoNotOptimize(index.RadiusQuery(q, 2.0));
    ++i;
  }
}
BENCHMARK(BM_GridRadiusQuery)->Arg(1000)->Arg(100000);

// --- Observability micro-costs -------------------------------------------

void BM_SpanDisabled(benchmark::State& state) {
  obs::SetTracingEnabled(false);
  for (auto _ : state) {
    FTA_SPAN("bench/span");
  }
}
BENCHMARK(BM_SpanDisabled);

// Fixed iteration count: every enabled span is retained in the recorder, so
// letting google-benchmark pick the count would grow the buffer unbounded.
void BM_SpanEnabled(benchmark::State& state) {
  obs::TraceRecorder::Global().Clear();
  obs::SetTracingEnabled(true);
  for (auto _ : state) {
    FTA_SPAN("bench/span");
  }
  obs::SetTracingEnabled(false);
  obs::TraceRecorder::Global().Clear();
}
BENCHMARK(BM_SpanEnabled)->Iterations(1 << 16);

void BM_CounterAdd(benchmark::State& state) {
  obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("bench/counter_add");
  for (auto _ : state) {
    counter.Add(1);
  }
}
BENCHMARK(BM_CounterAdd);

void BM_HistogramObserve(benchmark::State& state) {
  obs::Histogram& hist = obs::MetricsRegistry::Global().GetHistogram(
      "bench/hist_observe", obs::ExponentialBounds(0.25, 4.0, 8));
  double value = 0.0;
  for (auto _ : state) {
    hist.Observe(value);
    value += 0.5;
    if (value > 4096.0) value = 0.0;
  }
}
BENCHMARK(BM_HistogramObserve);

}  // namespace

// Observability overhead gate, run before the benchmark suite proper: the
// instrumentation left in the hot paths must cost < 2% of a GM-default FGT
// run when tracing is disabled (the production configuration). Disabled
// spans do constant work, so the modeled overhead is
//
//   spans-per-run x disabled-span-cost / untraced-run-wall-time
//
// with spans-per-run counted from a traced run of the same workload. The
// model is deliberate: on a noisy 1-CPU container, differencing two wall
// times of the full solver would drown the signal, while the per-span cost
// is measurable to well under a nanosecond. Results go to BENCH_obs.json.
int RunObsOverheadGate() {
  // Per-span cost with tracing disabled (one relaxed atomic load).
  obs::SetTracingEnabled(false);
  constexpr int kProbeSpans = 2000000;
  Stopwatch probe;
  for (int i = 0; i < kProbeSpans; ++i) {
    FTA_SPAN("bench/obs_gate_probe");
  }
  const double disabled_span_ns =
      probe.ElapsedSeconds() * 1e9 / kProbeSpans;

  // Spans a traced GM-default FGT run emits.
  const Instance inst = GmInstance();
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, PrunedVdps());
  obs::TraceRecorder::Global().Clear();
  obs::SetTracingEnabled(true);
  benchmark::DoNotOptimize(SolveFgt(inst, catalog));
  obs::SetTracingEnabled(false);
  const size_t spans_per_run = obs::TraceRecorder::Global().num_events();
  obs::TraceRecorder::Global().Clear();

  // Untraced FGT wall time: best of 5 to shed scheduler noise.
  double run_seconds = kInfinity;
  for (int rep = 0; rep < 5; ++rep) {
    Stopwatch sw;
    benchmark::DoNotOptimize(SolveFgt(inst, catalog));
    run_seconds = std::min(run_seconds, sw.ElapsedSeconds());
  }

  const double overhead_fraction =
      static_cast<double>(spans_per_run) * disabled_span_ns * 1e-9 /
      run_seconds;
  constexpr double kThreshold = 0.02;
  const bool span_pass = overhead_fraction < kThreshold;

  // ---- Stream-telemetry section. Two hard gates on the per-tick
  // telemetry layer (stream/telemetry.h):
  //   1. identity — a full-telemetry GM-churn warm run's digest (with
  //      digest_catalog on) is bit-identical to the telemetry-off run's;
  //   2. overhead — the telemetry cost per tick, measured directly on
  //      OnTick (the only code telemetry adds to the tick path; wall-time
  //      differencing of whole runs would drown in scheduler noise, same
  //      rationale as the span model above), is < 2% of the telemetry-off
  //      per-tick wall time. ----
  constexpr size_t kStreamTicks = 16;
  ChurnWorkloadConfig churn;
  churn.horizon_hours = 0.05 * static_cast<double>(kStreamTicks);
  churn.tasks.base_rate_per_hour = 240.0;
  churn.tasks.peak_hours = {};
  churn.worker_rate_per_hour = 40.0;
  churn.area_size = 10.0;
  churn.mean_worker_dwell_hours = 1.0;
  churn.mean_task_patience_hours = 1.0;
  const std::vector<StreamEvent> events = GenerateChurnEvents(churn, 7);
  StreamConfig stream_config;
  stream_config.center = Point{5.0, 5.0};
  stream_config.tick_period = 0.05;
  stream_config.max_ticks = kStreamTicks;
  stream_config.policy = ResolvePolicy::kWarm;
  stream_config.vdps.epsilon = 0.6;
  stream_config.vdps.max_set_size = 3;
  stream_config.seed = 7;
  stream_config.digest_catalog = true;

  uint64_t digest_off = 0;
  double off_ms_per_tick = kInfinity;
  for (int rep = 0; rep < 3; ++rep) {
    StreamConfig c = stream_config;
    c.telemetry.enabled = false;
    StreamDispatcher dispatcher(c, events);
    StatusOr<StreamResult> result = dispatcher.Run();
    FTA_CHECK_OK(result.status());
    digest_off = result->digest;
    double tick_ms = 0.0;
    for (const TickStats& ts : result->ticks) tick_ms += ts.tick_ms;
    off_ms_per_tick = std::min(
        off_ms_per_tick, tick_ms / static_cast<double>(kStreamTicks));
  }
  uint64_t digest_on = 0;
  {
    StreamDispatcher dispatcher(stream_config, events);
    StatusOr<StreamResult> result = dispatcher.Run();
    FTA_CHECK_OK(result.status());
    digest_on = result->digest;
  }
  const bool digest_match = digest_on == digest_off;

  // Direct OnTick cost over a representative synthetic tick.
  StreamTelemetry telemetry(StreamTelemetryConfig{});
  TickStats probe_ts;
  probe_ts.num_workers = 40;
  probe_ts.num_dps = 240;
  probe_ts.workers_in = 2;
  probe_ts.tasks_in = 12;
  probe_ts.tasks_out = 12;
  probe_ts.used_delta = true;
  probe_ts.catalog_ms = 0.4;
  probe_ts.solve_ms = 0.2;
  probe_ts.project_ms = 0.01;
  probe_ts.tick_ms = 0.7;
  probe_ts.rounds = 2;
  probe_ts.converged = true;
  constexpr int kOnTickReps = 200000;
  Stopwatch ontick_sw;
  for (int i = 0; i < kOnTickReps; ++i) {
    probe_ts.tick = static_cast<uint64_t>(i);
    telemetry.OnTick(probe_ts);
  }
  const double ontick_ns =
      ontick_sw.ElapsedSeconds() * 1e9 / kOnTickReps;
  const double stream_overhead_fraction =
      ontick_ns * 1e-6 / off_ms_per_tick;
  const bool stream_pass =
      digest_match && stream_overhead_fraction < kThreshold;

  const bool pass = span_pass && stream_pass;

  obs::JsonWriter json;
  json.BeginObject();
  json.Key("bench");
  json.String("obs_overhead");
  json.Key("meta");
  bench::AppendBenchMeta(json);
  json.Key("workload");
  json.String("gm_default_fgt");
  json.Key("disabled_span_ns");
  json.Double(disabled_span_ns);
  json.Key("spans_per_run");
  json.UInt(spans_per_run);
  json.Key("run_seconds");
  json.Double(run_seconds);
  json.Key("overhead_fraction");
  json.Double(overhead_fraction);
  json.Key("threshold");
  json.Double(kThreshold);
  json.Key("stream_telemetry");
  json.BeginObject();
  json.Key("workload");
  json.String("gm_churn_warm_fgt");
  json.Key("ticks");
  json.UInt(kStreamTicks);
  json.Key("off_ms_per_tick");
  json.Double(off_ms_per_tick);
  json.Key("ontick_ns");
  json.Double(ontick_ns);
  json.Key("overhead_fraction");
  json.Double(stream_overhead_fraction);
  json.Key("threshold");
  json.Double(kThreshold);
  json.Key("digest_match");
  json.Bool(digest_match);
  json.EndObject();
  json.Key("pass");
  json.Bool(pass);
  json.EndObject();
  const std::string path = "BENCH_obs.json";
  std::ofstream out(path);
  out << json.str() << "\n";
  out.close();

  std::printf(
      "obs overhead gate: %.3f ns/span disabled, %zu spans/run, FGT run "
      "%.3f ms -> modeled overhead %.4f%% (< %.1f%%: %s); wrote %s\n",
      disabled_span_ns, spans_per_run, run_seconds * 1e3,
      overhead_fraction * 100.0, kThreshold * 100.0,
      span_pass ? "PASS" : "FAIL", path.c_str());
  std::printf(
      "stream telemetry gate: %.1f ns/OnTick vs %.3f ms/tick off -> "
      "%.4f%% (< %.1f%%), digests %s (%s)\n",
      ontick_ns, off_ms_per_tick, stream_overhead_fraction * 100.0,
      kThreshold * 100.0, digest_match ? "match" : "DIVERGE",
      stream_pass ? "PASS" : "FAIL");
  if (!span_pass) {
    std::fprintf(stderr,
                 "obs overhead gate FAILED: disabled-mode instrumentation "
                 "costs %.4f%% of the GM-default FGT run (limit %.1f%%)\n",
                 overhead_fraction * 100.0, kThreshold * 100.0);
    return 1;
  }
  if (!stream_pass) {
    std::fprintf(stderr,
                 "stream telemetry gate FAILED: digest_match=%d, per-tick "
                 "overhead %.4f%% (limit %.1f%%)\n",
                 digest_match ? 1 : 0, stream_overhead_fraction * 100.0,
                 kThreshold * 100.0);
    return 1;
  }
  return 0;
}

// Best-response gate: Evaluate's window walk (game/best_response.h) against
// a full-scan replica on an instance built to give the scan plenty to do.
// Three hard gates, on every host:
//
//   1. Zero steady-state heap allocations per Evaluate, counted by the
//      global operator-new hook above (the ledger view and the walk reuse
//      sized-once buffers).
//   2. The replica and the engine choose the same best response for every
//      worker (the baseline must be semantically the same rule, not a
//      strawman).
//   3. >= 2x per-Evaluate speedup over the replica (best-of-reps on both
//      sides to shed scheduler noise).
//
// The JSON also records a GM-default FGT run's engine counters so the
// report shows the production picture next to the isolated one. Results
// go to BENCH_game.json.
namespace {

/// |W| workers and 2|W| single-task delivery points scattered near the
/// distribution center with a deadline no route can miss: every worker's
/// catalog holds one strategy per point (maxDP = 1), and after the greedy
/// seeding assignment roughly half the candidates of every Evaluate
/// survive the availability filter — hundreds of candidates per call
/// against an exclude-one view of |W| - 1 payoffs.
Instance GameGateInstance(size_t num_workers) {
  Rng rng(21);
  const size_t num_dps = num_workers * 2;
  std::vector<DeliveryPoint> dps;
  dps.reserve(num_dps);
  for (size_t i = 0; i < num_dps; ++i) {
    const Point at{rng.Uniform(-10.0, 10.0), rng.Uniform(-10.0, 10.0)};
    // Distinct rewards give the ledger |W| distinct payoffs.
    dps.emplace_back(at, std::vector<SpatialTask>{SpatialTask{
                             static_cast<uint32_t>(i), 1000.0,
                             1.0 + 0.001 * static_cast<double>(i)}});
  }
  std::vector<Worker> workers;
  workers.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    workers.push_back(
        Worker{{rng.Uniform(-10.0, 10.0), rng.Uniform(-10.0, 10.0)}, 1});
  }
  return Instance(Point{0.0, 0.0}, std::move(dps), std::move(workers),
                  TravelModel(5.0));
}

/// Seconds for `sweeps` full Evaluate sweeps over all workers, best of
/// `reps` (each rep re-times the same steady state).
double TimeEvaluateSweeps(BestResponseEngine& engine, size_t num_workers,
                          int sweeps, int reps) {
  double best = kInfinity;
  for (int r = 0; r < reps; ++r) {
    Stopwatch sw;
    for (int s = 0; s < sweeps; ++s) {
      for (size_t w = 0; w < num_workers; ++w) {
        benchmark::DoNotOptimize(engine.Evaluate(w));
      }
    }
    best = std::min(best, sw.ElapsedSeconds());
  }
  return best;
}

/// Replica of the full per-candidate scan (Evaluate before the window
/// walk): one exclude-one view per call, then a view.Iau per available
/// candidate, payoffs read through the AoS strategy records. `avail`
/// stands in for the engine's incremental availability index — both
/// sides pay one cached byte per availability answer, so the timing
/// difference is the candidates scored, not availability checking.
/// Semantically Equation 10: Better()'s (utility desc, index asc) fold over
/// the same null-first candidate order — kept in the bench so the library
/// stays single-path.
int32_t LegacyBestResponse(const JointState& state, PayoffLedger& ledger,
                           const std::vector<uint8_t>& avail, size_t w,
                           const IauParams& params) {
  const LedgerView& view = ledger.Exclude(w);
  const std::vector<WorkerStrategy>& strategies =
      state.catalog().strategies(w);
  const int32_t current = state.strategy_of(w);
  const double incumbent_u = view.Iau(state.payoff_of(w), params);
  bool valid = false;
  double best_u = 0.0;
  int32_t best_idx = 0;
  if (current != kNullStrategy) {
    best_u = view.Iau(0.0, params);
    best_idx = kNullStrategy;
    valid = true;
  }
  for (size_t i = 0; i < strategies.size(); ++i) {
    const int32_t idx = static_cast<int32_t>(i);
    if (idx == current) continue;
    if (avail[i] == 0) continue;
    const double u = view.Iau(strategies[i].payoff, params);
    // In an ascending-index scan only a strictly greater utility may
    // replace the running winner (ties keep the lower index / null).
    if (!valid || u > best_u) {
      best_u = u;
      best_idx = idx;
      valid = true;
    }
  }
  if (valid && DefinitelyGreater(best_u, incumbent_u)) return best_idx;
  return current;
}

/// Seconds for `sweeps` replica sweeps over all workers, best of `reps` —
/// the counterpart of TimeEvaluateSweeps for the baseline.
double TimeLegacySweeps(const JointState& state, PayoffLedger& ledger,
                        const std::vector<std::vector<uint8_t>>& avail,
                        const IauParams& params, size_t num_workers,
                        int sweeps, int reps) {
  double best = kInfinity;
  for (int r = 0; r < reps; ++r) {
    Stopwatch sw;
    for (int s = 0; s < sweeps; ++s) {
      for (size_t w = 0; w < num_workers; ++w) {
        benchmark::DoNotOptimize(
            LegacyBestResponse(state, ledger, avail[w], w, params));
      }
    }
    best = std::min(best, sw.ElapsedSeconds());
  }
  return best;
}

}  // namespace

int RunGameGate(size_t num_workers) {
  const Instance inst = GameGateInstance(num_workers);
  VdpsConfig vdps;
  vdps.max_set_size = 1;
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, vdps);

  const IauParams params;
  // Engine in the production configuration (incremental availability
  // index on); the replica gets a precomputed bitmap of the same
  // availability answers.
  JointState state(inst, catalog);
  BestResponseEngine engine(state, params);
  for (size_t w = 0; w < num_workers; ++w) {
    const size_t n = catalog.strategies(w).size();
    for (size_t i = 0; i < n; ++i) {
      const int32_t idx = static_cast<int32_t>(i);
      if (state.IsAvailable(w, idx)) {
        engine.Apply(w, idx);
        break;
      }
    }
  }
  PayoffLedger legacy_ledger(state.payoffs());
  std::vector<std::vector<uint8_t>> avail(num_workers);
  for (size_t w = 0; w < num_workers; ++w) {
    const size_t n = catalog.strategies(w).size();
    avail[w].resize(n);
    for (size_t i = 0; i < n; ++i) {
      avail[w][i] =
          state.IsAvailable(w, static_cast<int32_t>(i)) ? 1 : 0;
    }
  }

  // Gate 2 first: the baseline's choices must match the engine's before
  // its timing means anything.
  bool replica_agrees = true;
  for (size_t w = 0; w < num_workers; ++w) {
    if (engine.Evaluate(w).strategy !=
        LegacyBestResponse(state, legacy_ledger, avail[w], w, params)) {
      replica_agrees = false;
    }
  }

  // Availability answers per Evaluate, from the engine's own counters:
  // how far down the strategy list the walk went.
  const BestResponseCounters sweep_before = engine.counters();
  for (size_t w = 0; w < num_workers; ++w) {
    benchmark::DoNotOptimize(engine.Evaluate(w));
  }
  const BestResponseCounters sweep_after = engine.counters();
  const double checks_per_evaluate =
      static_cast<double>(
          (sweep_after.strategies_scanned + sweep_after.cache_skips) -
          (sweep_before.strategies_scanned + sweep_before.cache_skips)) /
      static_cast<double>(num_workers);

  constexpr int kSweeps = 10;
  constexpr int kReps = 5;
  const uint64_t evaluate_calls =
      static_cast<uint64_t>(kSweeps) * num_workers;

  // Steady-state allocation count after a warm-up sweep of each side.
  TimeEvaluateSweeps(engine, num_workers, 1, 1);
  TimeLegacySweeps(state, legacy_ledger, avail, params, num_workers, 1, 1);
  const uint64_t before = g_heap_allocations.load(std::memory_order_relaxed);
  TimeEvaluateSweeps(engine, num_workers, kSweeps, 1);
  const uint64_t engine_allocs =
      g_heap_allocations.load(std::memory_order_relaxed) - before;

  const double walk_seconds =
      TimeEvaluateSweeps(engine, num_workers, kSweeps, kReps);
  const double legacy_seconds = TimeLegacySweeps(
      state, legacy_ledger, avail, params, num_workers, kSweeps, kReps);
  const double speedup = legacy_seconds / walk_seconds;

  constexpr double kSpeedupThreshold = 2.0;
  const bool zero_alloc_pass = engine_allocs == 0;
  const bool speedup_pass = speedup >= kSpeedupThreshold;
  const bool pass = zero_alloc_pass && replica_agrees && speedup_pass;

  // End-to-end context: the engine's availability work on a
  // production-shaped GM-default FGT solve.
  const Instance gm = GmInstance();
  const VdpsCatalog gm_catalog = VdpsCatalog::Generate(gm, PrunedVdps());
  const GameResult gm_run = SolveFgt(gm, gm_catalog);

  const double per_call = 1e9 / static_cast<double>(evaluate_calls);
  obs::JsonWriter json;
  json.BeginObject();
  json.Key("bench");
  json.String("game_best_response");
  json.Key("meta");
  bench::AppendBenchMeta(json);
  json.Key("workload");
  json.String("uniform_single_point_catalogs");
  json.Key("workers");
  json.UInt(static_cast<uint64_t>(num_workers));
  json.Key("strategies_per_worker");
  json.UInt(static_cast<uint64_t>(catalog.MaxStrategiesPerWorker()));
  json.Key("evaluate_calls");
  json.UInt(evaluate_calls);
  json.Key("walk");
  json.BeginObject();
  json.Key("seconds");
  json.Double(walk_seconds);
  json.Key("ns_per_evaluate");
  json.Double(walk_seconds * per_call);
  json.Key("availability_checks_per_evaluate");
  json.Double(checks_per_evaluate);
  json.Key("steady_state_allocations");
  json.UInt(engine_allocs);
  json.EndObject();
  json.Key("full_scan");
  json.BeginObject();
  json.Key("seconds");
  json.Double(legacy_seconds);
  json.Key("ns_per_evaluate");
  json.Double(legacy_seconds * per_call);
  json.EndObject();
  json.Key("walk_speedup");
  json.Double(speedup);
  json.Key("speedup_threshold");
  json.Double(kSpeedupThreshold);
  json.Key("zero_alloc_pass");
  json.Bool(zero_alloc_pass);
  json.Key("replica_agrees");
  json.Bool(replica_agrees);
  json.Key("speedup_pass");
  json.Bool(speedup_pass);
  json.Key("gm_default_fgt_engine");
  json.BeginObject();
  json.Key("strategies_scanned");
  json.UInt(gm_run.engine.strategies_scanned);
  json.Key("cache_skips");
  json.UInt(gm_run.engine.cache_skips);
  json.EndObject();
  json.Key("pass");
  json.Bool(pass);
  json.EndObject();
  const std::string path = "BENCH_game.json";
  std::ofstream out(path);
  out << json.str() << "\n";
  out.close();

  std::printf(
      "game gate (|W|=%zu, %.1f availability checks/Evaluate): full scan "
      "%.1f ns/call, walk %.1f ns/call (%llu allocs) -> %.2fx (>= %.1fx, "
      "0 allocs, replica %s: %s); wrote %s\n",
      num_workers, checks_per_evaluate, legacy_seconds * per_call,
      walk_seconds * per_call,
      static_cast<unsigned long long>(engine_allocs), speedup,
      kSpeedupThreshold, replica_agrees ? "agrees" : "DISAGREES",
      pass ? "PASS" : "FAIL", path.c_str());
  if (!pass) {
    std::fprintf(stderr,
                 "game gate FAILED: allocations=%llu (need 0), "
                 "replica_agrees=%d, speedup %.2fx (need >= %.1fx)\n",
                 static_cast<unsigned long long>(engine_allocs),
                 replica_agrees ? 1 : 0, speedup, kSpeedupThreshold);
    return 1;
  }
  return 0;
}

}  // namespace fta

int main(int argc, char** argv) {
  // --bench=obs / --bench=game run just that gate (the CI smoke mode);
  // --gate-workers=N resizes the game gate's instance. All are consumed
  // here so google-benchmark never sees them.
  bool obs_only = false;
  bool game_only = false;
  std::size_t gate_workers = 256;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--bench=obs") {
      obs_only = true;
    } else if (arg == "--bench=game") {
      game_only = true;
    } else if (arg.rfind("--gate-workers=", 0) == 0) {
      gate_workers = static_cast<std::size_t>(
          std::strtoull(arg.c_str() + std::strlen("--gate-workers="),
                        nullptr, 10));
      if (gate_workers == 0) {
        std::fprintf(stderr, "bad --gate-workers value: %s\n", arg.c_str());
        return 1;
      }
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (obs_only) return fta::RunObsOverheadGate();
  if (game_only) return fta::RunGameGate(gate_workers);
  if (const int rc = fta::RunObsOverheadGate(); rc != 0) return rc;
  if (const int rc = fta::RunGameGate(gate_workers); rc != 0) return rc;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
