// city_hotspot: open-loop city traffic through the sharded
// AssignmentServer. The driver thread submits each tick's requests at the
// tick's due instant whatever the server is doing, and every latency
// counts from that due instant, so a stall shows in the requests behind
// it (no coordinated omission). The measured phase is several passes over
// the same ticks, each after a fresh set-up, and every response of every
// pass is checked bit for bit against the sequential reference loop.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "datagen/city.h"
#include "datagen/workload.h"
#include "serve/replay.h"
#include "serve/server.h"
#include "stats.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

struct CityShape {
  size_t centers = 0;
  /// Log-normal spread of the per-center rates. The multipliers are the
  /// fixed quantiles exp(sigma * z_c), z_c = Phi^-1((c + 0.5) / centers),
  /// so every seed has the same hot-to-quiet profile and the seed draws
  /// only the arrivals; a seeded draw would let the hottest center, which
  /// sets the tail, differ by tens of percent from seed to seed.
  double sigma = 0.0;
  double task_rate_per_hour = 0.0;
  double worker_rate_per_hour = 0.0;
  double lifetime_hours = 0.0;
  /// Simulated time per tick (hours).
  double tick_hours = 0.0;
  /// Wall time between tick due instants: the offered load.
  double interval_ms = 0.0;
  /// Each (center, tick) is split into 1..max_requests coalescible
  /// requests.
  size_t max_requests = 3;
  /// Ticks replayed as fast as the server answers before measuring, so
  /// every shard's standing market is at steady state.
  uint64_t warm_ticks = 0;
};

/// bench_serve's city: 12 centers with log-normal rates (sigma 0.6). The
/// base market is capped so the hottest shard's serial tick stays well
/// under the tick interval; that tick is the critical path. A tick covers
/// 0.4 of a market lifetime, so the ~150 ticks of a measured pass see ~60
/// independent states of the hot market. At 0.05 h per tick a pass saw
/// ~10 and its tail moved by ~17% from seed to seed.
CityShape HotspotShape() {
  CityShape s;
  s.centers = 12;
  s.sigma = 0.6;
  s.task_rate_per_hour = 120.0;
  s.worker_rate_per_hour = 20.0;
  s.lifetime_hours = 1.0;
  s.tick_hours = 0.4;
  s.interval_ms = 40.0;
  s.warm_ticks = 25;
  return s;
}

double NormalQuantile(double p) {
  double lo = -10.0, hi = 10.0;
  for (int i = 0; i < 100; ++i) {
    const double mid = (lo + hi) / 2.0;
    if (0.5 * std::erfc(-mid / std::sqrt(2.0)) < p) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return (lo + hi) / 2.0;
}

/// The city of datagen/city.h (same grid, same per-center churn model),
/// with the fixed rate profile described at CityShape::sigma.
fta::CityWorkload BuildCity(const CityShape& shape, uint64_t seed,
                            uint64_t ticks) {
  constexpr double kArea = 10.0, kSpacing = 12.0;
  fta::CityWorkload city;
  city.tick_period = shape.tick_hours;
  city.ticks = ticks;
  const size_t grid = static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<double>(shape.centers))));
  for (size_t c = 0; c < shape.centers; ++c) {
    const double z = NormalQuantile(
        (static_cast<double>(c) + 0.5) / static_cast<double>(shape.centers));
    const double scale = std::exp(shape.sigma * z);
    fta::ChurnWorkloadConfig churn;
    churn.horizon_hours = static_cast<double>(ticks) * shape.tick_hours;
    churn.tasks.base_rate_per_hour = shape.task_rate_per_hour * scale;
    churn.tasks.peak_hours = {};
    churn.worker_rate_per_hour = shape.worker_rate_per_hour * scale;
    churn.area_size = kArea;
    churn.mean_worker_dwell_hours = shape.lifetime_hours;
    churn.mean_task_patience_hours = shape.lifetime_hours;
    const double ox = static_cast<double>(c % grid) * kSpacing;
    const double oy = static_cast<double>(c / grid) * kSpacing;
    city.centers.push_back({ox + kArea / 2.0, oy + kArea / 2.0});
    std::vector<fta::StreamEvent> events = fta::GenerateChurnEvents(
        churn, fta::SplitMix64(seed ^ (static_cast<uint64_t>(c) + 1)).Next());
    for (fta::StreamEvent& ev : events) {
      fta::Point& p = ev.kind == fta::StreamEventKind::kWorkerArrival
                          ? ev.worker.location
                          : ev.location;
      p.x += ox;
      p.y += oy;
    }
    city.events.push_back(std::move(events));
  }
  return city;
}

fta::ServerConfig MakeServerConfig(const CityShape& shape, size_t runners,
                                   uint64_t seed) {
  fta::ServerConfig config;
  config.num_threads = runners;
  // Room for several ticks of backlog; beyond it Submit sheds and the
  // driver retries (counted in serve.retries).
  config.queue_capacity = 16 * shape.centers * shape.max_requests;
  config.tick_period = shape.tick_hours;
  config.engine.policy = fta::ResolvePolicy::kWarm;
  config.engine.solver = fta::StreamSolver::kFgt;
  config.engine.vdps.epsilon = 0.6;  // Table I GM defaults
  config.engine.vdps.max_set_size = 3;
  config.engine.seed = seed;
  return config;
}

/// Wall-clock record of one request. Per-batch arrays (emission, seal)
/// are indexed t * centers + c for the batch of tick t at center c; every
/// (center, tick) has one.
struct RequestTimes {
  int64_t start_ns = 0;  // first Submit attempt
  int64_t end_ns = 0;    // admitted
  bool admitted = false;
};

/// One set-up: inputs, pool, server, and the warm-up replay. Members are
/// destroyed in reverse order: the server (whose drain may still run the
/// callback) before the pool it runs on, and both before the callback's
/// targets.
struct CityRun {
  fta::ServeTrace trace;
  /// First request index of each tick (plus a sentinel).
  std::vector<size_t> tick_begin;
  /// Response instant of each batch, written by the callback.
  std::vector<int64_t> emit_ns;
  std::atomic<uint64_t> answered{0};
  std::unique_ptr<fta::ThreadPool> pool;
  std::unique_ptr<fta::AssignmentServer> server;
};

/// Submits request `i`, retrying while the server sheds. Returns false on
/// a non-retryable rejection.
bool SubmitWithRetry(CityRun& run, size_t i, RequestTimes* t,
                     uint64_t* retries) {
  t->start_ns = NowNs();
  for (;;) {
    const fta::AdmissionCode code = run.server->Submit(run.trace.requests[i]);
    if (code == fta::AdmissionCode::kAdmitted) break;
    if (code != fta::AdmissionCode::kQueueFull) return false;
    ++*retries;
    std::this_thread::yield();
  }
  t->end_ns = NowNs();
  t->admitted = true;
  return true;
}

bool WaitAnswered(const CityRun& run, uint64_t batches, double timeout_s) {
  const int64_t deadline = NowNs() + static_cast<int64_t>(timeout_s * 1e9);
  while (run.answered.load(std::memory_order_acquire) < batches) {
    if (NowNs() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

/// Compares every response with RunSequentialReference's, field by
/// field. first_global_seq, the one field that depends on the other
/// centers' requests, is checked against the batch's first request index
/// in the trace, which is what the reference assigns. Returns per-batch
/// match flags.
std::vector<char> CheckAgainstReference(const CityRun& run,
                                        const fta::ReferenceResult& ref) {
  const size_t C = run.trace.centers.size();
  const uint64_t T = run.trace.ticks;
  std::vector<uint64_t> first_seq(C * T, ~0ull);
  for (size_t i = 0; i < run.trace.requests.size(); ++i) {
    const fta::ServeRequest& q = run.trace.requests[i];
    uint64_t& slot = first_seq[q.tick * C + q.center];
    slot = std::min<uint64_t>(slot, i);
  }

  std::vector<char> ok(C * T, 0);
  for (uint32_t c = 0; c < C; ++c) {
    const std::vector<fta::ServeResponse>& got = run.server->responses(c);
    const std::vector<fta::ServeResponse>& want = ref.responses[c];
    if (got.size() != want.size()) continue;
    for (size_t k = 0; k < got.size(); ++k) {
      const fta::ServeResponse& a = got[k];
      const fta::ServeResponse& b = want[k];
      const fta::TickStats& x = a.stats;
      const fta::TickStats& y = b.stats;
      const bool same =
          a.center == b.center && a.tick == b.tick &&
          a.shard_seq == b.shard_seq && a.tick < T &&
          a.first_global_seq == first_seq[a.tick * C + c] &&
          a.coalesced_requests == b.coalesced_requests &&
          a.shard_digest == b.shard_digest && x.tick == y.tick &&
          x.time == y.time && x.num_workers == y.num_workers &&
          x.num_dps == y.num_dps && x.workers_in == y.workers_in &&
          x.workers_out == y.workers_out && x.tasks_in == y.tasks_in &&
          x.tasks_out == y.tasks_out && x.used_delta == y.used_delta &&
          x.rounds == y.rounds && x.converged == y.converged &&
          x.assigned_workers == y.assigned_workers &&
          x.covered_dps == y.covered_dps &&
          x.average_payoff == y.average_payoff &&
          x.payoff_difference == y.payoff_difference &&
          x.catalog_digest == y.catalog_digest;
      if (same) ok[a.tick * C + c] = 1;
    }
  }
  return ok;
}

}  // namespace

Report RunCityHotspot(const Options& opt) {
  /// The measured phase is this many passes over the same ticks, each
  /// after a set-up of its own (6.25 s each in a 50-s run). The timed
  /// end-to-end figures take each request's and each batch's best time
  /// over the passes; see stats.h.
  constexpr size_t kPasses = 8;
  /// A request reconciles when its layer spans cover its latency to
  /// within this share.
  constexpr double kReconcileTolerance = 0.05;
  constexpr double kNone = std::numeric_limits<double>::infinity();
  Report r;
  const CityShape shape = HotspotShape();
  const unsigned hw = std::max(2u, std::thread::hardware_concurrency());
  const size_t runners = opt.runners > 0 ? opt.runners : hw - 1;
  const uint64_t measured_ticks = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::llround(
             opt.seconds / kPasses * 1e3 / shape.interval_ms)));
  const uint64_t W = shape.warm_ticks;
  const uint64_t T = W + measured_ticks;
  const size_t C = shape.centers;
  const fta::ServerConfig config = MakeServerConfig(shape, runners, opt.seed);
  const int64_t interval_ns = static_cast<int64_t>(shape.interval_ms * 1e6);

  std::vector<double> setup_s, lag_ms;
  std::optional<fta::ReferenceResult> ref;
  // Best time over the passes of each measured request (trace order from
  // tick W's first request) and of each measured batch ((t - W) * C + c).
  std::vector<double> best_latency, best_tick(measured_ticks * C, kNone);
  std::vector<double> pdif, avg;
  double on_time = 0, sent = 0;
  uint64_t retries = 0, rejected = 0;

  // Per-layer accumulators of the traced run, over every pass.
  double gen_ms = 0, gen_n = 0, span_s = 0;
  std::vector<double> tick_ms, queue_ms, submit_us;
  std::vector<double> shard_busy(C, 0.0);
  double delta = 0, d_strat = 0, d_enum = 0, d_adj = 0, d_entries = 0,
         d_strategies = 0, d_states = 0, solve = 0, rounds = 0, project = 0,
         other = 0, events = 0, coalesced = 0;
  double lat_sum = 0, adm_sum = 0, queue_sum = 0, cat_sum = 0, solve_sum = 0,
         other_sum = 0, residual_sum = 0, reconciled = 0, n_req = 0;
  std::vector<Span> spans;

  for (size_t pass = 0; pass < kPasses; ++pass) {
    // ---- Set-up: inputs, pool, server, closed-loop warm-up. ----
    const int64_t t0 = NowNs();
    CityRun run;
    run.trace = fta::BuildServeTrace(BuildCity(shape, opt.seed, T),
                                     shape.max_requests, opt.seed);
    run.tick_begin.assign(T + 1, run.trace.requests.size());
    for (size_t i = run.trace.requests.size(); i-- > 0;) {
      run.tick_begin[run.trace.requests[i].tick] = i;
    }
    run.emit_ns.assign(C * T, 0);
    run.pool = std::make_unique<fta::ThreadPool>(runners);
    std::vector<fta::CenterSpec> centers;
    for (const fta::Point& p : run.trace.centers) centers.push_back({p});
    run.server = std::make_unique<fta::AssignmentServer>(
        config, std::move(centers), run.pool.get());
    CityRun* raw = &run;
    run.server->set_response_callback([raw, C](const fta::ServeResponse& s) {
      raw->emit_ns[s.tick * C + s.center] = NowNs();
      raw->answered.fetch_add(1, std::memory_order_release);
    });
    std::vector<RequestTimes> req(run.trace.requests.size());
    // The warm-up submits without pacing and sheds by design; only the
    // measured phase's retries are reported.
    uint64_t warm_retries = 0;
    for (size_t i = 0; i < run.tick_begin[W]; ++i) {
      if (!SubmitWithRetry(run, i, &req[i], &warm_retries)) ++rejected;
    }
    if (!WaitAnswered(run, W * C, 120.0)) r.Fail("warm-up did not finish");
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);

    // ---- Measured pass: open loop at one tick per interval. ----
    const size_t first = run.tick_begin[W];
    if (pass == 0) best_latency.assign(run.trace.requests.size() - first,
                                       kNone);
    if (best_latency.size() != run.trace.requests.size() - first) {
      r.Fail("passes replayed different traces");
      break;
    }
    std::vector<int64_t> due_ns(T, 0);
    const int64_t start = NowNs() + 2'000'000;
    for (uint64_t t = W; t < T; ++t) {
      due_ns[t] = start + static_cast<int64_t>(t - W) * interval_ns;
      std::this_thread::sleep_until(
          Clock::time_point(std::chrono::nanoseconds(due_ns[t])));
      lag_ms.push_back(NsToMs(NowNs() - due_ns[t]));
      for (size_t i = run.tick_begin[t]; i < run.tick_begin[t + 1]; ++i) {
        if (!SubmitWithRetry(run, i, &req[i], &retries)) ++rejected;
      }
    }
    const bool all_answered = WaitAnswered(run, T * C, 120.0);
    run.server->Drain();
    if (!all_answered) r.Fail("responses missing after the measured phase");
    const int64_t last_emit =
        *std::max_element(run.emit_ns.begin(), run.emit_ns.end());
    span_s += static_cast<double>(last_emit - start) / 1e9;

    // ---- Checks (untimed): the sequential reference, bit for bit. ----
    // Every pass replays the same trace, so one reference serves all.
    if (!ref) ref = fta::RunSequentialReference(config, run.trace);
    const std::vector<char> batch_ok = CheckAgainstReference(run, *ref);

    // Seal instant of each batch: admission of its final request.
    std::vector<int64_t> seal_ns(C * T, 0);
    for (size_t i = 0; i < run.trace.requests.size(); ++i) {
      const fta::ServeRequest& q = run.trace.requests[i];
      if (q.final_in_tick) seal_ns[q.tick * C + q.center] = req[i].end_ns;
    }
    std::vector<const fta::ServeResponse*> resp(C * T, nullptr);
    for (uint32_t c = 0; c < C; ++c) {
      for (const fta::ServeResponse& s : run.server->responses(c)) {
        if (s.tick < T) resp[s.tick * C + c] = &s;
      }
    }

    // ---- Per-request end-to-end readings (measured ticks only). ----
    std::vector<double> pass_latency(best_latency.size(), kNone);
    for (size_t i = 0; i < run.trace.requests.size(); ++i) {
      const fta::ServeRequest& q = run.trace.requests[i];
      const size_t b = q.tick * C + q.center;
      const bool good = req[i].admitted && batch_ok[b] && resp[b] != nullptr;
      ++r.attempted;
      if (!good) ++r.failed;
      if (q.tick < W) continue;
      ++sent;
      const double l = NsToMs(run.emit_ns[b] - due_ns[q.tick]);
      if (good) pass_latency[i - first] = l;
      // Late unless answered before the center's next tick was due.
      if (good && l < shape.interval_ms) ++on_time;
    }
    KeepBest(&best_latency, pass_latency);
    std::vector<double> pass_tick(best_tick.size(), kNone);
    for (uint64_t t = W; t < T; ++t) {
      for (size_t c = 0; c < C; ++c) {
        const fta::ServeResponse* s = resp[t * C + c];
        if (s == nullptr || !batch_ok[t * C + c]) continue;
        pass_tick[(t - W) * C + c] = s->stats.tick_ms;
        // The outcome is the same in every pass (the reference check
        // pins it), so the payoffs are read once.
        if (pass == 0) {
          pdif.push_back(s->stats.payoff_difference);
          avg.push_back(s->stats.average_payoff);
        }
      }
    }
    KeepBest(&best_tick, pass_tick);
    if (!opt.trace) continue;

    // ---- Per-layer readings of this pass (traced run). ----
    for (const fta::ServeResponse* s : resp) {
      if (s != nullptr && !s->stats.used_delta) {
        gen_ms += s->stats.catalog_ms;
        ++gen_n;
      }
    }
    for (uint64_t t = W; t < T; ++t) {
      for (size_t c = 0; c < C; ++c) {
        const size_t b = t * C + c;
        const fta::ServeResponse* s = resp[b];
        if (s == nullptr) continue;
        const fta::TickStats& x = s->stats;
        tick_ms.push_back(x.tick_ms);
        queue_ms.push_back(NsToMs(run.emit_ns[b] - seal_ns[b]) - x.tick_ms);
        shard_busy[c] += x.tick_ms;
        delta += x.delta.wall_ms;
        d_strat += x.delta.strategies_ms;
        d_enum += x.delta.enumerate_ms;
        d_adj += x.delta.adjacency_ms;
        d_entries += static_cast<double>(x.delta.entries_added);
        d_strategies += static_cast<double>(x.delta.strategies_added);
        d_states += static_cast<double>(x.delta.subenum_states);
        solve += x.solve_ms;
        rounds += x.rounds;
        project += x.project_ms;
        other += x.tick_ms - x.catalog_ms - x.solve_ms - x.project_ms;
        events += static_cast<double>(x.workers_in + x.tasks_in);
        coalesced += static_cast<double>(s->coalesced_requests);
        const int64_t tick_start =
            run.emit_ns[b] - static_cast<int64_t>(x.tick_ms * 1e6);
        // One trace lane per shard: the driver is lane 0. Span ids are
        // unique over the passes.
        const uint32_t lane = static_cast<uint32_t>(c) + 1;
        const uint64_t id = pass * C * T + b + 1;
        spans.push_back({"serve.queue_wait", seal_ns[b], tick_start, id, 0,
                         lane});
        spans.push_back({"stream.Tick", tick_start, run.emit_ns[b], id, 0,
                         lane});
      }
    }

    // Per-request decomposition: admission (send lag plus every Submit
    // span of the tick up to the batch's seal) + queue wait + tick =
    // latency, up to the driver's own time between Submit calls.
    for (uint64_t t = W; t < T; ++t) {
      const size_t lo = run.tick_begin[t], hi = run.tick_begin[t + 1];
      std::vector<double> adm_at_seal(C, 0.0);
      double cum = NsToMs(lo < hi ? req[lo].start_ns - due_ns[t] : 0);
      for (size_t i = lo; i < hi; ++i) {
        cum += NsToMs(req[i].end_ns - req[i].start_ns);
        submit_us.push_back(NsToMs(req[i].end_ns - req[i].start_ns) * 1e3);
        const fta::ServeRequest& q = run.trace.requests[i];
        // Spans of one batch share its id, so a request's Submit lines up
        // with the queue wait and tick that answered it.
        spans.push_back({"serve.Submit", req[i].start_ns, req[i].end_ns,
                         pass * C * T + t * C + q.center + 1, 0, 0});
        if (q.final_in_tick) adm_at_seal[q.center] = cum;
      }
      for (size_t i = lo; i < hi; ++i) {
        const fta::ServeRequest& q = run.trace.requests[i];
        const size_t b = t * C + q.center;
        const fta::ServeResponse* s = resp[b];
        if (s == nullptr) continue;
        const fta::TickStats& x = s->stats;
        const double lat = NsToMs(run.emit_ns[b] - due_ns[t]);
        const double adm = adm_at_seal[q.center];
        const double queue = NsToMs(run.emit_ns[b] - seal_ns[b]) - x.tick_ms;
        const double residual = lat - (adm + queue + x.tick_ms);
        lat_sum += lat;
        adm_sum += adm;
        queue_sum += queue;
        cat_sum += x.catalog_ms;
        solve_sum += x.solve_ms;
        other_sum += x.tick_ms - x.catalog_ms - x.solve_ms;
        residual_sum += residual;
        if (std::abs(residual) <= kReconcileTolerance * lat) ++reconciled;
        ++n_req;
      }
    }
  }

  if (r.failed > 0) {
    r.Fail(std::to_string(r.failed) +
           " requests rejected, unanswered, or answered differently from "
           "the sequential reference");
  }
  const Tail lag = TailPercentile(lag_ms);
  // The schedule is only honest if the driver kept it: every tick must go
  // out before the next one is due. Lateness below that is charged to the
  // requests' latency, which counts from the due instant.
  if (lag.value >= shape.interval_ms) {
    r.Fail("driver fell behind its schedule (p99 send lag " +
           std::to_string(lag.value) + " ms)");
  }

  if (!opt.trace) {
    const std::vector<double> latency = Timed(best_latency);
    const Tail tail = TailPercentile(latency);
    if (tail.beyond < 10) r.Fail("too few requests for a p99 reading");
    r.Set("setup_s", Median(setup_s));
    r.Set("peak_rss_mb", PeakRssMb());
    r.Set("instances_per_s", BusyRate(Timed(best_tick)));
    r.Set("latency_p50_ms", Median(latency));
    r.Set("latency_p99_ms", tail.value);
    r.Set("ontime_share", sent > 0 ? on_time / sent : 0.0);
    r.Set("mean_payoff_difference", Mean(pdif));
    r.Set("mean_average_payoff", Mean(avg));
    return r;
  }

  const double B = static_cast<double>(tick_ms.size());
  const double busy = std::accumulate(shard_busy.begin(), shard_busy.end(),
                                      0.0);
  const double hottest = *std::max_element(shard_busy.begin(),
                                           shard_busy.end());
  r.Set("vdps.generate_ms", gen_n > 0 ? gen_ms / gen_n : 0.0);
  r.Set("vdps.strategies_ms", d_strat / B);
  r.Set("vdps.enumerate_ms", d_enum / B);
  r.Set("vdps.adjacency_ms", d_adj / B);
  r.Set("vdps.entries", d_entries / B);
  r.Set("vdps.strategies", d_strategies / B);
  r.Set("vdps.states_expanded", d_states / B);
  r.Set("vdps.delta_ms", delta / B);
  r.Set("vdps.delta_share", delta / busy);
  r.Set("game.solve_ms", solve / B);
  r.Set("game.rounds", rounds / B);
  r.Set("stream.tick_p50_ms", Median(tick_ms));
  r.Set("stream.tick_p99_ms", TailPercentile(tick_ms).value);
  r.Set("stream.project_ms", project / B);
  r.Set("stream.other_ms", other / B);
  r.Set("stream.events_in", events / B);
  r.Set("serve.submit_p50_us", Median(submit_us));
  r.Set("serve.submit_p99_us", TailPercentile(submit_us).value);
  r.Set("serve.queue_wait_p50_ms", Median(queue_ms));
  r.Set("serve.queue_wait_p99_ms", TailPercentile(queue_ms).value);
  r.Set("serve.retries", static_cast<double>(retries));
  r.Set("serve.rejected", static_cast<double>(rejected));
  r.Set("serve.coalesced_per_batch", coalesced / B);
  r.Set("serve.shard_imbalance", hottest / (busy / static_cast<double>(C)));
  r.Set("serve.critical_path_bound", busy / hottest);
  r.Set("serve.runner_busy_share",
        busy / 1e3 / (static_cast<double>(runners) * span_s));
  r.Set("share.admission", adm_sum / lat_sum);
  r.Set("share.queue_wait", queue_sum / lat_sum);
  r.Set("share.vdps", cat_sum / lat_sum);
  r.Set("share.game", solve_sum / lat_sum);
  r.Set("share.stream_other", other_sum / lat_sum);
  r.Set("driver.send_lag_p99_ms", lag.value);
  // The driver takes the same timestamps with tracing off (latency and
  // seal instants need them); spans are assembled only after each
  // measured pass, so tracing adds nothing to it.
  r.Set("trace.overhead_share", 0.0);
  r.Set("trace.unaccounted_share", residual_sum / lat_sum);
  r.Set("trace.reconciled_share", n_req > 0 ? reconciled / n_req : 0.0);
  r.notes.push_back(
      "city: vdps.generate_ms averages each shard's first (cold) tick, "
      "from warm-up; vdps.{strategies,enumerate,adjacency}_ms, entries, "
      "strategies and states_expanded are ApplyDelta's per-tick readings");
  r.notes.push_back(
      "city: vdps.finalize_ms, game.strategies_scanned and "
      "game.cache_hit_share are not exposed through TickStats");
  if (!opt.trace_out.empty()) WriteChromeTrace(opt.trace_out, spans, 40000);
  return r;
}

}  // namespace perfbench
