// Catalog-equivalence battery for the C-VDPS generation engines.
//
// The determinism contract under test (see DESIGN.md, generation pipeline):
//  - the sharded sequence enumerator produces a catalog BIT-IDENTICAL to
//    its serial run at any thread count — shards record raw uncapped
//    options and the finalize step replays them in root order, so thread
//    scheduling cannot influence anything;
//  - the exact bitmask DP (Algorithm 1) and the sequence enumerator agree
//    exactly — same ε-adjacency predicate, same arithmetic order along a
//    route, same Pareto replay — so entries, options, and the per-worker
//    strategies built on top compare with operator== on doubles, not
//    EXPECT_NEAR.
//
//  - the compact strategy layer (admissible-prefix walk, option indices,
//    CSR inverted index) equals a test-local reference materialization
//    that runs every (worker, entry) pair through BestOptionFor, copies
//    routes, sorts, and grows one index vector per delivery point — after
//    Generate and after every step of an ApplyDelta chain.
//
// Labeled `tsan` as well: under FTA_SANITIZE=thread this battery drives
// the sharded enumeration, the chunked beam extension, and the parallel
// per-worker strategy build across 2/4/8-thread pools.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "model/route.h"
#include "util/math_util.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "vdps/catalog.h"
#include "vdps/catalog_internal.h"
#include "vdps/generators.h"

namespace fta {
namespace {

/// Random instance small enough for the exact DP (n <= 24) but dense
/// enough that sets of size 4 exist and Pareto frontiers carry several
/// orderings.
Instance RandomInstance(uint64_t seed, size_t num_dps = 11,
                        size_t num_workers = 4) {
  Rng rng(seed);
  const double area = 8.0;
  std::vector<DeliveryPoint> dps;
  for (uint32_t d = 0; d < num_dps; ++d) {
    std::vector<SpatialTask> tasks;
    const size_t n = 1 + rng.Index(3);
    for (size_t t = 0; t < n; ++t) {
      tasks.push_back(SpatialTask{d, rng.Uniform(1.5, 5.0), 1.0});
    }
    dps.emplace_back(Point{rng.Uniform(0, area), rng.Uniform(0, area)},
                     std::move(tasks));
  }
  std::vector<Worker> workers;
  for (size_t w = 0; w < num_workers; ++w) {
    workers.push_back(
        Worker{{rng.Uniform(0, area), rng.Uniform(0, area)}, 4});
  }
  return Instance(Point{area / 2, area / 2}, std::move(dps),
                  std::move(workers), TravelModel(5.0));
}

/// Asserts exact structural equality of two generation results: same
/// entries in the same order, same Pareto options with identical routes,
/// and doubles compared bit-for-bit.
void ExpectEntriesIdentical(const std::vector<CVdpsEntry>& a,
                            const std::vector<CVdpsEntry>& b,
                            const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t e = 0; e < a.size(); ++e) {
    SCOPED_TRACE(what + ", entry " + std::to_string(e));
    EXPECT_EQ(a[e].dps, b[e].dps);
    EXPECT_EQ(a[e].total_reward, b[e].total_reward);
    ASSERT_EQ(a[e].options.size(), b[e].options.size());
    for (size_t o = 0; o < a[e].options.size(); ++o) {
      EXPECT_EQ(a[e].options[o].route, b[e].options[o].route);
      EXPECT_EQ(a[e].options[o].center_time, b[e].options[o].center_time);
      EXPECT_EQ(a[e].options[o].slack, b[e].options[o].slack);
    }
  }
}

/// Full-catalog equality: entries plus per-worker strategies plus the
/// delivery-point -> strategies inverted index.
void ExpectCatalogsIdentical(const VdpsCatalog& a, const VdpsCatalog& b,
                             const std::string& what) {
  ASSERT_EQ(a.num_entries(), b.num_entries()) << what;
  for (size_t e = 0; e < a.num_entries(); ++e) {
    SCOPED_TRACE(what + ", entry " + std::to_string(e));
    EXPECT_EQ(a.entry(e).dps, b.entry(e).dps);
    EXPECT_EQ(a.entry(e).total_reward, b.entry(e).total_reward);
    ASSERT_EQ(a.entry(e).options.size(), b.entry(e).options.size());
    for (size_t o = 0; o < a.entry(e).options.size(); ++o) {
      EXPECT_EQ(a.entry(e).options[o].route, b.entry(e).options[o].route);
      EXPECT_EQ(a.entry(e).options[o].center_time,
                b.entry(e).options[o].center_time);
      EXPECT_EQ(a.entry(e).options[o].slack, b.entry(e).options[o].slack);
    }
  }
  ASSERT_EQ(a.num_workers(), b.num_workers()) << what;
  for (size_t w = 0; w < a.num_workers(); ++w) {
    SCOPED_TRACE(what + ", worker " + std::to_string(w));
    const auto& sa = a.strategies(w);
    const auto& sb = b.strategies(w);
    ASSERT_EQ(sa.size(), sb.size());
    for (size_t i = 0; i < sa.size(); ++i) {
      EXPECT_EQ(sa[i].entry_id, sb[i].entry_id);
      EXPECT_EQ(sa[i].option, sb[i].option);
      EXPECT_EQ(a.route(w, i), b.route(w, i));
      EXPECT_EQ(sa[i].total_time, sb[i].total_time);
      EXPECT_EQ(sa[i].total_reward, sb[i].total_reward);
      EXPECT_EQ(sa[i].payoff, sb[i].payoff);
    }
  }
  ASSERT_EQ(a.num_indexed_delivery_points(), b.num_indexed_delivery_points())
      << what;
  for (uint32_t dp = 0; dp < a.num_indexed_delivery_points(); ++dp) {
    SCOPED_TRACE(what + ", dp " + std::to_string(dp));
    const auto ta = a.strategies_touching(dp);
    const auto tb = b.strategies_touching(dp);
    ASSERT_EQ(ta.size(), tb.size());
    for (size_t i = 0; i < ta.size(); ++i) {
      EXPECT_EQ(ta[i].worker, tb[i].worker);
      EXPECT_EQ(ta[i].strategy, tb[i].strategy);
    }
  }
}

class CatalogEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

// The core battery: for every (ε, max_set_size) cell, the exact DP, the
// serial sequence enumerator, and the parallel sequence enumerator at 2,
// 4, and 8 threads must produce the same catalog, exactly.
TEST_P(CatalogEquivalenceTest, ExactEqualsSerialEqualsParallel) {
  const Instance inst = RandomInstance(GetParam());
  for (const double epsilon : {kInfinity, 2.5}) {
    for (const uint32_t max_dp : {2u, 3u, 4u}) {
      SCOPED_TRACE("epsilon=" + std::to_string(epsilon) +
                   " max_set_size=" + std::to_string(max_dp));
      VdpsConfig config;
      config.epsilon = epsilon;
      config.max_set_size = max_dp;
      // Uncapped frontier (no set has anywhere near 64 Pareto-optimal
      // orderings here): the max_pareto cap evicts by insertion order, and
      // the DP and the DFS legitimately insert in different orders, so
      // only the (unique) uncapped Pareto set is an engine-independent
      // contract. Capped determinism is per-engine and covered by the
      // sharding tests below, which run at the default cap.
      config.max_pareto = 64;
      const VdpsCatalog serial = VdpsCatalog::Generate(inst, config);

      VdpsConfig exact_config = config;
      exact_config.use_exact_dp = true;
      const VdpsCatalog exact = VdpsCatalog::Generate(inst, exact_config);
      ExpectCatalogsIdentical(serial, exact, "exact vs serial");

      for (const size_t threads : {2u, 4u, 8u}) {
        VdpsConfig parallel_config = config;
        parallel_config.num_threads = threads;
        const VdpsCatalog parallel =
            VdpsCatalog::Generate(inst, parallel_config);
        ExpectCatalogsIdentical(
            serial, parallel,
            "serial vs " + std::to_string(threads) + " threads");
      }
    }
  }
}

// The beam engine's parallel level extension must also be scheduling-proof.
TEST_P(CatalogEquivalenceTest, BeamParallelMatchesBeamSerial) {
  const Instance inst = RandomInstance(GetParam());
  for (const size_t beam_width : {6u, 64u}) {
    VdpsConfig config;
    config.epsilon = 2.5;
    config.max_set_size = 4;
    config.beam_width = beam_width;
    SCOPED_TRACE("beam_width=" + std::to_string(beam_width));
    const VdpsCatalog serial = VdpsCatalog::Generate(inst, config);
    for (const size_t threads : {2u, 4u, 8u}) {
      VdpsConfig parallel_config = config;
      parallel_config.num_threads = threads;
      const VdpsCatalog parallel =
          VdpsCatalog::Generate(inst, parallel_config);
      ExpectCatalogsIdentical(
          serial, parallel,
          "beam serial vs " + std::to_string(threads) + " threads");
    }
  }
}

// Raw generator-level check (below the catalog): sharded enumeration with
// an explicit pool equals the pool-less run, including counters that must
// be scheduling-invariant.
TEST_P(CatalogEquivalenceTest, GeneratorShardingIsOrderInvariant) {
  const Instance inst = RandomInstance(GetParam());
  VdpsConfig config;
  config.epsilon = 2.5;
  config.max_set_size = 3;
  const GenerationResult serial = GenerateCVdpsSequences(inst, config);
  ThreadPool pool(4);
  const GenerationResult parallel =
      GenerateCVdpsSequences(inst, config, &pool);
  ExpectEntriesIdentical(serial.entries, parallel.entries,
                         "generator serial vs pool");
  EXPECT_EQ(serial.truncated, parallel.truncated);
  // Work counters are sums over the same state space, so they match even
  // though the parallel run splits them across shards.
  EXPECT_EQ(serial.counters.states_expanded,
            parallel.counters.states_expanded);
  EXPECT_EQ(serial.counters.options_recorded,
            parallel.counters.options_recorded);
  EXPECT_EQ(serial.counters.pareto_inserts, parallel.counters.pareto_inserts);
  EXPECT_EQ(serial.counters.pareto_evictions,
            parallel.counters.pareto_evictions);
  EXPECT_EQ(serial.counters.entries, parallel.counters.entries);
  EXPECT_GT(parallel.counters.shards, 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CatalogEquivalenceTest,
                         ::testing::Range<uint64_t>(1, 13));

// max_entries truncation is path-dependent, so the enumerator must ignore
// the pool and keep the serial truncation point.
TEST(CatalogEquivalenceEdgeTest, TruncatedRunStaysSerial) {
  const Instance inst = RandomInstance(99, 14, 2);
  VdpsConfig config;
  config.max_set_size = 3;
  config.max_entries = 6;
  const GenerationResult serial = GenerateCVdpsSequences(inst, config);
  ThreadPool pool(4);
  const GenerationResult parallel =
      GenerateCVdpsSequences(inst, config, &pool);
  ExpectEntriesIdentical(serial.entries, parallel.entries,
                         "truncated serial vs pool");
  EXPECT_TRUE(parallel.truncated);
  EXPECT_EQ(parallel.counters.shards, 1u);
}

// An externally injected pool (VdpsConfig::pool — what the replay benches
// and the assignment server's callers use to amortize thread spawn) must
// produce the same catalog as an owned pool at the same width, a 1-thread
// injected pool must take the serial path, and the stored config must not
// retain the caller's pointer past Generate().
TEST(CatalogEquivalenceEdgeTest, InjectedPoolMatchesOwnedPool) {
  const Instance inst = RandomInstance(11);
  VdpsConfig config;
  config.epsilon = 2.5;
  config.max_set_size = 3;
  const VdpsCatalog serial = VdpsCatalog::Generate(inst, config);

  ThreadPool pool(4);
  VdpsConfig injected = config;
  injected.pool = &pool;
  const VdpsCatalog shared = VdpsCatalog::Generate(inst, injected);
  ExpectCatalogsIdentical(serial, shared, "serial vs injected 4-thread pool");
  EXPECT_EQ(shared.config().pool, nullptr)
      << "Generate() must scrub the injected pool from the stored config";

  VdpsConfig owned = config;
  owned.num_threads = 4;
  const VdpsCatalog spawned = VdpsCatalog::Generate(inst, owned);
  ExpectCatalogsIdentical(spawned, shared, "owned pool vs injected pool");

  ThreadPool single(1);
  VdpsConfig one = config;
  one.pool = &single;
  const VdpsCatalog serial_injected = VdpsCatalog::Generate(inst, one);
  ExpectCatalogsIdentical(serial, serial_injected,
                          "serial vs injected 1-thread pool");
}

// ---------------------------------------------------------------------------
// Materialization oracle.

/// One strategy as the reference builds it, with its own route copy.
struct RefStrategy {
  uint32_t entry_id = 0;
  Route route;
  double total_time = 0.0;
  double total_reward = 0.0;
  double payoff = 0.0;
};

struct Reference {
  std::vector<std::vector<RefStrategy>> strategies;
  std::vector<std::vector<StrategyRef>> touching;
};

/// The definition of VDPS(w), written the slow way: every (worker, entry)
/// pair through BestOptionFor, a route copy, a full sort by (payoff desc,
/// entry asc), and an inverted index appended in (worker, strategy) order.
Reference MaterializeReference(const Instance& inst,
                               const std::vector<CVdpsEntry>& entries) {
  Reference ref;
  ref.strategies.resize(inst.num_workers());
  for (size_t w = 0; w < inst.num_workers(); ++w) {
    const double offset = inst.WorkerToCenterTime(w);
    for (uint32_t e = 0; e < entries.size(); ++e) {
      if (entries[e].dps.size() > inst.worker(w).max_delivery_points) {
        continue;
      }
      const SequenceOption* opt = entries[e].BestOptionFor(offset);
      if (opt == nullptr) continue;
      RefStrategy st;
      st.entry_id = e;
      st.route = opt->route;
      st.total_time = offset + opt->center_time;
      st.total_reward = entries[e].total_reward;
      st.payoff = st.total_reward /
                  std::max(st.total_time, vdps_internal::kMinTravelTime);
      ref.strategies[w].push_back(st);
    }
    std::sort(ref.strategies[w].begin(), ref.strategies[w].end(),
              [](const RefStrategy& a, const RefStrategy& b) {
                if (a.payoff != b.payoff) return a.payoff > b.payoff;
                return a.entry_id < b.entry_id;
              });
  }
  ref.touching.resize(inst.num_delivery_points());
  for (uint32_t w = 0; w < ref.strategies.size(); ++w) {
    for (size_t i = 0; i < ref.strategies[w].size(); ++i) {
      for (uint32_t dp : entries[ref.strategies[w][i].entry_id].dps) {
        ref.touching[dp].push_back(StrategyRef{w, static_cast<int32_t>(i)});
      }
    }
  }
  return ref;
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

/// Bit-for-bit agreement of the catalog's strategy layer with the oracle.
void ExpectMatchesReference(const VdpsCatalog& catalog, const Instance& inst,
                            const std::string& what) {
  const Reference ref = MaterializeReference(inst, catalog.entries());
  ASSERT_EQ(catalog.num_workers(), ref.strategies.size()) << what;
  for (size_t w = 0; w < ref.strategies.size(); ++w) {
    SCOPED_TRACE(what + ", worker " + std::to_string(w));
    const auto& got = catalog.strategies(w);
    const auto& want = ref.strategies[w];
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].entry_id, want[i].entry_id) << "slot " << i;
      EXPECT_EQ(catalog.route(w, i), want[i].route) << "slot " << i;
      EXPECT_EQ(Bits(got[i].total_time), Bits(want[i].total_time));
      EXPECT_EQ(Bits(got[i].total_reward), Bits(want[i].total_reward));
      EXPECT_EQ(Bits(got[i].payoff), Bits(want[i].payoff));
      EXPECT_EQ(Bits(catalog.strategy_payoffs(w)[i]), Bits(want[i].payoff));
    }
  }
  ASSERT_EQ(catalog.num_indexed_delivery_points(), ref.touching.size())
      << what;
  for (uint32_t dp = 0; dp < ref.touching.size(); ++dp) {
    SCOPED_TRACE(what + ", dp " + std::to_string(dp));
    const auto got = catalog.strategies_touching(dp);
    ASSERT_EQ(got.size(), ref.touching[dp].size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].worker, ref.touching[dp][i].worker);
      EXPECT_EQ(got[i].strategy, ref.touching[dp][i].strategy);
    }
  }
}

/// A delivery point before indexing: its tasks' delivery_point fields are
/// filled in when an instance is built, so specs can be removed and
/// appended freely between delta steps.
struct DpSpec {
  Point location;
  std::vector<double> expiries;
  double reward = 1.0;
};

Instance BuildInstance(const Point& center, const std::vector<DpSpec>& specs,
                       const std::vector<Worker>& workers, double speed) {
  std::vector<DeliveryPoint> dps;
  for (uint32_t d = 0; d < specs.size(); ++d) {
    std::vector<SpatialTask> tasks;
    for (double e : specs[d].expiries) {
      tasks.push_back(SpatialTask{d, e, specs[d].reward});
    }
    dps.emplace_back(specs[d].location, std::move(tasks));
  }
  return Instance(center, std::move(dps), workers, TravelModel(speed));
}

DpSpec RandomDp(Rng& rng, double area) {
  DpSpec spec;
  spec.location = Point{rng.Uniform(0, area), rng.Uniform(0, area)};
  const size_t n = 1 + rng.Index(2);
  for (size_t t = 0; t < n; ++t) spec.expiries.push_back(rng.Uniform(1.5, 5.0));
  spec.reward = static_cast<double>(1 + rng.Index(3));
  return spec;
}

Worker RandomWorker(Rng& rng, double area) {
  return Worker{{rng.Uniform(0, area), rng.Uniform(0, area)},
                static_cast<uint32_t>(1 + rng.Index(4))};
}

/// Hand-built instance for the walk's edge cases (center at the origin,
/// speed 1, so a worker at (x, 0) has center offset exactly x):
///  - dp0 sits on the center and w0 on dp0, so {dp0} has total time 0 and
///    its payoff takes the kMinTravelTime floor;
///  - {dp1} and {dp2} share reward, distance and deadline, so every worker
///    admitting them sees equal payoffs and the lower entry id must win;
///  - both have slack exactly 2, and w1 stands at offset 2 + kEps exactly
///    (admitted: BestOptionFor's predicate is strict) while w2 stands one
///    ulp further out (rejected);
///  - maxDP differs between workers (1, 2, 3).
class EdgeInstance {
 public:
  EdgeInstance() {
    boundary_ = 2.0 + kEps;
    specs_ = {
        {Point{0.0, 0.0}, {1.0}, 1.0},   // dp0: on the center, slack 1
        {Point{1.0, 0.0}, {3.0}, 1.0},   // dp1: slack 2
        {Point{0.0, 1.0}, {3.0}, 1.0},   // dp2: dp1's twin
        {Point{2.0, 0.0}, {6.0}, 2.0},   // dp3
        {Point{-1.5, 0.0}, {5.0}, 1.5},  // dp4
        {Point{0.0, -2.0}, {4.0}, 1.0},  // dp5
    };
    workers_ = {
        Worker{{0.0, 0.0}, 3},
        Worker{{boundary_, 0.0}, 2},
        Worker{{std::nextafter(boundary_, kInfinity), 0.0}, 3},
        Worker{{0.5, 0.5}, 1},
        Worker{{-0.25, 0.75}, 2},
    };
  }
  Instance Build() const {
    return BuildInstance(Point{0.0, 0.0}, specs_, workers_, 1.0);
  }
  double boundary() const { return boundary_; }
  const std::vector<DpSpec>& specs() const { return specs_; }
  const std::vector<Worker>& workers() const { return workers_; }

 private:
  double boundary_;
  std::vector<DpSpec> specs_;
  std::vector<Worker> workers_;
};

TEST(MaterializationOracleTest, EdgeCasesMatchReference) {
  const Instance inst = EdgeInstance().Build();
  const double boundary = EdgeInstance().boundary();
  VdpsConfig config;
  config.max_set_size = 3;
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, config);
  ExpectMatchesReference(catalog, inst, "edge instance");

  // The cases are really exercised, not vacuous.
  const uint32_t dp0 = 0, dp1 = 1, dp2 = 2;
  const int32_t e0 = catalog.FindEntry(std::span<const uint32_t>(&dp0, 1));
  const int32_t e1 = catalog.FindEntry(std::span<const uint32_t>(&dp1, 1));
  const int32_t e2 = catalog.FindEntry(std::span<const uint32_t>(&dp2, 1));
  ASSERT_GE(e0, 0);
  ASSERT_GE(e1, 0);
  ASSERT_GE(e2, 0);
  ASSERT_EQ(catalog.entry(static_cast<size_t>(e1)).options.back().slack, 2.0);
  ASSERT_EQ(inst.WorkerToCenterTime(1), boundary);
  ASSERT_GT(inst.WorkerToCenterTime(2), boundary);
  // Zero travel time: w0's {dp0} strategy sits on the kMinTravelTime floor.
  const int32_t zero = catalog.FindStrategy(0, static_cast<uint32_t>(e0));
  ASSERT_GE(zero, 0);
  const WorkerStrategy& z = catalog.strategies(0)[static_cast<size_t>(zero)];
  EXPECT_EQ(z.total_time, 0.0);
  EXPECT_EQ(z.payoff, z.total_reward / vdps_internal::kMinTravelTime);
  // Boundary: admitted at exactly slack + kEps, rejected one ulp beyond.
  const int32_t at1 = catalog.FindStrategy(1, static_cast<uint32_t>(e1));
  const int32_t at2 = catalog.FindStrategy(1, static_cast<uint32_t>(e2));
  EXPECT_GE(at1, 0);
  EXPECT_GE(at2, 0);
  EXPECT_EQ(catalog.FindStrategy(2, static_cast<uint32_t>(e1)), -1);
  EXPECT_EQ(catalog.FindStrategy(2, static_cast<uint32_t>(e2)), -1);
  // Equal payoffs: the lower entry id comes first.
  ASSERT_LT(e1, e2);
  EXPECT_EQ(catalog.strategies(1)[static_cast<size_t>(at1)].payoff,
            catalog.strategies(1)[static_cast<size_t>(at2)].payoff);
  EXPECT_EQ(at2, at1 + 1);
  // maxDP 1 keeps only singletons.
  for (const WorkerStrategy& st : catalog.strategies(3)) {
    EXPECT_EQ(catalog.entry(st.entry_id).dps.size(), 1u);
  }
}

// Random instances with maxDP drawn per worker, at every thread count the
// fan-out can take, and along an ApplyDelta chain that removes and adds
// workers and delivery points: each catalog equals the oracle and a fresh
// Generate of the same instance.
TEST(MaterializationOracleTest, GenerateAndDeltaChainMatchReference) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 7919);
    const double area = 8.0;
    const Point center{area / 2, area / 2};
    std::vector<DpSpec> specs;
    for (int i = 0; i < 12; ++i) specs.push_back(RandomDp(rng, area));
    std::vector<Worker> workers;
    for (int i = 0; i < 6; ++i) workers.push_back(RandomWorker(rng, area));
    VdpsConfig config;
    config.epsilon = seed % 2 == 0 ? kInfinity : 3.0;
    config.max_set_size = 3;

    Instance inst = BuildInstance(center, specs, workers, 5.0);
    VdpsCatalog catalog = VdpsCatalog::Generate(inst, config);
    ExpectMatchesReference(catalog, inst, "generate");
    for (const size_t threads : {2u, 4u}) {
      VdpsConfig parallel = config;
      parallel.num_threads = threads;
      ExpectMatchesReference(VdpsCatalog::Generate(inst, parallel), inst,
                             std::to_string(threads) + " threads");
    }

    for (int step = 0; step < 4; ++step) {
      SCOPED_TRACE("delta step " + std::to_string(step));
      CatalogDeltaPlan plan;
      for (uint32_t w = 0; w < workers.size(); ++w) {
        if (rng.Index(4) == 0) plan.removed_workers.push_back(w);
      }
      for (uint32_t d = 0; d < specs.size(); ++d) {
        if (rng.Index(5) == 0) plan.removed_dps.push_back(d);
      }
      plan.added_workers = rng.Index(3);
      plan.added_dps = rng.Index(3);
      std::vector<Worker> next_workers;
      for (uint32_t w = 0; w < workers.size(); ++w) {
        if (!std::binary_search(plan.removed_workers.begin(),
                                plan.removed_workers.end(), w)) {
          next_workers.push_back(workers[w]);
        }
      }
      for (size_t k = 0; k < plan.added_workers; ++k) {
        next_workers.push_back(RandomWorker(rng, area));
      }
      std::vector<DpSpec> next_specs;
      for (uint32_t d = 0; d < specs.size(); ++d) {
        if (!std::binary_search(plan.removed_dps.begin(),
                                plan.removed_dps.end(), d)) {
          next_specs.push_back(specs[d]);
        }
      }
      for (size_t k = 0; k < plan.added_dps; ++k) {
        next_specs.push_back(RandomDp(rng, area));
      }
      workers = std::move(next_workers);
      specs = std::move(next_specs);
      inst = BuildInstance(center, specs, workers, 5.0);
      ASSERT_TRUE(catalog.ApplyDelta(inst, plan).ok());
      ExpectMatchesReference(catalog, inst, "delta");
      ExpectCatalogsIdentical(catalog, VdpsCatalog::Generate(inst, config),
                              "delta vs generate");
    }
  }
}

// The edge instance again, reached through deltas: its workers arrive by
// ApplyDelta (so the added-worker path walks the same prefix), then the
// tie twin dp2 leaves and returns at the tail.
TEST(MaterializationOracleTest, EdgeCasesThroughDeltas) {
  const EdgeInstance edge;
  const Point origin{0.0, 0.0};
  VdpsConfig config;
  config.max_set_size = 3;
  VdpsCatalog catalog = VdpsCatalog::Generate(
      BuildInstance(origin, edge.specs(), {}, 1.0), config);

  CatalogDeltaPlan add;
  add.added_workers = edge.workers().size();
  const Instance full = edge.Build();
  ASSERT_TRUE(catalog.ApplyDelta(full, add).ok());
  ExpectMatchesReference(catalog, full, "workers added");
  ExpectCatalogsIdentical(catalog, VdpsCatalog::Generate(full, config),
                          "workers added vs generate");

  std::vector<DpSpec> specs = edge.specs();
  const DpSpec twin = specs[2];
  specs.erase(specs.begin() + 2);
  CatalogDeltaPlan drop;
  drop.removed_dps = {2};
  const Instance without = BuildInstance(origin, specs, edge.workers(), 1.0);
  ASSERT_TRUE(catalog.ApplyDelta(without, drop).ok());
  ExpectMatchesReference(catalog, without, "twin removed");

  specs.push_back(twin);
  CatalogDeltaPlan back;
  back.added_dps = 1;
  const Instance again = BuildInstance(origin, specs, edge.workers(), 1.0);
  ASSERT_TRUE(catalog.ApplyDelta(again, back).ok());
  ExpectMatchesReference(catalog, again, "twin re-added");
  ExpectCatalogsIdentical(catalog, VdpsCatalog::Generate(again, config),
                          "twin re-added vs generate");
}

// Thread counts beyond the root count (more shards than work) must not
// disturb anything either.
TEST(CatalogEquivalenceEdgeTest, MoreThreadsThanRoots) {
  const Instance inst = RandomInstance(7, 3, 2);
  VdpsConfig config;
  config.max_set_size = 3;
  const VdpsCatalog serial = VdpsCatalog::Generate(inst, config);
  VdpsConfig wide = config;
  wide.num_threads = 16;
  const VdpsCatalog parallel = VdpsCatalog::Generate(inst, wide);
  ExpectCatalogsIdentical(serial, parallel, "3 roots vs 16 threads");
}

}  // namespace
}  // namespace fta
