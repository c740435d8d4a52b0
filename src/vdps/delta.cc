// Incremental catalog maintenance: VdpsCatalog::ApplyDelta patches a
// generated catalog to a churned instance instead of regenerating it.
//
// The bit-identity argument (pinned by tests/stream_identity_test.cc):
//
//   * A C-VDPS over a set S is intrinsic to S — its feasibility, its
//     sequence set, and every retained (center_time, slack) pair depend
//     only on S's members, the center, and the travel model. Removing
//     other delivery points can therefore never change a surviving entry;
//     removal is a pure filter.
//
//   * Survivor ids renumber through a strictly increasing map (old order
//     preserved, holes closed), which preserves every sorted structure in
//     the catalog: entry.dps stay ascending, the (size asc, lex asc) entry
//     order is untouched, and each worker's (payoff desc, entry asc)
//     strategy order survives because payoffs are unchanged and entry ids
//     remap monotonically.
//
//   * Every C-VDPS containing an added delivery point is realized by a
//     deadline-feasible sequence, i.e. a path in the ε-adjacency graph, so
//     all of its members lie within max_set_size - 1 hops of the added
//     point. Enumerating the BFS ball around the additions as a restricted
//     sub-instance (sorted members, strictly increasing local id map)
//     replays the exact serial DFS the full generator would run for those
//     sets: same roots in the same relative order, same ascending
//     adjacency-row extensions, same float arithmetic on the same point
//     pairs, hence the same raw-option order into the same Pareto
//     selection.
//
//   * Sorted merges under the shared total orders (EntryOrder,
//     StrategyOrder — see catalog_internal.h) equal a full re-sort, so the
//     merged catalog is byte-for-byte the one Generate(new_instance,
//     config()) builds.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "geo/grid_index.h"
#include "geo/point.h"
#include "model/instance.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "vdps/catalog.h"
#include "vdps/catalog_internal.h"
#include "vdps/generators.h"

namespace fta {
namespace {

/// Sentinel new-id for a removed element in an old → new id map.
constexpr uint32_t kRemovedId = 0xffffffffu;

/// Mirrors a finished delta application into the process-wide metrics
/// registry (counter adds only; wall time to a histogram).
void PublishDelta(const DeltaCounters& d) {
  auto& reg = obs::MetricsRegistry::Global();
  static obs::Counter& deltas = reg.GetCounter("vdps/deltas_applied");
  static obs::Counter& entries_removed =
      reg.GetCounter("vdps/delta_entries_removed");
  static obs::Counter& entries_added =
      reg.GetCounter("vdps/delta_entries_added");
  static obs::Counter& neighborhood =
      reg.GetCounter("vdps/delta_neighborhood_dps");
  static obs::Histogram& wall = reg.GetHistogram(
      "vdps/delta_wall_ms", obs::ExponentialBounds(0.25, 4.0, 8));
  deltas.Increment();
  entries_removed.Add(d.entries_removed);
  entries_added.Add(d.entries_added);
  neighborhood.Add(d.neighborhood_dps);
  wall.Observe(d.wall_ms);
}

/// Old → new id map for a removal list (strictly ascending old indices):
/// survivors keep their relative order and close the holes; removed slots
/// map to kRemovedId.
std::vector<uint32_t> BuildIdMap(size_t old_count,
                                 const std::vector<uint32_t>& removed) {
  std::vector<uint32_t> map(old_count);
  size_t r = 0;
  uint32_t next = 0;
  for (size_t old = 0; old < old_count; ++old) {
    if (r < removed.size() && removed[r] == old) {
      map[old] = kRemovedId;
      ++r;
    } else {
      map[old] = next++;
    }
  }
  return map;
}

Status CheckRemovalList(const std::vector<uint32_t>& removed, size_t count,
                        const char* what) {
  for (size_t i = 0; i < removed.size(); ++i) {
    if (removed[i] >= count) {
      return Status::InvalidArgument(StrFormat(
          "removed %s index %u out of range (count %zu)", what, removed[i],
          count));
    }
    if (i > 0 && removed[i - 1] >= removed[i]) {
      return Status::InvalidArgument(
          StrFormat("removed %s indices not strictly ascending", what));
    }
  }
  return Status::Ok();
}

/// Remaps a sorted-or-route id sequence in place through `map`. Every id
/// must survive (checked by the caller via the intersection test).
void RemapIds(std::vector<uint32_t>& ids, const std::vector<uint32_t>& map) {
  for (uint32_t& id : ids) id = map[id];
}

bool AnyRemoved(const std::vector<uint32_t>& ids,
                const std::vector<uint32_t>& map) {
  for (uint32_t id : ids) {
    if (map[id] == kRemovedId) return true;
  }
  return false;
}

}  // namespace

void DeltaCounters::Merge(const DeltaCounters& o) {
  deltas_applied += o.deltas_applied;
  workers_removed += o.workers_removed;
  workers_added += o.workers_added;
  dps_removed += o.dps_removed;
  dps_added += o.dps_added;
  entries_removed += o.entries_removed;
  entries_added += o.entries_added;
  strategies_removed += o.strategies_removed;
  strategies_added += o.strategies_added;
  neighborhood_dps += o.neighborhood_dps;
  subenum_states += o.subenum_states;
  adjacency_ms += o.adjacency_ms;
  enumerate_ms += o.enumerate_ms;
  strategies_ms += o.strategies_ms;
  index_ms += o.index_ms;
  wall_ms += o.wall_ms;
}

Status VdpsCatalog::ApplyDelta(const Instance& new_instance,
                               const CatalogDeltaPlan& plan,
                               DeltaCounters* counters) {
  FTA_SPAN("vdps/apply_delta");
  Stopwatch wall;

  // ---- Gates: every check precedes the first mutation, so an error
  // leaves the catalog exactly as it was. ----
  if (config_.beam_width > 0) {
    return Status::FailedPrecondition(
        "ApplyDelta does not support beam-search catalogs: the beam's "
        "global top-k survivor selection is not locally patchable");
  }
  if (truncated_ || config_.max_entries > 0) {
    return Status::FailedPrecondition(
        "ApplyDelta does not support truncated/max_entries catalogs: the "
        "truncation point is enumeration-path-dependent");
  }
  const size_t old_workers = strategies_.size();
  const size_t old_dps = num_indexed_delivery_points();
  if (!std::isinf(config_.epsilon) && old_dps > 0 &&
      adjacency_.num_points() != old_dps) {
    return Status::FailedPrecondition(
        "catalog has no ε-adjacency to patch; was it built by Generate()?");
  }
  if (Status s = CheckRemovalList(plan.removed_workers, old_workers, "worker");
      !s.ok()) {
    return s;
  }
  if (Status s = CheckRemovalList(plan.removed_dps, old_dps, "delivery point");
      !s.ok()) {
    return s;
  }
  const size_t surviving_workers = old_workers - plan.removed_workers.size();
  const size_t surviving_dps = old_dps - plan.removed_dps.size();
  if (new_instance.num_workers() != surviving_workers + plan.added_workers) {
    return Status::InvalidArgument(StrFormat(
        "plan implies %zu workers, new instance has %zu",
        surviving_workers + plan.added_workers, new_instance.num_workers()));
  }
  if (new_instance.num_delivery_points() != surviving_dps + plan.added_dps) {
    return Status::InvalidArgument(
        StrFormat("plan implies %zu delivery points, new instance has %zu",
                  surviving_dps + plan.added_dps,
                  new_instance.num_delivery_points()));
  }

  const std::vector<uint32_t> dp_map = BuildIdMap(old_dps, plan.removed_dps);
  const std::vector<uint32_t> worker_map =
      BuildIdMap(old_workers, plan.removed_workers);

  DeltaCounters scratch;
  DeltaCounters& d = counters != nullptr ? *counters : scratch;
  d = DeltaCounters{};
  d.deltas_applied = 1;
  d.workers_removed = plan.removed_workers.size();
  d.workers_added = plan.added_workers;
  d.dps_removed = plan.removed_dps.size();
  d.dps_added = plan.added_dps;
  uint64_t old_strategies = 0;
  for (const auto& sts : strategies_) old_strategies += sts.size();

  // ---- 1. Entry filter + renumber: drop every entry touching a removed
  // delivery point, remap survivor ids (strictly increasing map, so the
  // (size asc, lex asc) entry order is preserved without re-sorting). ----
  std::vector<uint32_t> entry_map(entries_.size(), kRemovedId);
  {
    size_t out = 0;
    for (size_t e = 0; e < entries_.size(); ++e) {
      if (AnyRemoved(entries_[e].dps, dp_map)) continue;
      entry_map[e] = static_cast<uint32_t>(out);
      if (out != e) entries_[out] = std::move(entries_[e]);
      if (!plan.removed_dps.empty()) {
        RemapIds(entries_[out].dps, dp_map);
        for (SequenceOption& opt : entries_[out].options) {
          RemapIds(opt.route, dp_map);
        }
      }
      ++out;
    }
    d.entries_removed = entries_.size() - out;
    entries_.resize(out);
  }

  // ---- 2. Worker removal + strategy filter under the entry renumber.
  // Payoffs are untouched and entry ids remap monotonically, so each
  // surviving list stays sorted by (payoff desc, entry asc). Option
  // indices (and the option routes remapped in step 1) are untouched. ----
  {
    size_t out = 0;
    for (size_t w = 0; w < strategies_.size(); ++w) {
      if (worker_map[w] == kRemovedId) continue;
      if (out != w) strategies_[out] = std::move(strategies_[w]);
      std::vector<WorkerStrategy>& sts = strategies_[out];
      size_t kept = 0;
      for (size_t i = 0; i < sts.size(); ++i) {
        if (entry_map[sts[i].entry_id] == kRemovedId) continue;
        if (kept != i) sts[kept] = std::move(sts[i]);
        sts[kept].entry_id = entry_map[sts[kept].entry_id];
        ++kept;
      }
      sts.resize(kept);
      ++out;
    }
    strategies_.resize(out);
  }
  uint64_t kept_strategies = 0;
  for (const auto& sts : strategies_) kept_strategies += sts.size();
  d.strategies_removed = old_strategies - kept_strategies;

  // ---- 3. ε-adjacency CSR patch: filter + renumber survivor rows, splice
  // the additions in (added ids are all larger than survivor ids, so they
  // append at row tails in ascending order), brute-force rows for the
  // added points with GridIndex::RadiusQuery's exact predicate. ----
  const size_t new_dps = new_instance.num_delivery_points();
  const bool pruned = !std::isinf(config_.epsilon);
  if (pruned) {
    Stopwatch adj_sw;
    FTA_SPAN("vdps/delta_adjacency");
    const std::vector<Point> points = new_instance.DeliveryPointLocations();
    const double r2 = config_.epsilon * config_.epsilon;
    // added_rows[k]: full neighbor row of added dp (surviving_dps + k).
    std::vector<std::vector<uint32_t>> added_rows(plan.added_dps);
    for (size_t k = 0; k < plan.added_dps; ++k) {
      const Point& center = points[surviving_dps + k];
      for (uint32_t q = 0; q < new_dps; ++q) {
        if (SquaredDistance(points[q], center) <= r2) {
          added_rows[k].push_back(q);
        }
      }
    }
    RadiusAdjacency next;
    next.offsets.reserve(new_dps + 1);
    next.offsets.push_back(0);
    next.neighbors.reserve(adjacency_.neighbors.size() +
                           2 * plan.added_dps * 8);
    for (size_t old = 0; old < old_dps; ++old) {
      if (dp_map[old] == kRemovedId) continue;
      for (const uint32_t* p = adjacency_.begin(static_cast<uint32_t>(old));
           p != adjacency_.end(static_cast<uint32_t>(old)); ++p) {
        if (dp_map[*p] != kRemovedId) next.neighbors.push_back(dp_map[*p]);
      }
      // Reverse edges into this survivor's row from each added point, in
      // ascending added id order (symmetric predicate: the squared
      // distance folds (a-b) vs (b-a), whose squares are identical).
      const uint32_t me = dp_map[old];
      for (size_t k = 0; k < plan.added_dps; ++k) {
        if (std::binary_search(added_rows[k].begin(), added_rows[k].end(),
                               me)) {
          next.neighbors.push_back(static_cast<uint32_t>(surviving_dps + k));
        }
      }
      next.offsets.push_back(static_cast<uint32_t>(next.neighbors.size()));
    }
    for (size_t k = 0; k < plan.added_dps; ++k) {
      next.neighbors.insert(next.neighbors.end(), added_rows[k].begin(),
                            added_rows[k].end());
      next.offsets.push_back(static_cast<uint32_t>(next.neighbors.size()));
    }
    adjacency_ = std::move(next);
    d.adjacency_ms = adj_sw.ElapsedMillis();
  } else {
    adjacency_ = RadiusAdjacency{};
  }

  // ---- 4. Neighborhood sub-enumeration for the added delivery points:
  // every new C-VDPS holds at least one added point, and all of its
  // members lie within cap - 1 ε-hops of one, so enumerating the BFS ball
  // as a restricted sub-instance finds each exactly once. ----
  std::vector<CVdpsEntry> fresh;
  if (plan.added_dps > 0) {
    Stopwatch enum_sw;
    FTA_SPAN("vdps/delta_enumerate");
    const uint32_t cap =
        config_.max_set_size == 0
            ? static_cast<uint32_t>(new_dps)
            : std::min(config_.max_set_size, static_cast<uint32_t>(new_dps));
    std::vector<uint32_t> hood;  // new ids, built sorted below
    if (pruned) {
      std::vector<uint8_t> seen(new_dps, 0);
      std::vector<uint32_t> frontier;
      for (size_t k = 0; k < plan.added_dps; ++k) {
        const uint32_t id = static_cast<uint32_t>(surviving_dps + k);
        seen[id] = 1;
        frontier.push_back(id);
      }
      for (uint32_t depth = 1; depth < cap && !frontier.empty(); ++depth) {
        std::vector<uint32_t> next_frontier;
        for (uint32_t v : frontier) {
          for (const uint32_t* p = adjacency_.begin(v);
               p != adjacency_.end(v); ++p) {
            if (!seen[*p]) {
              seen[*p] = 1;
              next_frontier.push_back(*p);
            }
          }
        }
        frontier = std::move(next_frontier);
      }
      for (uint32_t id = 0; id < new_dps; ++id) {
        if (seen[id]) hood.push_back(id);
      }
    } else {
      hood.resize(new_dps);
      for (uint32_t id = 0; id < new_dps; ++id) hood[id] = id;
    }
    d.neighborhood_dps = hood.size();

    // Restricted sub-instance over the (sorted) neighborhood: the local id
    // map is strictly increasing, so the serial DFS replays the full
    // generator's relative discovery order for every set inside the ball.
    std::vector<DeliveryPoint> sub_dps;
    sub_dps.reserve(hood.size());
    for (uint32_t id : hood) {
      sub_dps.push_back(new_instance.delivery_point(id));
    }
    const Instance sub_instance(new_instance.center(), std::move(sub_dps),
                                {}, new_instance.travel());
    VdpsConfig sub_config = config_;
    sub_config.num_threads = 1;  // deltas are small; keep the DFS serial
    GenerationResult sub =
        GenerateCVdpsSequences(sub_instance, sub_config, nullptr);
    d.subenum_states = sub.counters.states_expanded;

    fresh.reserve(sub.entries.size());
    for (CVdpsEntry& entry : sub.entries) {
      for (uint32_t& id : entry.dps) id = hood[id];
      // Keep only sets touching an added point (ids past the survivors);
      // the rest were feasible before the delta and already live in
      // entries_, byte-identically.
      if (entry.dps.back() < surviving_dps) continue;
      for (SequenceOption& opt : entry.options) {
        for (uint32_t& id : opt.route) id = hood[id];
      }
      fresh.push_back(std::move(entry));
    }
    d.entries_added = fresh.size();
    d.enumerate_ms = enum_sw.ElapsedMillis();
  }

  // ---- 5. Merge the fresh entries into the survivor list under the
  // shared EntryOrder (both inputs sorted; ids are disjoint because a
  // fresh set contains an added point no old set could). ----
  std::vector<uint32_t> final_of_survivor(entries_.size());
  std::vector<uint32_t> final_of_fresh(fresh.size());
  if (!fresh.empty()) {
    const vdps_internal::EntryOrder less;
    std::vector<CVdpsEntry> merged;
    merged.reserve(entries_.size() + fresh.size());
    size_t i = 0;
    size_t j = 0;
    while (i < entries_.size() || j < fresh.size()) {
      const bool take_old =
          j >= fresh.size() ||
          (i < entries_.size() && less(entries_[i], fresh[j]));
      if (take_old) {
        final_of_survivor[i] = static_cast<uint32_t>(merged.size());
        merged.push_back(std::move(entries_[i++]));
      } else {
        final_of_fresh[j] = static_cast<uint32_t>(merged.size());
        merged.push_back(std::move(fresh[j++]));
      }
    }
    entries_ = std::move(merged);
  } else {
    for (size_t i = 0; i < final_of_survivor.size(); ++i) {
      final_of_survivor[i] = static_cast<uint32_t>(i);
    }
  }

  // ---- 6. Strategy patch: remap surviving strategies to final entry ids
  // (monotone again), evaluate only the fresh entries for surviving
  // workers and merge per worker under the shared StrategyOrder — a strict
  // total order, so the merge equals Generate's full std::sort — and build
  // added workers with BuildWorkerStrategies, as Generate does. ----
  Stopwatch strat_sw;
  {
    FTA_SPAN("vdps/delta_strategies");
    std::vector<WorkerStrategy> additions;
    for (size_t w = 0; w < strategies_.size(); ++w) {
      std::vector<WorkerStrategy>& sts = strategies_[w];
      for (WorkerStrategy& st : sts) {
        st.entry_id = final_of_survivor[st.entry_id];
      }
      if (final_of_fresh.empty()) continue;
      const double offset = new_instance.WorkerToCenterTime(w);
      const uint32_t max_dp = new_instance.worker(w).max_delivery_points;
      additions.clear();
      WorkerStrategy st;
      for (uint32_t final_id : final_of_fresh) {
        if (vdps_internal::MakeStrategy(entries_[final_id], final_id, offset,
                                        max_dp, &st)) {
          additions.push_back(st);
        }
      }
      std::sort(additions.begin(), additions.end(),
                vdps_internal::StrategyOrder{});
      const size_t boundary = sts.size();
      sts.insert(sts.end(), additions.begin(), additions.end());
      std::inplace_merge(sts.begin(),
                         sts.begin() + static_cast<ptrdiff_t>(boundary),
                         sts.end(), vdps_internal::StrategyOrder{});
    }
    strategies_.resize(surviving_workers + plan.added_workers);
    if (plan.added_workers > 0) {
      const std::vector<vdps_internal::SlackKey> by_slack =
          vdps_internal::SlackOrder(entries_);
      for (size_t w = surviving_workers; w < strategies_.size(); ++w) {
        vdps_internal::BuildWorkerStrategies(
            entries_, by_slack, new_instance.WorkerToCenterTime(w),
            new_instance.worker(w).max_delivery_points, &strategies_[w]);
      }
    }
  }
  d.strategies_ms = strat_sw.ElapsedMillis();
  uint64_t total_strategies = 0;
  for (const auto& sts : strategies_) total_strategies += sts.size();
  d.strategies_added = total_strategies - kept_strategies;

  // ---- 7. Inverted index rebuild (RebuildIndex, shared with Generate),
  // over the patched strategy lists. Linear in the index size — cheap next
  // to enumeration. ----
  Stopwatch index_sw;
  RebuildIndex(new_dps);
  d.index_ms = index_sw.ElapsedMillis();

  RebuildStrategyPayoffs();

  // Phase-boundary contract, same as Generate: the patched catalog is
  // deep-checked before any solver sees it.
  FTA_DCHECK_OK(ValidateInvariants(new_instance));
  d.wall_ms = wall.ElapsedMillis();
  PublishDelta(d);
  return Status::Ok();
}

}  // namespace fta
