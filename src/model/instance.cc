#include "model/instance.h"

#include <cmath>

#include "util/string_util.h"

namespace fta {

size_t Instance::num_tasks() const {
  size_t n = 0;
  for (const DeliveryPoint& dp : delivery_points_) n += dp.task_count();
  return n;
}

double Instance::total_reward() const {
  double r = 0.0;
  for (const DeliveryPoint& dp : delivery_points_) r += dp.total_reward();
  return r;
}

std::vector<Point> Instance::DeliveryPointLocations() const {
  std::vector<Point> locs;
  locs.reserve(delivery_points_.size());
  for (const DeliveryPoint& dp : delivery_points_) locs.push_back(dp.location());
  return locs;
}

Status Instance::Validate() const {
  // Non-finite coordinates or rewards would reach catalog payoffs, and a
  // NaN payoff breaks the strict weak ordering the strategy sort and the
  // best-response walk rely on.
  if (!IsFinite(center_)) {
    return Status::InvalidArgument("center has a non-finite coordinate");
  }
  for (size_t i = 0; i < delivery_points_.size(); ++i) {
    const DeliveryPoint& dp = delivery_points_[i];
    if (!IsFinite(dp.location())) {
      return Status::InvalidArgument(StrFormat(
          "delivery point %zu has a non-finite coordinate", i));
    }
    for (const SpatialTask& t : dp.tasks()) {
      if (t.delivery_point != i) {
        return Status::InvalidArgument(StrFormat(
            "task at delivery point %zu claims destination %u", i,
            t.delivery_point));
      }
      if (!(t.expiry > 0.0) || std::isinf(t.expiry) || std::isnan(t.expiry)) {
        return Status::InvalidArgument(StrFormat(
            "task at delivery point %zu has invalid expiry %f", i, t.expiry));
      }
      if (!(t.reward >= 0.0) || std::isinf(t.reward)) {
        return Status::InvalidArgument(StrFormat(
            "task at delivery point %zu has invalid reward %f", i, t.reward));
      }
    }
  }
  for (size_t i = 0; i < workers_.size(); ++i) {
    if (workers_[i].max_delivery_points == 0) {
      return Status::InvalidArgument(
          StrFormat("worker %zu has maxDP == 0", i));
    }
    if (!IsFinite(workers_[i].location)) {
      return Status::InvalidArgument(
          StrFormat("worker %zu has a non-finite location", i));
    }
  }
  return Status::Ok();
}

size_t MultiCenterInstance::num_workers() const {
  size_t n = 0;
  for (const Instance& c : centers) n += c.num_workers();
  return n;
}

size_t MultiCenterInstance::num_tasks() const {
  size_t n = 0;
  for (const Instance& c : centers) n += c.num_tasks();
  return n;
}

size_t MultiCenterInstance::num_delivery_points() const {
  size_t n = 0;
  for (const Instance& c : centers) n += c.num_delivery_points();
  return n;
}

}  // namespace fta
