#ifndef FTA_GEO_POINT_H_
#define FTA_GEO_POINT_H_

#include <cmath>
#include <ostream>

namespace fta {

/// A 2D location. The paper's instances live in planar coordinates
/// (kilometers for SYN); distances are Euclidean.
struct Point {
  double x = 0.0;
  double y = 0.0;

  friend bool operator==(const Point& a, const Point& b) {
    return a.x == b.x && a.y == b.y;
  }
  friend bool operator!=(const Point& a, const Point& b) { return !(a == b); }
};

inline std::ostream& operator<<(std::ostream& os, const Point& p) {
  return os << "(" << p.x << ", " << p.y << ")";
}

/// True when both coordinates are finite (neither NaN nor infinite).
inline bool IsFinite(const Point& p) {
  return std::isfinite(p.x) && std::isfinite(p.y);
}

/// Squared Euclidean distance (cheap; use for comparisons).
inline double SquaredDistance(const Point& a, const Point& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return dx * dx + dy * dy;
}

/// Euclidean distance between two locations.
inline double Distance(const Point& a, const Point& b) {
  return std::sqrt(SquaredDistance(a, b));
}

}  // namespace fta

#endif  // FTA_GEO_POINT_H_
