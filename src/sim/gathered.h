// Def. 9 GATHERED: the one termination predicate shared by the ATOM engine,
// the ASYNC engine and the model checker (src/check/explorer.cpp).
//
// A run is gathered when every counted robot, once snapped, lies within
// tolerance of the lowest-index counted robot's snapped location, no counted
// robot is refuted for an engine-specific reason, and the algorithm
// instructs robots at that location to stay.  The ATOM engine counts live
// robots that are not byzantine; the ASYNC engine counts live robots and
// refutes one that is armed with a target elsewhere; the checker counts live
// robots.
//
// The predicate is a pure conjunction over robots, so the check remembers
// the robot that refuted it last and tests that robot first.  While it still
// refutes, a check costs two snaps; otherwise the others are scanned,
// cyclically from it, and the new refuter is remembered.  The algorithm's
// destination is asked exactly when every robot passes, as in a plain scan.
#pragma once

#include <cstddef>
#include <vector>

#include "config/configuration.h"
#include "core/algorithm.h"
#include "geometry/vec2.h"

namespace gather::sim {

class gathered_check {
 public:
  /// Evaluate Def. 9 on `c` (the configuration `positions` were last
  /// canonicalized into).  `counted(i)`: robot i must be gathered.
  /// `refuted(i, p)`: counted robot i, snapped at p, refutes gathering for a
  /// reason other than its location.
  template <class Counted, class Refuted>
  [[nodiscard]] bool operator()(const config::configuration& c,
                                const std::vector<geom::vec2>& positions,
                                Counted counted, Refuted refuted,
                                const core::gathering_algorithm& algo) {
    const std::size_t n = positions.size();
    std::size_t first = 0;
    while (first < n && !counted(first)) ++first;
    if (first >= n) return false;  // no counted robot
    const geom::vec2 point = c.snapped(positions[first]);
    const auto refutes = [&](std::size_t i) {
      if (!counted(i)) return false;
      const geom::vec2 p = c.snapped(positions[i]);
      return (i != first && !c.tolerance().same_point(point, p)) ||
             refuted(i, p);
    };
    if (witness_ >= n) witness_ = first;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = witness_ + k < n ? witness_ + k : witness_ + k - n;
      if (refutes(i)) {
        witness_ = i;
        return false;
      }
    }
    return c.tolerance().same_point(algo.destination({c, point}), point);
  }

 private:
  std::size_t witness_ = 0;  // the robot that refuted the last evaluation
};

}  // namespace gather::sim
