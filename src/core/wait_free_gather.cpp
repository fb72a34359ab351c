#include "core/wait_free_gather.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "config/safe_points.h"
#include "config/views.h"
#include "config/weber.h"
#include "geometry/angles.h"
#include "geometry/kernels.h"
#include "geometry/predicates.h"

namespace gather::core {

using config::occupied_point;

namespace {

/// Blocked robots side-step clockwise onto a fresh ray at preserved distance
/// (the isosceles move of Fig. 2, lines 7-12).
vec2 side_step(const configuration& c, vec2 self, vec2 elected) {
  return geom::rotated_cw_about(
      self, elected, wait_free_gather::side_step_angle(c, self, elected));
}

/// blocked[i] is true exactly when multiple_case side-steps location i: i is
/// not at `target` and some occupied location lies strictly between i and
/// `target`.  All locations in O(U log U + sum of window sizes) instead of
/// multiple_case's U O(U) scans.
///
/// Window.  in_open_segment(o, s, T) needs orientation's |cross(T-s, o-s)| <=
/// rel*S*max(scale, S) with S = max(|T-s|, |o-s|), and o projecting strictly
/// inside (s, T).  Every pairwise distance is at most D = 2*max|p-T|; let
/// M = max(scale, D).  When |o-s| <= 2|T-s|, o lies within 2*rel*M of line
/// sT on s's side of T, so o's polar angle about T is within
/// asin(2*rel*M / |o-T|) of s's: only that window is tested.  Otherwise o
/// can block s only when |T-s| <= 1.17*rel*M; such near robots are tested
/// against every location, as are blockers whose sine bound reaches 1/2.
/// The bounds carry slack for the rounding of the predicate, the angles and
/// the walk, which holds while D lies in [2^-400, 2^400]; outside that range
/// every robot is scanned.  Every candidate pair is decided by
/// in_open_segment itself, so the bits equal the scan's.
std::vector<char> blocked_locations(const configuration& c, vec2 target) {
  const std::size_t n = c.distinct_count();
  const std::vector<occupied_point>& occ = c.occupied();
  const geom::tol& t = c.tolerance();
  const double len_eps = t.len_eps();

  // Distances and clockwise polar angles about the target, batched.
  std::vector<double> buf(4 * n);
  double* const r = buf.data();
  double* const cr = r + n;
  double* const dt = cr + n;
  double* const theta = dt + n;
  const double* const xs = c.occupied_xs().data();
  const double* const ys = c.occupied_ys().data();
  geom::kernels::distance_row(xs, ys, n, target.x, target.y, r);

  std::vector<char> blocked(n, 0);
  // r[i] <= len_eps is exactly same_point(i, target): such a location is
  // never blocked and never blocks.
  const auto test = [&](std::size_t o, std::size_t s) {
    if (!blocked[s] && r[s] > len_eps &&
        geom::in_open_segment(occ[o].position, occ[s].position, target, t)) {
      blocked[s] = 1;
    }
  };
  const auto test_every_robot = [&](std::size_t o) {
    for (std::size_t s = 0; s < n; ++s) test(o, s);
  };

  const double diam = 2.0 * *std::max_element(r, r + n) * (1.0 + 0x1p-40);
  if (!(diam >= 0x1p-400 && diam <= 0x1p400)) {
    for (std::size_t o = 0; o < n; ++o) test_every_robot(o);
    return blocked;
  }
  const double m = std::max(t.scale, diam);
  const double d_max = 2.0 * t.rel * m * (1.0 + 0x1p-40) + 0x1p-46 * diam;
  const double r_near = 1.25 * t.rel * m + 0x1p-40 * diam;
  constexpr double pad = 0x1p-40;  // radians: atan2, norm_angle, gap sums

  geom::kernels::cross_dot_about(xs, ys, n, target.x, target.y, 1.0, 0.0, cr,
                                 dt);
  geom::kernels::cw_angles_from_cross_dot(cr, dt, n, theta);
  std::vector<std::pair<double, std::uint32_t>> polar(n);
  for (std::size_t i = 0; i < n; ++i) {
    polar[i] = {theta[i], static_cast<std::uint32_t>(i)};
  }
  std::sort(polar.begin(), polar.end());

  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t o = polar[k].second;
    if (r[o] <= len_eps) continue;
    const double sine = d_max / r[o];
    if (!(sine < 0.5)) {
      test_every_robot(o);
      continue;
    }
    const double w = std::asin(sine) + pad;
    const double th = polar[k].first;
    // Walk the window cyclically: forward in angle, then backward over the
    // positions the forward walk did not reach.
    std::size_t step = 1;
    for (; step < n; ++step) {
      const std::size_t j = k + step < n ? k + step : k + step - n;
      const double gap = j > k ? polar[j].first - th
                               : polar[j].first + geom::two_pi - th;
      if (gap > w) break;
      test(o, polar[j].second);
    }
    for (std::size_t back = 1; back + step <= n; ++back) {
      const std::size_t j = k >= back ? k - back : k + n - back;
      const double gap = j < k ? th - polar[j].first
                               : th + geom::two_pi - polar[j].first;
      if (gap > w) break;
      test(o, polar[j].second);
    }
  }
  for (std::size_t s = 0; s < n; ++s) {
    if (r[s] <= len_eps || r[s] > r_near) continue;
    for (std::size_t o = 0; o < n && !blocked[s]; ++o) test(o, s);
  }
  return blocked;
}

/// Extreme points of the L2W line: the farthest occupied pair, the first
/// one in scan order on ties (strict `>`).  O(U^2).
std::pair<vec2, vec2> farthest_pair(const configuration& c) {
  vec2 lo = c.occupied().front().position;
  vec2 hi = lo;
  double best = -1.0;
  for (const occupied_point& a : c.occupied()) {
    for (const occupied_point& b : c.occupied()) {
      const double d = geom::distance(a.position, b.position);
      if (d > best) {
        best = d;
        lo = a.position;
        hi = b.position;
      }
    }
  }
  return {lo, hi};
}

/// L2W move of a robot at `self` given the line's extreme points.
vec2 linear_2w_step(const geom::tol& t, vec2 self, vec2 lo, vec2 hi) {
  const vec2 center = geom::midpoint(lo, hi);
  if (t.same_point(self, lo) || t.same_point(self, hi)) {
    // Endpoint robots leave the line: clockwise quarter-of-pi rotation about
    // the line center (Fig. 2, lines 23-26).
    return geom::rotated_cw_about(self, center, geom::pi / 4.0);
  }
  return center;
}

}  // namespace

double wait_free_gather::side_step_angle(const configuration& c, vec2 self,
                                         vec2 elected) {
  const geom::tol& t = c.tolerance();
  const vec2 own_ray = self - elected;
  double sep = geom::two_pi;  // sentinel: no other ray
  bool found = false;
  for (const occupied_point& o : c.occupied()) {
    if (t.same_point(o.position, elected) || t.same_point(o.position, self)) continue;
    const vec2 ray = o.position - elected;
    const double a = geom::angular_separation(own_ray, ray);
    if (t.ang_zero(a)) continue;  // same ray as self: not a distinct ray
    sep = std::min(sep, a);
    found = true;
  }
  // With no other occupied ray any rotation below pi keeps the robot clear;
  // use a fixed fraction for determinism.
  return found ? sep / 3.0 : geom::pi / 6.0;
}

vec2 wait_free_gather::multiple_case(const configuration& c, vec2 self,
                                     vec2 elected) {
  const geom::tol& t = c.tolerance();
  if (t.same_point(self, elected)) return elected;
  // Free when no occupied location lies strictly between self and the target.
  for (const occupied_point& o : c.occupied()) {
    if (geom::in_open_segment(o.position, self, elected, t)) {
      return side_step(c, self, elected);
    }
  }
  return elected;
}

std::optional<vec2> wait_free_gather::elect_leader(const configuration& c) {
  const geom::tol& t = c.tolerance();
  const auto safe = config::safe_occupied_points(c);
  if (safe.empty()) return std::nullopt;

  std::optional<std::size_t> best;
  config::view best_view;
  double best_sum = 0.0;
  for (std::size_t idx : safe) {
    const occupied_point& o = c.occupied()[idx];
    const double sum = c.sum_distances(o.position);
    if (!best) {
      best = idx;
      best_sum = sum;
      best_view = config::view_of(c, o.position);
      continue;
    }
    const occupied_point& b = c.occupied()[*best];
    if (o.multiplicity != b.multiplicity) {
      if (o.multiplicity > b.multiplicity) {
        best = idx;
        best_sum = sum;
        best_view = config::view_of(c, o.position);
      }
      continue;
    }
    const int scmp = t.len_cmp(sum, best_sum);
    if (scmp != 0) {
      if (scmp < 0) {
        best = idx;
        best_sum = sum;
        best_view = config::view_of(c, o.position);
      }
      continue;
    }
    config::view v = config::view_of(c, o.position);
    if (config::compare_views(v, best_view, t) > 0) {
      best = idx;
      best_sum = sum;
      best_view = std::move(v);
    }
  }
  return c.occupied()[*best].position;
}

vec2 wait_free_gather::linear_2w_case(const configuration& c, vec2 self) {
  const auto [lo, hi] = farthest_pair(c);
  return linear_2w_step(c.tolerance(), self, lo, hi);
}

std::vector<vec2> wait_free_gather::destinations(const configuration& c) const {
  std::vector<vec2> out;
  out.reserve(c.distinct_count());
  if (c.is_gathered()) {
    for (const occupied_point& o : c.occupied()) out.push_back(o.position);
    return out;
  }
  const config::classification cls = config::classify(c);
  switch (cls.cls) {
    case config::config_class::bivalent:
      for (const occupied_point& o : c.occupied()) out.push_back(o.position);
      break;
    case config::config_class::multiple: {
      const vec2 target = *cls.target;
      const std::vector<char> blocked = blocked_locations(c, target);
      for (std::size_t i = 0; i < c.distinct_count(); ++i) {
        const vec2 self = c.occupied()[i].position;
        out.push_back(blocked[i] ? side_step(c, self, target) : target);
      }
      break;
    }
    case config::config_class::quasi_regular:
    case config::config_class::linear_1w:
      for (std::size_t i = 0; i < c.distinct_count(); ++i) out.push_back(*cls.target);
      break;
    case config::config_class::asymmetric: {
      const auto leader = elect_leader(c);
      for (const occupied_point& o : c.occupied()) {
        out.push_back(leader ? *leader : o.position);
      }
      break;
    }
    case config::config_class::linear_2w: {
      const auto [lo, hi] = farthest_pair(c);
      for (const occupied_point& o : c.occupied()) {
        out.push_back(linear_2w_step(c.tolerance(), o.position, lo, hi));
      }
      break;
    }
  }
  return out;
}

vec2 wait_free_gather::destination(const snapshot& s) const {
  const configuration& c = s.observed;
  if (c.is_gathered()) return s.self;
  const config::classification cls = config::classify(c);
  switch (cls.cls) {
    case config::config_class::bivalent:
      // Gathering from B is impossible (Lemma 5.2); hold position.
      return s.self;
    case config::config_class::multiple:
      return multiple_case(c, s.self, *cls.target);
    case config::config_class::quasi_regular:
    case config::config_class::linear_1w:
      // Move straight to the (computable, movement-invariant) Weber point.
      return *cls.target;
    case config::config_class::asymmetric: {
      const auto leader = elect_leader(c);
      // Lemma 4.2 guarantees a safe point for non-linear configurations.
      return leader ? *leader : s.self;
    }
    case config::config_class::linear_2w:
      return linear_2w_case(c, s.self);
  }
  return s.self;
}

}  // namespace gather::core
