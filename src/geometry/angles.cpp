#include "geometry/angles.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace gather::geom {

double norm_angle(double a) {
  // fmod(a, 2*pi) is the identity for |a| < 2*pi (IEEE fmod is exact), so the
  // common case skips the libm call; the result is bit-identical.
  if (a >= two_pi || a <= -two_pi) a = std::fmod(a, two_pi);
  if (a < 0) a += two_pi;
  // A value infinitesimally below 0 can round to two_pi exactly.
  if (a >= two_pi) a -= two_pi;
  return a;
}

double cw_angle(vec2 ref, vec2 v) {
  // atan2 gives the counter-clockwise angle; clockwise is its negation.
  const double ccw = std::atan2(cross(ref, v), dot(ref, v));
  return norm_angle(-ccw);
}

double cw_angle_at(vec2 u, vec2 c, vec2 v) { return cw_angle(u - c, v - c); }

vec2 rotated_cw_about(vec2 p, vec2 center, double angle) {
  return center + rotated_ccw(p - center, -angle);
}

vec2 rotated_ccw_about(vec2 p, vec2 center, double angle) {
  return center + rotated_ccw(p - center, angle);
}

double angular_separation(vec2 a, vec2 b) {
  return std::fabs(std::atan2(cross(a, b), dot(a, b)));
}

namespace {

/// Representative of the cluster spanning indices [b, e) of the sorted
/// `thetas`; when `seam_from < n`, the trailing chain [seam_from, n) wraps
/// across the 0/2*pi seam into this cluster and contributes with -2*pi.
/// The accumulation order (in-range ascending, then seam elements ascending)
/// reproduces the reference's per-cluster sums bit for bit.
double cluster_rep(const std::vector<double>& thetas, std::size_t b,
                   std::size_t e, std::size_t seam_from, double eps) {
  double s = 0.0;
  std::size_t count = e - b;
  for (std::size_t i = b; i < e; ++i) s += thetas[i];
  if (seam_from < thetas.size()) {
    for (std::size_t i = seam_from; i < thetas.size(); ++i)
      s += thetas[i] - two_pi;
    count += thetas.size() - seam_from;
  }
  double rep = s / static_cast<double>(count);
  // norm_angle is the identity on [0, 2*pi) (its fmod is exact), so the
  // common no-seam case -- mean of values in [0, 2*pi) -- skips it.
  if (rep < 0.0 || rep >= two_pi) rep = norm_angle(rep);
  // A direction within eps of the positive reference axis must read as
  // exactly 0, never as ~2*pi: otherwise the same geometric direction could
  // sort first in one observer's view and last in another's.
  if (two_pi - rep <= eps || rep <= eps) rep = 0.0;
  return rep;
}

}  // namespace

void cluster_angles_into(std::vector<double>& thetas, double eps,
                         std::vector<double>& reps) {
  std::sort(thetas.begin(), thetas.end());
  cluster_presorted_angles_into(thetas, eps, reps);
}

void cluster_presorted_angles_into(const std::vector<double>& thetas,
                                   double eps, std::vector<double>& reps) {
  reps.clear();
  if (thetas.empty()) return;
  const std::size_t n = thetas.size();
  // Chain clustering on the sorted values: a gap > eps starts a new cluster.
  // `last_start` is where the trailing cluster begins; the seam merge folds
  // that cluster into the first one when they touch modulo 2*pi.
  std::size_t last_start = n - 1;
  while (last_start > 0 && thetas[last_start] - thetas[last_start - 1] <= eps)
    --last_start;
  const bool merge_seam =
      last_start > 0 && (thetas.front() + two_pi) - thetas.back() <= eps;
  // First cluster: the leading chain, plus the seam elements when merged.
  std::size_t first_end = 1;
  while (first_end < n && thetas[first_end] - thetas[first_end - 1] <= eps)
    ++first_end;
  reps.push_back(cluster_rep(thetas, 0, first_end, merge_seam ? last_start : n,
                             eps));
  // Middle clusters (and the trailing one when it did not wrap).
  const std::size_t limit = merge_seam ? last_start : n;
  std::size_t b = first_end;
  while (b < limit) {
    std::size_t e = b + 1;
    while (e < limit && thetas[e] - thetas[e - 1] <= eps) ++e;
    reps.push_back(cluster_rep(thetas, b, e, n, eps));
    b = e;
  }
  std::sort(reps.begin(), reps.end());
}

std::vector<double> cluster_angle_values(std::vector<double> thetas, double eps) {
  std::vector<double> reps;
  cluster_angles_into(thetas, eps, reps);
  return reps;
}

namespace {

/// Candidate evaluation shared by `nearest_angle_rep` and
/// `snap_sorted_angles`; `lb` is the lower-bound index of `theta` in `reps`.
/// The cyclically nearest representative is a cyclic neighbour of theta:
/// either a linear neighbour (lb-1, lb) or a seam endpoint (0, m-1) -- the
/// shorter arc from theta to the minimizer cannot contain another distinct
/// representative.  Candidates are evaluated in ascending index order with a
/// strict `<`, so ties resolve to the same value as the reference's linear
/// first-minimum scan (equal-valued duplicates return the same double).
double nearest_rep_from_lb(double theta, const std::vector<double>& reps,
                           std::size_t lb) {
  const std::size_t m = reps.size();
  std::size_t cand[4] = {};
  std::size_t nc = 0;
  const auto add = [&](std::size_t i) {
    if (nc == 0 || cand[nc - 1] != i) cand[nc++] = i;
  };
  add(0);
  if (lb > 0) add(lb - 1);
  if (lb < m) add(lb);
  add(m - 1);
  double best = theta;
  double best_d = two_pi;
  for (std::size_t j = 0; j < nc; ++j) {
    const double r = reps[cand[j]];
    double d = std::fabs(theta - r);
    d = std::min(d, two_pi - d);
    if (d < best_d) {
      best_d = d;
      best = r;
    }
  }
  return best;
}

}  // namespace

double nearest_angle_rep(double theta, const std::vector<double>& reps) {
  if (reps.empty()) return theta;
  const std::size_t lb = static_cast<std::size_t>(
      std::lower_bound(reps.begin(), reps.end(), theta) - reps.begin());
  return nearest_rep_from_lb(theta, reps, lb);
}

void snap_sorted_angles(std::vector<double>& thetas,
                        const std::vector<double>& reps) {
  if (reps.empty()) return;  // nearest_angle_rep keeps theta unchanged
  // Generic configurations cluster into all-singleton chains whose
  // representatives are the input values themselves (a one-element mean is
  // exact), so the snap is the identity whenever the two arrays are bitwise
  // equal: every theta is then at cyclic distance 0 from its own rep, and
  // with m == n the sorted thetas are strictly ascending (an equal-adjacent
  // pair would have chained into one cluster), so that minimizer is unique.
  // memcmp, not operator==, because -0.0 == 0.0 compares true but snapping
  // would rewrite the bits.
  if (reps.size() == thetas.size() &&
      std::memcmp(reps.data(), thetas.data(),
                  reps.size() * sizeof(double)) == 0) {
    return;
  }
  // For ascending thetas the lower-bound index is monotone, so one merge
  // pointer replaces the per-element binary search.
  std::size_t lb = 0;
  for (double& theta : thetas) {
    while (lb < reps.size() && reps[lb] < theta) ++lb;
    theta = nearest_rep_from_lb(theta, reps, lb);
  }
}

namespace detail {

std::vector<double> cluster_angle_values_reference(std::vector<double> thetas,
                                                   double eps) {
  if (thetas.empty()) return {};
  std::sort(thetas.begin(), thetas.end());
  std::vector<std::vector<double>> groups;
  for (double a : thetas) {
    if (!groups.empty() && a - groups.back().back() <= eps) {
      groups.back().push_back(a);
    } else {
      groups.push_back({a});
    }
  }
  // Merge across the seam: the last cluster wraps onto the first.
  if (groups.size() > 1 &&
      (groups.front().front() + two_pi) - groups.back().back() <= eps) {
    for (double a : groups.back()) groups.front().push_back(a - two_pi);
    groups.pop_back();
  }
  std::vector<double> reps;
  reps.reserve(groups.size());
  for (const auto& g : groups) {
    double s = 0.0;
    for (double a : g) s += a;
    double rep = norm_angle(s / static_cast<double>(g.size()));
    if (two_pi - rep <= eps || rep <= eps) rep = 0.0;
    reps.push_back(rep);
  }
  std::sort(reps.begin(), reps.end());
  return reps;
}

double nearest_angle_rep_reference(double theta, const std::vector<double>& reps) {
  double best = theta;
  double best_d = two_pi;
  for (double r : reps) {
    double d = std::fabs(theta - r);
    d = std::min(d, two_pi - d);
    if (d < best_d) {
      best_d = d;
      best = r;
    }
  }
  return best;
}

}  // namespace detail

}  // namespace gather::geom
