#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "config/safe_points.h"
#include "core/core.h"
#include "geometry/angles.h"
#include "geometry/predicates.h"
#include "geometry/transform.h"
#include "sim/rng.h"
#include "workloads/generators.h"

namespace gather::core {
namespace {

using config::config_class;
using config::configuration;
using geom::vec2;

const wait_free_gather kAlgo;

TEST(MultipleCase, RobotAtTargetStays) {
  const configuration c({{0, 0}, {0, 0}, {3, 0}});
  EXPECT_EQ(kAlgo.destination({c, {0, 0}}), (vec2{0, 0}));
}

TEST(MultipleCase, FreeRobotMovesStraight) {
  const configuration c({{0, 0}, {0, 0}, {3, 0}});
  EXPECT_EQ(kAlgo.destination({c, {3, 0}}), (vec2{0, 0}));
}

TEST(MultipleCase, BlockedRobotSideSteps) {
  // Robot at (4,0) is blocked by (2,0); it must leave the ray but keep its
  // distance to the target.
  const configuration c({{0, 0}, {0, 0}, {2, 0}, {4, 0}});
  const vec2 d = kAlgo.destination({c, {4, 0}});
  ASSERT_TRUE(geom::in_open_segment({2, 0}, {4, 0}, {0, 0}, c.tolerance()));
  EXPECT_NE(d, (vec2{0, 0}));
  EXPECT_NEAR(geom::distance(d, {0, 0}), 4.0, 1e-9);
  // Clockwise rotation: negative mathematical angle, so y < 0.
  EXPECT_LT(d.y, 0.0);
}

TEST(MultipleCase, SideStepRespectsThirdOfGap) {
  // Another occupied ray at 90 degrees clockwise; the side-step must rotate
  // by at most 30 degrees.
  const configuration c({{0, 0}, {0, 0}, {2, 0}, {4, 0}, {0, -3}});
  const double theta = wait_free_gather::side_step_angle(c, {4, 0}, {0, 0});
  EXPECT_LE(theta, geom::pi / 2 / 3 + 1e-12);
  EXPECT_GT(theta, 0.0);
}

TEST(MultipleCase, SideStepIgnoresOwnRayRobots) {
  // Only blockers on the robot's own ray: the gap to "other rays" is
  // undefined, so a fixed default is used; it must still be positive.
  const configuration c({{0, 0}, {0, 0}, {2, 0}, {4, 0}});
  const double theta = wait_free_gather::side_step_angle(c, {4, 0}, {0, 0});
  EXPECT_GT(theta, 0.0);
  EXPECT_LT(theta, geom::pi);
}

TEST(MultipleCase, CoLocatedRobotsShareDestination) {
  const configuration c({{0, 0}, {0, 0}, {2, 0}, {4, 0}, {4, 0}});
  const vec2 d1 = kAlgo.destination({c, {4, 0}});
  const vec2 d2 = kAlgo.destination({c, {4, 0}});
  EXPECT_EQ(d1, d2);
}

TEST(QuasiRegularCase, MovesToWeberPoint) {
  sim::rng r(51);
  const auto pts = workloads::biangular(3, 0.5, r);
  const configuration c(pts);
  ASSERT_EQ(config::classify(c).cls, config_class::quasi_regular);
  for (const config::occupied_point& o : c.occupied()) {
    const vec2 d = kAlgo.destination({c, o.position});
    EXPECT_NEAR(d.x, 0.0, 1e-6);
    EXPECT_NEAR(d.y, 0.0, 1e-6);
  }
}

TEST(Linear1WCase, MovesToMedian) {
  const configuration c({{0, 0}, {1, 0}, {2, 0}, {3, 0}, {7, 0}});
  ASSERT_EQ(config::classify(c).cls, config_class::linear_1w);
  EXPECT_NEAR(kAlgo.destination({c, {7, 0}}).x, 2.0, 1e-9);
  EXPECT_NEAR(kAlgo.destination({c, {0, 0}}).x, 2.0, 1e-9);
  // The robot at the median stays.
  EXPECT_EQ(kAlgo.destination({c, {2, 0}}), (vec2{2, 0}));
}

TEST(AsymmetricCase, LeaderIsSafeAndUnique) {
  const configuration c({{0, 0}, {5, 0}, {1, 3}, {-2, 1}, {0.5, -2.5}});
  ASSERT_EQ(config::classify(c).cls, config_class::asymmetric);
  const auto leader = wait_free_gather::elect_leader(c);
  ASSERT_TRUE(leader.has_value());
  EXPECT_TRUE(config::is_safe_point(c, *leader));
  // Everyone moves to the leader; the leader stays.
  for (const config::occupied_point& o : c.occupied()) {
    EXPECT_EQ(kAlgo.destination({c, o.position}), *leader);
  }
}

TEST(AsymmetricCase, LeaderPrefersMultiplicityThenSumOfDistances) {
  // Two tied stacks keep the configuration out of M.  The singleton at
  // (2.5, 0.8) has the smallest sum of distances, yet the stacks' higher
  // multiplicity wins; between the stacks the smaller sum picks (5, 1).
  const configuration c({{0, 0}, {0, 0}, {5, 1}, {5, 1},
                         {2.5, 0.8}, {4, 4}, {7, -2}, {-1, 3}});
  ASSERT_EQ(config::classify(c).cls, config_class::asymmetric);
  for (const vec2 p : {vec2{0, 0}, vec2{5, 1}, vec2{2.5, 0.8}}) {
    ASSERT_TRUE(config::is_safe_point(c, p)) << p;
  }
  EXPECT_LT(c.sum_distances({2.5, 0.8}), c.sum_distances({5, 1}));
  EXPECT_LT(c.sum_distances({5, 1}), c.sum_distances({0, 0}));
  const auto leader = wait_free_gather::elect_leader(c);
  ASSERT_TRUE(leader.has_value());
  EXPECT_EQ(*leader, (vec2{5, 1}));
}

TEST(AsymmetricCase, ElectionInvariantUnderSimilarity) {
  const std::vector<vec2> base = {{0, 0}, {5, 0}, {1, 3}, {-2, 1}, {0.5, -2.5}};
  const configuration c1(base);
  const auto l1 = wait_free_gather::elect_leader(c1);
  std::vector<vec2> moved;
  for (const vec2& p : base) {
    moved.push_back(vec2{7, -2} + 0.6 * geom::rotated_ccw(p, 2.1));
  }
  const configuration c2(moved);
  const auto l2 = wait_free_gather::elect_leader(c2);
  ASSERT_TRUE(l1 && l2);
  const vec2 mapped = vec2{7, -2} + 0.6 * geom::rotated_ccw(*l1, 2.1);
  EXPECT_NEAR(l2->x, mapped.x, 1e-7);
  EXPECT_NEAR(l2->y, mapped.y, 1e-7);
}

TEST(Linear2WCase, EndpointsLeaveLineOthersGoCenter) {
  const configuration c({{0, 0}, {1, 0}, {3, 0}, {8, 0}});
  ASSERT_EQ(config::classify(c).cls, config_class::linear_2w);
  const vec2 center{4, 0};
  EXPECT_EQ(kAlgo.destination({c, {1, 0}}), center);
  EXPECT_EQ(kAlgo.destination({c, {3, 0}}), center);
  const vec2 d_lo = kAlgo.destination({c, {0, 0}});
  const vec2 d_hi = kAlgo.destination({c, {8, 0}});
  // Endpoints keep their distance to the center but leave the line.
  EXPECT_NEAR(geom::distance(d_lo, center), 4.0, 1e-9);
  EXPECT_NEAR(geom::distance(d_hi, center), 4.0, 1e-9);
  EXPECT_GT(std::fabs(d_lo.y), 0.1);
  EXPECT_GT(std::fabs(d_hi.y), 0.1);
}

TEST(BivalentCase, RobotsHoldPosition) {
  const configuration c({{0, 0}, {0, 0}, {4, 0}, {4, 0}});
  EXPECT_EQ(kAlgo.destination({c, {0, 0}}), (vec2{0, 0}));
  EXPECT_EQ(kAlgo.destination({c, {4, 0}}), (vec2{4, 0}));
}

TEST(Gathered, RobotStays) {
  const configuration c({{2, 2}, {2, 2}});
  EXPECT_EQ(kAlgo.destination({c, {2, 2}}), (vec2{2, 2}));
}

TEST(WaitFreeness, Lemma51OnCorpus) {
  // At most one occupied location may be stationary in any configuration.
  for (std::size_t n : {4u, 5u, 7u, 8u, 9u, 12u}) {
    for (const auto& wl : workloads::corpus(n, 600 + n)) {
      const configuration c(wl.points);
      EXPECT_TRUE(satisfies_wait_freeness(c, kAlgo)) << wl.name << " n=" << n;
    }
  }
}

TEST(WaitFreeness, RandomCloudsNeverDeadlock) {
  sim::rng r(53);
  for (int trial = 0; trial < 60; ++trial) {
    const auto pts = workloads::uniform_random(3 + trial % 12, r);
    const configuration c(pts);
    EXPECT_TRUE(satisfies_wait_freeness(c, kAlgo)) << trial;
  }
}

TEST(Destinations, ParallelToOccupied) {
  const configuration c({{0, 0}, {5, 0}, {1, 3}});
  EXPECT_EQ(destinations(c, kAlgo).size(), c.distinct_count());
}

/// Bitwise equality: vec2's operator== treats -0.0 and 0.0 alike.
bool same_bits(vec2 a, vec2 b) {
  using bits = std::uint64_t;
  return std::bit_cast<bits>(a.x) == std::bit_cast<bits>(b.x) &&
         std::bit_cast<bits>(a.y) == std::bit_cast<bits>(b.y);
}

struct bulk_tally {
  std::size_t configs = 0;
  std::size_t locations = 0;
  std::size_t side_steps = 0;  ///< class-M locations not sent to the target

  void report(const std::string& family) const {
    const std::string counts = std::to_string(configs) + " configurations, " +
                               std::to_string(locations) + " locations, " +
                               std::to_string(side_steps) + " side-step";
    ::testing::Test::RecordProperty(family, counts);
    std::cout << "[ checked  ] " << family << ": " << counts << "\n";
  }
};

/// The batched destinations(c) must equal the per-location destination()
/// bit for bit.
void expect_bulk_is_per_point(const configuration& c, const std::string& what,
                              bulk_tally& tally) {
  const auto bulk = kAlgo.destinations(c);
  ASSERT_EQ(bulk.size(), c.distinct_count()) << what;
  const config::classification cls = config::classify(c);
  ++tally.configs;
  for (std::size_t i = 0; i < bulk.size(); ++i) {
    const vec2 single = kAlgo.destination({c, c.occupied()[i].position});
    EXPECT_TRUE(same_bits(bulk[i], single))
        << what << " i=" << i << " bulk=" << bulk[i] << " single=" << single;
    ++tally.locations;
    if (cls.cls == config_class::multiple && !same_bits(bulk[i], *cls.target)) {
      ++tally.side_steps;
    }
  }
}

/// A random direct similarity with scale in 2^-20..2^20.
geom::similarity random_similarity(sim::rng& r) {
  const double scale = std::exp2(r.uniform(-20.0, 20.0));
  return {r.uniform(0.0, geom::two_pi), scale,
          vec2{r.uniform(-10.0, 10.0), r.uniform(-10.0, 10.0)} * scale};
}

std::vector<vec2> mapped(const geom::similarity& sim, std::vector<vec2> pts) {
  for (vec2& p : pts) p = sim.apply(p);
  return pts;
}

/// Class-M input built so that most robots are blocked: a stack at the
/// origin and 2-6 shared rays from it, always including the rays at angle 0
/// (the seam of clockwise angles) and pi (the seam of atan2), whose outer
/// robots at radius 1 pin the diameter to 2.  Inner robots sit off their ray
/// by 0, 0.5, 1, 1.1 or 2 times the orientation tolerance, on either side;
/// some configurations add robots a few len_eps from the target.
std::vector<vec2> shared_rays(sim::rng& r) {
  std::vector<vec2> dirs = {{1.0, 0.0}, {-1.0, 0.0}};
  const std::size_t rays = 2 + r.uniform_int(0, 4);
  while (dirs.size() < rays) {
    const double a = r.uniform(-geom::pi, geom::pi);
    dirs.push_back({std::cos(a), std::sin(a)});
  }
  std::vector<vec2> pts(12, vec2{0.0, 0.0});
  for (std::size_t k = 0; k < dirs.size(); ++k) {
    pts.push_back((k < 2 ? 1.0 : r.uniform(0.3, 1.0)) * dirs[k]);
  }
  // The skeleton's tolerance: the offsets below move the diameter by ~1e-9
  // relative at most.
  const geom::tol t = configuration(pts).tolerance();
  // rel * max(scale, |s - T|) with |s - T| <= 1 < scale.
  const double unit = t.rel * t.scale;
  constexpr double kOffsets[] = {0.0, 0.5, 1.0, 1.1, 2.0};
  for (const vec2 d : dirs) {
    const std::size_t inner = 1 + r.uniform_int(0, 4);
    for (std::size_t j = 0; j < inner; ++j) {
      const double off =
          kOffsets[r.uniform_int(0, 4)] * (r.flip() ? unit : -unit);
      pts.push_back(r.uniform(0.05, 0.95) * d + off * geom::perp_ccw(d));
    }
  }
  if (r.flip()) {
    const vec2 d = dirs[r.uniform_int(0, dirs.size() - 1)];
    for (const double k : {2.0, 3.0, 5.0}) {
      if (r.flip()) pts.push_back(k * t.len_eps() * d);
    }
  }
  return pts;
}

TEST(Destinations, BulkMatchesPerPointOnCorpus) {
  // The batched override must be bitwise identical to per-snapshot calls
  // for every configuration class.
  bulk_tally tally;
  for (std::size_t n : {4u, 6u, 8u, 9u}) {
    for (const auto& wl : workloads::corpus(n, 12'000 + n)) {
      expect_bulk_is_per_point(configuration(wl.points), wl.name, tally);
    }
  }
  tally.report("corpus");
}

TEST(Destinations, BulkMatchesPerPointOnBlockedRays) {
  sim::rng r(2024);
  bulk_tally tally;
  for (int trial = 0; trial < 750; ++trial) {
    const std::vector<vec2> base = shared_rays(r);
    for (int copy = 0; copy < 4; ++copy) {
      const configuration c(copy == 0 ? base
                                      : mapped(random_similarity(r), base));
      const std::string what = "rays trial " + std::to_string(trial) +
                               " copy " + std::to_string(copy);
      ASSERT_EQ(config::classify(c).cls, config_class::multiple) << what;
      expect_bulk_is_per_point(c, what, tally);
    }
  }
  tally.report("blocked_rays");
  // The family exists to exercise blocked robots.
  EXPECT_GT(tally.side_steps, tally.locations / 5);
}

TEST(Destinations, BulkMatchesPerPointWithMajority) {
  sim::rng r(2025);
  bulk_tally tally;
  for (std::size_t n : {16u, 64u, 256u, 1024u, 4096u}) {
    const std::vector<vec2> base = workloads::with_majority(n, n / 3, r);
    for (const auto& pts : {base, mapped(random_similarity(r), base)}) {
      const configuration c(pts);
      ASSERT_EQ(config::classify(c).cls, config_class::multiple) << n;
      expect_bulk_is_per_point(c, "majority n=" + std::to_string(n), tally);
    }
  }
  tally.report("majority");
}

TEST(Destinations, FarBlockerUnderFixedToleranceSideSteps) {
  // With a fixed tolerance whose scale is far below the diameter, the
  // orientation tolerance grows with the span |o - s|: a location 1000
  // units off the ray blocks a robot 1e-7 from the target.  Such a blocker
  // lies far outside any thin angular window about the robot's ray.
  geom::tol t;
  t.scale = 1.0;
  const vec2 target{0, 0};
  const vec2 self{1e-7, 0};
  const vec2 blocker{5e-8, 1e3};
  const configuration c(
      {target, target, target, self, blocker, {-3, 4}, {2, -7}}, t);
  ASSERT_EQ(config::classify(c).cls, config_class::multiple);
  ASSERT_TRUE(geom::in_open_segment(blocker, self, target, c.tolerance()));
  bulk_tally tally;
  expect_bulk_is_per_point(c, "far blocker", tally);
  EXPECT_NE(kAlgo.destination({c, self}), target);
  EXPECT_GE(tally.side_steps, 1u);
}

TEST(Destinations, BulkMatchesPerPointOnLinear2W) {
  sim::rng r(2026);
  bulk_tally tally;
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 4 + 2 * r.uniform_int(0, 18);
    const std::vector<vec2> base = workloads::linear_two_weber(n, r);
    for (const auto& pts : {base, mapped(random_similarity(r), base)}) {
      const configuration c(pts);
      if (config::classify(c).cls != config_class::linear_2w) continue;
      expect_bulk_is_per_point(c, "L2W trial " + std::to_string(trial), tally);
    }
  }
  tally.report("linear_2w");
  EXPECT_GT(tally.configs, 300u);
}

TEST(StationaryLocations, MultipleCaseHasExactlyOne) {
  const configuration c({{0, 0}, {0, 0}, {3, 0}, {1, 4}});
  const auto stat = stationary_locations(c, kAlgo);
  ASSERT_EQ(stat.size(), 1u);
  EXPECT_EQ(stat.front(), (vec2{0, 0}));
}

}  // namespace
}  // namespace gather::core
