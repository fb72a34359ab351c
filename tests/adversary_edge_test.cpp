// Adversary edge cases: crash injection at the extremes (round 0,
// all-but-one, all) and movement truncation at the contract boundaries
// (exactly delta, zero-length moves, clamped fractions).  The crash-budget
// cases run on the ATOM engine and on the ASYNC engine under each of its
// interleaving policies, where a crash event's round is a step.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/wait_free_gather.h"
#include "sim/sim.h"

namespace {

using namespace gather;
using geom::vec2;

using crash_events = std::vector<std::pair<std::size_t, std::size_t>>;

const core::wait_free_gather kWfg;
const std::vector<vec2> kRobots = {
    {0.0, 0.0}, {0.0, 0.0}, {4.0, 0.0}, {1.0, 3.0}};

sim::sim_result run_with_crashes(crash_events events) {
  auto sched = sim::make_synchronous();
  auto move = sim::make_full_movement();
  auto crash = sim::make_scheduled_crashes(std::move(events));
  sim::sim_spec spec;
  spec.initial = kRobots;
  spec.algorithm = &kWfg;
  spec.scheduler = sched.get();
  spec.movement = move.get();
  spec.crash = crash.get();
  spec.options.max_rounds = 200;
  return sim::run(spec);
}

sim::async_result run_async_with_crashes(crash_events events,
                                         sim::async_policy policy) {
  auto move = sim::make_full_movement();
  auto crash = sim::make_scheduled_crashes(std::move(events));
  sim::sim_spec spec;
  spec.initial = kRobots;
  spec.algorithm = &kWfg;
  spec.movement = move.get();
  spec.crash = crash.get();
  spec.async.policy = policy;
  spec.async.max_steps = 20'000;
  return sim::run_async(spec);
}

// What the crash-budget tests read, from either engine.
struct crash_outcome {
  std::string engine;
  sim::sim_status status;
  std::size_t crashes;
  std::vector<std::uint8_t> final_live;
};

std::size_t live_count(const crash_outcome& res) {
  std::size_t live = 0;
  for (std::uint8_t l : res.final_live) live += l;
  return live;
}

std::vector<crash_outcome> run_on_every_engine(const crash_events& events) {
  const sim::sim_result atom = run_with_crashes(events);
  std::vector<crash_outcome> out{
      {"atom", atom.status, atom.crashes, atom.final_live}};
  for (const sim::async_policy policy :
       {sim::async_policy::atomic_sequential,
        sim::async_policy::random_interleaving,
        sim::async_policy::look_all_move_all}) {
    const sim::async_result res = run_async_with_crashes(events, policy);
    out.push_back({std::string(sim::to_string(policy)), res.status,
                   res.crashes, res.final_live});
  }
  return out;
}

TEST(CrashEdges, CrashAtRoundZeroFreezesTheRobot) {
  const sim::sim_result res = run_with_crashes({{0, 3}});
  EXPECT_EQ(res.crashes, 1u);
  ASSERT_EQ(res.final_live.size(), 4u);
  EXPECT_EQ(res.final_live[3], 0u);
  // Crashed in round 0, before any activation: it never left its start.
  EXPECT_EQ(res.final_positions[3], (vec2{1.0, 3.0}));
  // The others still gather (f < n tolerance, Theorem 1).
  EXPECT_EQ(res.status, sim::sim_status::gathered);
}

TEST(CrashEdges, AllButOneCrashedStillTerminates) {
  for (const crash_outcome& res :
       run_on_every_engine({{0, 0}, {0, 1}, {0, 2}})) {
    SCOPED_TRACE(res.engine);
    EXPECT_EQ(res.crashes, 3u);
    EXPECT_EQ(live_count(res), 1u);
    // A single live robot gathers on itself once its destination is to stay.
    EXPECT_EQ(res.status, sim::sim_status::gathered);
  }
}

TEST(CrashEdges, LastLiveRobotIsNeverCrashed) {
  // The schedule demands all four crash at round 0; the engine's f < n
  // guard must keep one robot alive.
  for (const crash_outcome& res :
       run_on_every_engine({{0, 0}, {0, 1}, {0, 2}, {0, 3}})) {
    SCOPED_TRACE(res.engine);
    EXPECT_EQ(res.crashes, 3u);
    EXPECT_EQ(live_count(res), 1u);
    EXPECT_NE(res.status, sim::sim_status::all_crashed);
  }
}

TEST(CrashEdges, OutOfRangeAndDuplicateEventsAreIgnored) {
  // Robot 9 does not exist; robot 3 is named twice; only one fault lands.
  for (const crash_outcome& res :
       run_on_every_engine({{0, 9}, {0, 3}, {1, 3}})) {
    SCOPED_TRACE(res.engine);
    EXPECT_EQ(res.crashes, 1u);
    ASSERT_EQ(res.final_live.size(), 4u);
    EXPECT_EQ(res.final_live[3], 0u);
    EXPECT_EQ(res.status, sim::sim_status::gathered);
  }
}

TEST(MovementEdges, MinimalMovementTravelsExactlyDelta) {
  auto move = sim::make_minimal_movement();
  sim::rng random(11);
  const double want = 10.0;
  const double delta = 2.0;
  EXPECT_EQ(move->travelled(want, delta, random), delta);
  // Contract: shorter moves than delta complete.
  EXPECT_EQ(move->travelled(1.5, delta, random), 1.5);
  const vec2 stop = move->stop_point({0.0, 0.0}, {10.0, 0.0}, delta, random);
  EXPECT_NEAR(geom::distance({0.0, 0.0}, stop), delta, 1e-12);
}

TEST(MovementEdges, FractionStopClampsToContract) {
  // A tiny fraction must still travel at least delta ...
  auto tiny = sim::make_fraction_stop(0.01);
  sim::rng random(11);
  EXPECT_EQ(tiny->travelled(10.0, 2.0, random), 2.0);
  // ... and any fraction of a sub-delta move completes it.
  EXPECT_EQ(tiny->travelled(1.0, 2.0, random), 1.0);
  // A full fraction reaches the destination.
  auto full = sim::make_fraction_stop(1.0);
  EXPECT_EQ(full->travelled(10.0, 2.0, random), 10.0);
}

TEST(MovementEdges, StopPointOnZeroLengthMoveStaysPut) {
  auto move = sim::make_minimal_movement();
  sim::rng random(3);
  const vec2 p{2.5, -1.25};
  EXPECT_EQ(move->stop_point(p, p, 1.0, random), p);
}

}  // namespace
