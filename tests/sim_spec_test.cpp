// sim_spec API tests: the aggregate entry points validate their inputs, the
// run()/run_async() free functions are deterministic, and sim_result records
// the absolute delta actually used.  run() and run_async() are the engines;
// there is no other entry point.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/wait_free_gather.h"
#include "runner/runner.h"
#include "sim/sim.h"
#include "workloads/generators.h"

namespace gather::sim {
namespace {

using geom::vec2;

const core::wait_free_gather kAlgo;

std::vector<vec2> cloud(std::size_t n, std::uint64_t seed) {
  rng r(seed);
  return workloads::uniform_random(n, r);
}

void expect_same_result(const sim_result& a, const sim_result& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.wait_free_violations, b.wait_free_violations);
  EXPECT_EQ(a.bivalent_entries, b.bivalent_entries);
  EXPECT_DOUBLE_EQ(a.delta_abs, b.delta_abs);
  ASSERT_EQ(a.final_positions.size(), b.final_positions.size());
  for (std::size_t i = 0; i < a.final_positions.size(); ++i) {
    EXPECT_EQ(a.final_positions[i].x, b.final_positions[i].x);
    EXPECT_EQ(a.final_positions[i].y, b.final_positions[i].y);
  }
}

TEST(SimSpec, RunValidatesRequiredPieces) {
  auto sched = make_synchronous();
  auto move = make_full_movement();
  auto crash = make_no_crash();

  sim_spec spec;
  spec.initial = cloud(6, 3);
  spec.scheduler = sched.get();
  spec.movement = move.get();
  spec.crash = crash.get();
  EXPECT_THROW((void)run(spec), std::invalid_argument);  // algorithm unset

  spec.algorithm = &kAlgo;
  spec.scheduler = nullptr;
  EXPECT_THROW((void)run(spec), std::invalid_argument);

  spec.scheduler = sched.get();
  spec.initial.clear();
  EXPECT_THROW((void)run(spec), std::invalid_argument);

  spec.initial = cloud(6, 3);
  EXPECT_EQ(run(spec).status, sim_status::gathered);
}

TEST(SimSpec, RunAsyncValidatesRequiredPieces) {
  auto move = make_full_movement();
  auto crash = make_no_crash();

  sim_spec spec;
  spec.initial = cloud(5, 4);
  spec.movement = move.get();
  spec.crash = crash.get();
  EXPECT_THROW((void)run_async(spec), std::invalid_argument);

  spec.algorithm = &kAlgo;
  EXPECT_EQ(run_async(spec).status, sim_status::gathered);
}

// --- spec-path equivalences --------------------------------------------------
// The free functions must be pure functions of the spec: re-running a spec
// with fresh adversary instances reproduces the run bit-for-bit.

TEST(SimSpecEquivalence, RunIsDeterministicAcrossFreshAdversaries) {
  const auto pts = cloud(8, 7);
  sim_options opts;
  opts.seed = 21;
  opts.delta_fraction = 0.04;

  auto make_run = [&] {
    auto sched = make_fair_random();
    auto move = make_random_stop();
    auto crash = make_random_crashes(2, 30);
    sim_spec spec;
    spec.initial = pts;
    spec.algorithm = &kAlgo;
    spec.scheduler = sched.get();
    spec.movement = move.get();
    spec.crash = crash.get();
    spec.options = opts;
    return run(spec);
  };
  expect_same_result(make_run(), make_run());
}

TEST(SimSpecEquivalence, RunAsyncIsDeterministicAcrossFreshAdversaries) {
  const auto pts = cloud(6, 13);
  async_options opts;
  opts.seed = 17;
  opts.policy = async_policy::random_interleaving;

  auto make_run = [&] {
    auto move = make_random_stop();
    auto crash = make_random_crashes(1, 30);
    sim_spec spec;
    spec.initial = pts;
    spec.algorithm = &kAlgo;
    spec.movement = move.get();
    spec.crash = crash.get();
    spec.async = opts;
    return run_async(spec);
  };
  const auto a = make_run();
  const auto b = make_run();
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_DOUBLE_EQ(a.delta_abs, b.delta_abs);
}

TEST(SimSpecEquivalence, ExecuteCellIsPure) {
  runner::grid g;
  runner::run_spec spec;
  spec.workload = "uniform";
  spec.n = 6;
  spec.f = 2;
  spec.scheduler = "fair-random";
  spec.movement = "random-stop";
  spec.delta = 0.05;
  spec.index = 4;
  spec.seed = runner::derive_seed(g.base_seed, spec.index);

  const auto first = runner::execute_cell(spec, g);
  const auto second = runner::execute_cell(spec, g);
  EXPECT_EQ(first.status, second.status);
  EXPECT_EQ(first.rounds, second.rounds);
  EXPECT_EQ(first.crashes, second.crashes);
  EXPECT_EQ(first.phase_count, second.phase_count);
}

// --- delta_abs ---------------------------------------------------------------

TEST(SimSpec, ResultRecordsAbsoluteDelta) {
  // Four robots on a unit square: diameter = sqrt(2), so delta_abs must be
  // delta_fraction * sqrt(2) for both engines.
  const std::vector<vec2> pts = {{0, 0}, {1, 0}, {1, 1}, {0, 1}};
  auto sched = make_synchronous();
  auto move = make_full_movement();
  auto crash = make_no_crash();

  sim_spec spec;
  spec.initial = pts;
  spec.algorithm = &kAlgo;
  spec.scheduler = sched.get();
  spec.movement = move.get();
  spec.crash = crash.get();
  spec.options.delta_fraction = 0.1;
  spec.async.delta_fraction = 0.25;

  const double diameter = std::sqrt(2.0);
  EXPECT_NEAR(run(spec).delta_abs, 0.1 * diameter, 1e-12);
  EXPECT_NEAR(run_async(spec).delta_abs, 0.25 * diameter, 1e-12);
}

}  // namespace
}  // namespace gather::sim
