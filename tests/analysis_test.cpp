// Tests for the trace analytics and the JSON report.
#include <gtest/gtest.h>

#include <sstream>

#include "core/wait_free_gather.h"
#include "sim/sim.h"
#include "sim_support.h"
#include "workloads/generators.h"

namespace gather::sim {
namespace {

const core::wait_free_gather kAlgo;

sim_result traced_run(std::vector<geom::vec2> pts, std::size_t f = 0,
                      std::uint64_t seed = 3) {
  auto sched = make_fair_random();
  auto move = make_random_stop();
  auto crash = f == 0 ? make_no_crash() : make_random_crashes(f, 20);
  sim_options opts;
  opts.seed = seed;
  opts.record_trace = true;
  return run_sim(std::move(pts), kAlgo, *sched, *move, *crash, opts);
}

TEST(Analysis, MetricsParallelTrace) {
  rng r(1);
  const auto res = traced_run(workloads::uniform_random(6, r));
  const auto metrics = analyze_trace(res);
  EXPECT_EQ(metrics.size(), res.trace.size());
  ASSERT_FALSE(metrics.empty());
  EXPECT_EQ(metrics.front().live_count, 6u);
  EXPECT_GT(metrics.front().live_spread, 0.0);
}

TEST(Analysis, SpreadShrinksToZero) {
  rng r(2);
  const auto res = traced_run(workloads::uniform_random(7, r));
  ASSERT_EQ(res.status, sim_status::gathered);
  const auto metrics = analyze_trace(res);
  EXPECT_LT(metrics.back().live_spread, metrics.front().live_spread);
}

TEST(Analysis, ClassPhasesRunLengthEncode) {
  using cc = config::config_class;
  const auto phases =
      class_phases({cc::asymmetric, cc::asymmetric, cc::multiple, cc::multiple,
                    cc::multiple});
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[0].cls, cc::asymmetric);
  EXPECT_EQ(phases[0].rounds, 2u);
  EXPECT_EQ(phases[1].cls, cc::multiple);
  EXPECT_EQ(phases[1].first_round, 2u);
  EXPECT_EQ(phases[1].rounds, 3u);
}

TEST(Analysis, PotentialsHoldOnCleanRuns) {
  for (int seed = 0; seed < 5; ++seed) {
    rng r(100 + seed);
    const auto res = traced_run(workloads::uniform_random(8, r), 2, seed + 1);
    ASSERT_EQ(res.status, sim_status::gathered) << seed;
    const auto pot = check_potentials(res);
    EXPECT_TRUE(pot.max_multiplicity_monotone) << seed;
    EXPECT_TRUE(pot.spread_bounded) << seed;
    EXPECT_NE(pot.first_multiplicity_round, static_cast<std::size_t>(-1)) << seed;
    EXPECT_GE(pot.phase_count, 1u);
  }
}

TEST(Analysis, MajorityStartsWithMultiplicity) {
  rng r(7);
  const auto res = traced_run(workloads::with_majority(8, 3, r));
  const auto pot = check_potentials(res);
  EXPECT_EQ(pot.first_multiplicity_round, 0u);
}

TEST(JsonReport, ContainsCoreFields) {
  rng r(8);
  const auto res = traced_run(workloads::uniform_random(5, r));
  std::ostringstream os;
  write_json_report(os, res);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"status\": \"gathered\""), std::string::npos);
  EXPECT_NE(json.find("\"phases\""), std::string::npos);
  EXPECT_NE(json.find("\"potentials\""), std::string::npos);
  EXPECT_NE(json.find("\"rounds_detail\""), std::string::npos);
  EXPECT_NE(json.find("\"gather_point\""), std::string::npos);
}

TEST(JsonReport, BalancedBracesAndQuotes) {
  rng r(9);
  const auto res = traced_run(workloads::uniform_random(5, r));
  std::ostringstream os;
  write_json_report(os, res);
  const std::string json = os.str();
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '"') % 2, 0);
}

TEST(Svg, RendersWellFormedDocument) {
  rng r(11);
  const auto res = traced_run(workloads::uniform_random(5, r), 1, 4);
  std::ostringstream os;
  write_svg(os, res);
  const std::string svg = os.str();
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_NE(svg.find("<polyline"), std::string::npos);
  // One trajectory polyline per robot.
  std::size_t polylines = 0;
  for (std::size_t pos = svg.find("<polyline"); pos != std::string::npos;
       pos = svg.find("<polyline", pos + 1)) {
    ++polylines;
  }
  EXPECT_EQ(polylines, 5u);
  // Crashed robots render as X marks (two crossing lines in a group).
  if (res.crashes > 0) {
    EXPECT_NE(svg.find("stroke-width='2'"), std::string::npos);
  }
}

TEST(Svg, EmptyResultDoesNotCrash) {
  sim_result empty;
  std::ostringstream os;
  write_svg(os, empty);
  EXPECT_NE(os.str().find("svg"), std::string::npos);
}

TEST(JsonReport, NoTraceOmitsDetail) {
  auto sched = make_synchronous();
  auto move = make_full_movement();
  auto crash = make_no_crash();
  sim_options opts;  // record_trace = false
  rng r(10);
  const auto res =
      run_sim(workloads::uniform_random(5, r), kAlgo, *sched, *move, *crash, opts);
  std::ostringstream os;
  write_json_report(os, res);
  EXPECT_EQ(os.str().find("rounds_detail"), std::string::npos);
}

}  // namespace
}  // namespace gather::sim
