// ASYNC engine equivalence: the engine's maintained-state step loop against
// a test-only oracle, the plain per-step loop that rescans every robot.
//
// The oracle rebuilds the live list, runs the starvation counters over
// every live robot, recanonicalizes through apply_moves with the step's
// write mask and evaluates Def. 9 by a scan from robot 0 on every step.
// Its staleness rule is the engine's contract stated directly: a Move is
// stale iff some position changed between that robot's Look and its Move.
// Both runs must agree bit for bit on every async_result field, on the
// metrics registry and on the JSONL event stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/wait_free_gather.h"
#include "obs/events.h"
#include "obs/metrics_registry.h"
#include "sim/sim.h"
#include "workloads/generators.h"

namespace gather {
namespace {

using geom::vec2;
using sim::async_policy;
using sim::async_result;

const core::wait_free_gather kAlgo;

// Sends each robot to the occupied location farthest from it, so two robots
// trade places; robots on one point stay.
class swap_algorithm final : public core::gathering_algorithm {
 public:
  [[nodiscard]] vec2 destination(const core::snapshot& s) const override {
    vec2 far = s.self;
    for (const config::occupied_point& o : s.observed.occupied()) {
      if (geom::distance(o.position, s.self) > geom::distance(far, s.self)) {
        far = o.position;
      }
    }
    return far;
  }
  [[nodiscard]] std::string_view name() const override { return "swap"; }
};
const swap_algorithm kSwap;

async_result reference_run_async(const sim::sim_spec& spec) {
  enum class phase : std::uint8_t { idle, armed };
  const sim::async_options& opts = spec.async;
  const core::gathering_algorithm& algo = *spec.algorithm;
  std::vector<vec2> positions = spec.initial;
  async_result result;
  sim::rng random(opts.seed);
  const std::size_t n = positions.size();

  const config::configuration c0(positions);
  const double delta_abs = std::max(opts.delta_fraction * c0.diameter(), 1e-12);
  result.delta_abs = delta_abs;
  const bool initial_bivalent =
      config::classify(c0).cls == config::config_class::bivalent;

  obs::metrics_registry local;
  std::uint64_t& m_steps = local.counter("async.steps");
  std::uint64_t& m_cycles = local.counter("async.cycles");
  std::uint64_t& m_stale = local.counter("async.stale_moves");
  std::uint64_t& m_crashes = local.counter("async.crashes");
  std::uint64_t& m_truncated = local.counter("async.moves_truncated");
  local.counter("async.runs") = 1;
  local.gauge("async.delta_abs") = delta_abs;

  std::vector<phase> phases(n, phase::idle);
  std::vector<vec2> targets(n);
  std::vector<std::uint64_t> look_writes(n, 0);
  std::uint64_t writes = 0;  // position changes so far
  std::vector<std::uint8_t> live(n, 1);
  std::vector<std::size_t> starving(n, 0);
  std::vector<std::uint8_t> moved(n, 1);
  bool snap_identity = false;
  config::configuration cfg;
  cfg.set_tol_refresh(1e-9 * delta_abs);

  auto gathered = [&](const config::configuration& c) {
    const vec2* point = nullptr;
    vec2 first{};
    for (std::size_t i = 0; i < n; ++i) {
      if (!live[i]) continue;
      const vec2 p = c.snapped(positions[i]);
      if (point == nullptr) {
        first = p;
        point = &first;
      } else if (!c.tolerance().same_point(*point, p)) {
        return false;
      }
      if (phases[i] == phase::armed &&
          !c.tolerance().same_point(targets[i], p)) {
        return false;
      }
    }
    if (point == nullptr) return false;
    return c.tolerance().same_point(algo.destination({c, *point}), *point);
  };

  std::size_t step = 0;
  auto look = [&](std::size_t i, const config::configuration& c) {
    targets[i] = algo.destination({c, c.snapped(positions[i])});
    look_writes[i] = writes;
    phases[i] = phase::armed;
    if (spec.sink != nullptr) {
      spec.sink->on_event(obs::event::activation(
          spec.run_id, step, static_cast<std::int64_t>(i)));
    }
  };
  auto move = [&](std::size_t i, const config::configuration& c) {
    if (writes != look_writes[i]) ++m_stale;
    const vec2 from = positions[i];
    positions[i] =
        spec.movement->stop_point(from, targets[i], delta_abs, random);
    if (positions[i] != from) ++writes;
    moved[i] = 1;
    if (!c.tolerance().same_point(positions[i], targets[i])) {
      ++m_truncated;
      if (spec.sink != nullptr) {
        spec.sink->on_event(obs::event::move_truncated(
            spec.run_id, step, static_cast<std::int64_t>(i),
            geom::distance(from, targets[i]),
            geom::distance(from, positions[i])));
      }
    }
    phases[i] = phase::idle;
    ++m_cycles;
  };

  std::size_t la_ma_cursor = 0;
  bool la_phase_is_look = true;
  for (; step < opts.max_steps; ++step) {
    const config::mutation_report rep = cfg.apply_moves(positions, moved);
    moved.assign(n, 0);
    const config::configuration& c = cfg;
    if (!(rep.no_op && snap_identity)) {
      bool snap_changed = false;
      for (std::size_t i = 0; i < n; ++i) {
        const vec2 s = c.snapped(positions[i]);
        if (s.x != positions[i].x || s.y != positions[i].y) {
          positions[i] = s;
          moved[i] = 1;
          snap_changed = true;
          ++writes;
        }
      }
      snap_identity = !snap_changed;
    }

    if (gathered(c)) {
      result.status = sim::sim_status::gathered;
      for (std::size_t i = 0; i < n; ++i) {
        if (live[i]) {
          result.gather_point = c.snapped(positions[i]);
          break;
        }
      }
      if (spec.sink != nullptr) {
        spec.sink->on_event(obs::event::gathered(
            spec.run_id, step, result.gather_point.x, result.gather_point.y));
      }
      break;
    }

    std::size_t live_count = static_cast<std::size_t>(
        std::count(live.begin(), live.end(), std::uint8_t{1}));
    const sim::crash_context cctx{step, positions, live, nullptr};
    for (std::size_t idx : spec.crash->crashes(cctx, random)) {
      if (idx >= n || !live[idx]) continue;
      if (live_count <= 1) break;
      live[idx] = 0;
      --live_count;
      ++m_crashes;
      if (spec.sink != nullptr) {
        spec.sink->on_event(obs::event::crash(
            spec.run_id, step, static_cast<std::int64_t>(idx)));
      }
    }

    std::vector<std::size_t> live_idx;
    for (std::size_t i = 0; i < n; ++i) {
      if (live[i]) live_idx.push_back(i);
    }
    std::size_t pick = live_idx.front();
    switch (opts.policy) {
      case async_policy::atomic_sequential: {
        const auto armed = std::find_if(
            live_idx.begin(), live_idx.end(),
            [&](std::size_t i) { return phases[i] == phase::armed; });
        pick = (armed != live_idx.end()) ? *armed
                                         : live_idx[step / 2 % live_idx.size()];
        break;
      }
      case async_policy::random_interleaving:
        pick = live_idx[random.uniform_int(0, live_idx.size() - 1)];
        break;
      case async_policy::look_all_move_all: {
        if (la_ma_cursor >= live_idx.size()) {
          la_ma_cursor = 0;
          la_phase_is_look = !la_phase_is_look;
        }
        pick = live_idx[la_ma_cursor++];
        const phase want = la_phase_is_look ? phase::idle : phase::armed;
        std::size_t guard = 0;
        while (phases[pick] != want && guard++ < live_idx.size()) {
          if (la_ma_cursor >= live_idx.size()) {
            la_ma_cursor = 0;
            la_phase_is_look = !la_phase_is_look;
            break;
          }
          pick = live_idx[la_ma_cursor++];
        }
        break;
      }
    }
    for (std::size_t i : live_idx) {
      if (starving[i] >= opts.fairness_bound) {
        pick = i;
        break;
      }
    }
    for (std::size_t i : live_idx) ++starving[i];
    starving[pick] = 0;

    if (phases[pick] == phase::idle) {
      look(pick, c);
    } else {
      move(pick, c);
    }
  }

  result.steps = step;
  result.final_positions = positions;
  result.final_live = live;
  if (result.status != sim::sim_status::gathered && initial_bivalent) {
    result.status = sim::sim_status::started_bivalent;
  }
  m_steps = result.steps;
  result.cycles = m_cycles;
  result.stale_moves = m_stale;
  result.crashes = m_crashes;
  if (result.status == sim::sim_status::gathered) {
    local.counter("async.gathered") = 1;
  }
  if (spec.metrics != nullptr) spec.metrics->merge(local);
  return result;
}

// -- corpus -----------------------------------------------------------------

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

enum class crash_kind { none, one, half, robot0 };

struct async_case {
  std::string start;
  std::vector<vec2> pts;
  async_policy policy = async_policy::random_interleaving;
  std::string movement;
  crash_kind crashes = crash_kind::none;
  std::size_t max_steps = 0;
  std::uint64_t seed = 0;
  const core::gathering_algorithm* algorithm = &kAlgo;
};

std::unique_ptr<sim::crash_policy> make_crashes(crash_kind k, std::size_t n) {
  switch (k) {
    case crash_kind::none: return sim::make_no_crash();
    case crash_kind::one: return sim::make_random_crashes(1, 60);
    case crash_kind::half: return sim::make_random_crashes(n / 2, 60);
    case crash_kind::robot0: return sim::make_scheduled_crashes({{3, 0}});
  }
  return sim::make_no_crash();
}

std::unique_ptr<sim::movement_adversary> make_movement(
    const std::string& name) {
  for (const auto& m : sim::all_movements()) {
    if (m.name == name) return m.make();
  }
  return nullptr;
}

std::vector<vec2> make_start(const std::string& start, std::size_t n,
                             sim::rng& random) {
  if (start == "M") {
    return workloads::with_majority(n, std::max<std::size_t>(2, n / 3), random);
  }
  if (start == "QR") {
    return workloads::biangular(std::max<std::size_t>(2, n / 2), 0.4, random);
  }
  if (start == "A") return workloads::uniform_random(n, random);
  if (start == "L") return workloads::linear_unique_weber(n, random);
  return workloads::bivalent(n, random);
}

struct run_output {
  async_result res;
  std::string metrics_json;
  std::string jsonl;
};

run_output run_one(const async_case& k, bool reference) {
  auto move = make_movement(k.movement);
  auto crash = make_crashes(k.crashes, k.pts.size());
  obs::metrics_registry metrics;
  run_output out;
  obs::jsonl_string_sink sink(&out.jsonl);
  sim::sim_spec spec;
  spec.initial = k.pts;
  spec.algorithm = k.algorithm;
  spec.movement = move.get();
  spec.crash = crash.get();
  spec.async.policy = k.policy;
  spec.async.max_steps = k.max_steps;
  spec.async.seed = k.seed;
  spec.sink = &sink;
  spec.metrics = &metrics;
  spec.run_id = 7;
  out.res = reference ? reference_run_async(spec) : sim::run_async(spec);
  out.metrics_json = metrics.to_json();
  return out;
}

std::string describe(const async_case& k) {
  static const char* const crash_names[] = {"none", "one", "half", "robot0"};
  return k.start + " n=" + std::to_string(k.pts.size()) + " " +
         std::string(sim::to_string(k.policy)) + " " + k.movement +
         " crashes=" + crash_names[static_cast<int>(k.crashes)] +
         " seed=" + std::to_string(k.seed);
}

struct tally {
  std::size_t runs = 0;
  std::size_t gathered = 0;
  std::size_t stale = 0;
  std::size_t crashes = 0;
};

void expect_equivalent(const async_case& k, tally& t) {
  const run_output a = run_one(k, false);
  const run_output b = run_one(k, true);
  SCOPED_TRACE(describe(k));
  EXPECT_EQ(a.res.status, b.res.status);
  EXPECT_EQ(a.res.steps, b.res.steps);
  EXPECT_EQ(a.res.cycles, b.res.cycles);
  EXPECT_EQ(bits(a.res.gather_point.x), bits(b.res.gather_point.x));
  EXPECT_EQ(bits(a.res.gather_point.y), bits(b.res.gather_point.y));
  ASSERT_EQ(a.res.final_positions.size(), b.res.final_positions.size());
  for (std::size_t i = 0; i < a.res.final_positions.size(); ++i) {
    const vec2 pa = a.res.final_positions[i];
    const vec2 pb = b.res.final_positions[i];
    EXPECT_EQ(bits(pa.x), bits(pb.x)) << i;
    EXPECT_EQ(bits(pa.y), bits(pb.y)) << i;
  }
  EXPECT_EQ(a.res.final_live, b.res.final_live);
  EXPECT_EQ(a.res.crashes, b.res.crashes);
  EXPECT_EQ(a.res.stale_moves, b.res.stale_moves);
  EXPECT_EQ(bits(a.res.delta_abs), bits(b.res.delta_abs));
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.jsonl, b.jsonl);
  ++t.runs;
  if (a.res.status == sim::sim_status::gathered) ++t.gathered;
  t.stale += a.res.stale_moves;
  t.crashes += a.res.crashes;
}

constexpr async_policy kPolicies[] = {async_policy::atomic_sequential,
                                      async_policy::random_interleaving,
                                      async_policy::look_all_move_all};
const char* const kMovements[] = {"full", "minimal", "random-stop"};
const char* const kStarts[] = {"M", "QR", "A", "L", "B"};

// Every policy, movement, start and crash mode at small n, most of which
// gather within the step budget.
TEST(AsyncEquivalence, SmallSwarmsMatchOracle) {
  tally t;
  std::uint64_t seed = 1;
  for (const std::size_t n : {2, 3, 6, 13}) {
    for (const char* start : kStarts) {
      for (const async_policy policy : kPolicies) {
        for (const char* movement : kMovements) {
          for (const crash_kind crashes :
               {crash_kind::none, crash_kind::one, crash_kind::half,
                crash_kind::robot0}) {
            sim::rng r(seed);
            async_case k{start, make_start(start, n, r), policy, movement,
                         crashes, 1500, seed};
            ++seed;
            expect_equivalent(k, t);
          }
        }
      }
    }
  }
  EXPECT_EQ(t.runs, 720u);
  EXPECT_GT(t.gathered, t.runs / 2);
  EXPECT_GT(t.stale, 0u);
  EXPECT_GT(t.crashes, 0u);
}

// More live robots than fairness_bound (128): from step 128 on the
// starvation backstop overrides every pick, so it decides each step.
TEST(AsyncEquivalence, SwarmsAboveFairnessBoundMatchOracle) {
  tally t;
  std::uint64_t seed = 5000;
  for (const char* start : kStarts) {
    for (const async_policy policy : kPolicies) {
      for (const crash_kind crashes :
           {crash_kind::none, crash_kind::half, crash_kind::robot0}) {
        // Class A and QR moves reclassify 140 robots: keep those runs few
        // and short.
        const bool costly =
            start == std::string("A") || start == std::string("QR");
        if (costly && crashes != crash_kind::none) continue;
        sim::rng r(seed);
        async_case k{start, make_start(start, 140, r), policy, "random-stop",
                     crashes, costly ? 200u : 500u, seed};
        ++seed;
        expect_equivalent(k, t);
      }
    }
  }
  EXPECT_EQ(t.runs, 33u);
  EXPECT_GT(t.crashes, 0u);
}

// Four robots on a square under look-all-move-all with full movement: all
// four Look, then all four Move to the centre.  Every Move after the first
// is stale.  The first two Moves cancel in the sum of positions, so the
// former checksum rule missed the third robot and counted two.
TEST(AsyncEquivalence, StaleMovesCountEveryInterveningWrite) {
  const async_case k{"square",
                     {{1, 0}, {-1, 0}, {0, 1}, {0, -1}},
                     async_policy::look_all_move_all,
                     "full",
                     crash_kind::none,
                     400,
                     1};
  tally t;
  expect_equivalent(k, t);
  const run_output a = run_one(k, false);
  EXPECT_EQ(a.res.status, sim::sim_status::gathered);
  EXPECT_EQ(a.res.stale_moves, 3u);
}

// Two robots trade places under look-all-move-all with full movement: both
// Look, then robot 0 moves onto robot 1.  Both now stand on one point, but
// robot 1 is still armed with robot 0's old location, so Def. 9 must not
// report gathered; robot 1 moves away and the swap repeats.
TEST(AsyncEquivalence, ArmedRobotWithStaleTargetRefutesGathered) {
  async_case k{"swap",
               {{0, 0}, {1, 0}},
               async_policy::look_all_move_all,
               "full",
               crash_kind::none,
               40,
               1};
  k.algorithm = &kSwap;
  tally t;
  expect_equivalent(k, t);
  const run_output a = run_one(k, false);
  EXPECT_NE(a.res.status, sim::sim_status::gathered);
  EXPECT_EQ(a.res.steps, 40u);
  EXPECT_EQ(a.res.cycles, 20u);
}

}  // namespace
}  // namespace gather
