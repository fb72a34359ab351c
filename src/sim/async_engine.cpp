#include "sim/async_engine.h"

#include <algorithm>
#include <numeric>
#include <ostream>
#include <stdexcept>

#include "obs/events.h"
#include "obs/metrics_registry.h"
#include "sim/gathered.h"
#include "sim/round.h"
#include "sim/spec.h"

namespace gather::sim {

std::ostream& operator<<(std::ostream& os, async_policy p) {
  return os << to_string(p);
}

namespace {

enum class phase : std::uint8_t { idle, armed };

}  // namespace

async_result run_async(const sim_spec& spec) {
  obs::prof_session profiling(spec.profile);
  const auto require = [](bool ok, const char* what) {
    if (!ok) throw std::invalid_argument(what);
  };
  require(spec.algorithm != nullptr, "sim_spec: algorithm unset");
  require(spec.movement != nullptr, "sim_spec: movement unset");
  require(spec.crash != nullptr, "sim_spec: crash unset");
  require(!spec.initial.empty(), "sim_spec: no robots");

  std::vector<geom::vec2> positions = spec.initial;
  async_result result;
  rng random(spec.async.seed);
  const std::size_t n = positions.size();

  const config::configuration initial(positions);
  const double delta = run_delta(spec.async.delta_fraction, initial);
  result.delta_abs = delta;
  const bool initial_bivalent =
      config::classify(initial).cls == config::config_class::bivalent;

  obs::metrics_registry local;
  std::uint64_t& m_steps = local.counter("async.steps");
  std::uint64_t& m_cycles = local.counter("async.cycles");
  std::uint64_t& m_stale = local.counter("async.stale_moves");
  std::uint64_t& m_crashes = local.counter("async.crashes");
  std::uint64_t& m_truncated = local.counter("async.moves_truncated");
  local.counter("async.runs") = 1;
  local.gauge("async.delta_abs") = delta;
  adversary_steps adversary{*spec.crash, *spec.movement, delta, spec.sink,
                            spec.run_id, m_crashes, m_truncated};

  std::vector<phase> phases(n, phase::idle);
  std::vector<geom::vec2> targets(n);
  std::vector<std::uint8_t> live(n, 1);
  // The live robots in index order; only crashes change it.
  std::vector<std::size_t> live_idx(n);
  std::iota(live_idx.begin(), live_idx.end(), std::size_t{0});
  // Starvation clock: robot i's stamp is 1 + the step it was last picked
  // (0 = never), so it has starved for `step - stamp` steps.
  std::vector<std::uint64_t> stamp(n, 0);

  // Positions epoch: bumped by every Move that changes a position and by
  // every snap pass that changes any.  A Move is stale iff the epoch moved
  // since that robot's Look.
  std::uint64_t epoch = 0;
  std::vector<std::uint64_t> look_epoch(n, 0);
  // Write mask (the apply_moves moved hint) and whether any robot was
  // written since the last recanonicalization; all set for the first step.
  std::vector<std::uint8_t> moved(n, 1);
  bool wrote = true;
  bool snap_identity = false;  // the last executed snap pass changed nothing

  // Step-start configuration, recanonicalized in place: the refreshed-tol
  // policy recomputes tol::for_points with the delta-derived absolute floor
  // on every apply_moves, matching a freshly built configuration bit for
  // bit, and a step that wrote nothing skips the mutation (a no_op: positions
  // are bitwise unchanged) and keeps the derived-geometry cache.
  config::configuration cfg;
  pin_tolerance(cfg, delta);
  const config::configuration& c = cfg;

  gathered_check gathered;
  const auto counted = [&](std::size_t i) { return live[i] != 0; };
  // A live robot armed with a stale far-away target will still move.
  const auto armed_elsewhere = [&](std::size_t i, geom::vec2 p) {
    return phases[i] == phase::armed &&
           !c.tolerance().same_point(targets[i], p);
  };

  std::size_t step = 0;
  std::size_t la_ma_cursor = 0;  // for look_all_move_all
  bool la_phase_is_look = true;

  for (; step < spec.async.max_steps; ++step) {
    // Recanonicalize only after a write; a step that wrote nothing leaves
    // positions bitwise unchanged, which apply_moves would report as a no_op.
    bool no_op = true;
    if (wrote) {
      no_op = cfg.apply_moves(positions, moved).no_op;
      moved.assign(n, 0);
      wrote = false;
    }
    // The snap pass, skipped when provably an identity (same reasoning as
    // the ATOM engine: no_op step + a previously observed identity snap).
    if (!(no_op && snap_identity)) {
      snap_identity = !snap_positions(c, positions, moved);
      if (!snap_identity) {
        wrote = true;
        ++epoch;
      }
    }

    if (gathered(c, positions, counted, armed_elsewhere, *spec.algorithm)) {
      result.status = sim_status::gathered;
      result.gather_point = c.snapped(positions[live_idx.front()]);
      if (spec.sink != nullptr) {
        spec.sink->on_event(obs::event::gathered(
            spec.run_id, step, result.gather_point.x, result.gather_point.y));
      }
      break;
    }

    if (adversary.crash_robots(step, positions, nullptr, random, live,
                               live_idx.size()) > 0) {
      std::erase_if(live_idx, [&](std::size_t i) { return live[i] == 0; });
    }

    // Pick the robot whose phase advances, per the interleaving policy.
    std::size_t pick = live_idx.front();
    switch (spec.async.policy) {
      case async_policy::atomic_sequential: {
        // Finish an armed robot first; otherwise arm the next in index order.
        const auto armed = std::find_if(live_idx.begin(), live_idx.end(), [&](std::size_t i) {
          return phases[i] == phase::armed;
        });
        pick = (armed != live_idx.end()) ? *armed
                                         : live_idx[step / 2 % live_idx.size()];
        break;
      }
      case async_policy::random_interleaving:
        pick = live_idx[random.uniform_int(0, live_idx.size() - 1)];
        break;
      case async_policy::look_all_move_all: {
        // Sweep all live robots through Look, then all through Move.
        if (la_ma_cursor >= live_idx.size()) {
          la_ma_cursor = 0;
          la_phase_is_look = !la_phase_is_look;
        }
        pick = live_idx[la_ma_cursor++];
        // Skip robots already in the sweep's desired state.
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
    // Fairness backstop: the lowest-index live robot that has not been
    // picked for fairness_bound steps.  At most fairness_bound robots were
    // picked in the last fairness_bound steps, so the scan stops within the
    // first fairness_bound + 1 live robots.
    if (step >= spec.async.fairness_bound) {
      const auto starved =
          std::find_if(live_idx.begin(), live_idx.end(), [&](std::size_t i) {
            return stamp[i] + spec.async.fairness_bound <= step;
          });
      if (starved != live_idx.end()) pick = *starved;
    }
    stamp[pick] = step + 1;

    if (phases[pick] == phase::idle) {
      targets[pick] =
          spec.algorithm->destination({c, c.snapped(positions[pick])});
      look_epoch[pick] = epoch;
      phases[pick] = phase::armed;
      if (spec.sink != nullptr) {
        spec.sink->on_event(obs::event::activation(
            spec.run_id, step, static_cast<std::int64_t>(pick)));
      }
    } else {
      if (epoch != look_epoch[pick]) ++m_stale;
      const geom::vec2 stop =
          adversary.move(c, step, pick, positions[pick], targets[pick], random);
      if (stop != positions[pick]) {
        positions[pick] = stop;
        moved[pick] = 1;
        wrote = true;
        ++epoch;
      }
      phases[pick] = phase::idle;
      ++m_cycles;
    }
  }

  result.steps = step;
  result.final_positions = positions;
  result.final_live = live;
  if (result.status != sim_status::gathered && initial_bivalent) {
    result.status = sim_status::started_bivalent;
  }

  m_steps = result.steps;
  result.cycles = m_cycles;
  result.stale_moves = m_stale;
  result.crashes = m_crashes;
  if (result.status == sim_status::gathered) {
    local.counter("async.gathered") = 1;
  }
  if (spec.metrics != nullptr) spec.metrics->merge(local);
  return result;
}

}  // namespace gather::sim
