#include "sim/async_engine.h"

#include <algorithm>
#include <numeric>
#include <ostream>
#include <stdexcept>

#include "obs/events.h"
#include "obs/metrics_registry.h"
#include "sim/gathered.h"
#include "sim/spec.h"

namespace gather::sim {

std::ostream& operator<<(std::ostream& os, async_policy p) {
  return os << to_string(p);
}

namespace {

enum class phase : std::uint8_t { idle, armed };

}  // namespace

async_engine::async_engine(const sim_spec& spec)
    : positions_(spec.initial),
      algo_(spec.algorithm),
      movement_(spec.movement),
      crash_(spec.crash),
      opts_(spec.async),
      sink_(spec.sink),
      metrics_(spec.metrics),
      run_id_(spec.run_id) {
  if (algo_ == nullptr) throw std::invalid_argument("sim_spec: algorithm unset");
  if (movement_ == nullptr) throw std::invalid_argument("sim_spec: movement unset");
  if (crash_ == nullptr) throw std::invalid_argument("sim_spec: crash unset");
  if (positions_.empty()) throw std::invalid_argument("sim_spec: no robots");
}

async_result async_engine::run() {
  async_result result;
  rng random(opts_.seed);
  const std::size_t n = positions_.size();

  const config::configuration c0(positions_);
  const double delta_abs = std::max(opts_.delta_fraction * c0.diameter(), 1e-12);
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
  std::vector<geom::vec2> targets(n);
  std::vector<std::uint8_t> live(n, 1);
  // The live robots in index order; only crashes change it.
  std::vector<std::size_t> live_idx(n);
  std::iota(live_idx.begin(), live_idx.end(), std::size_t{0});
  // Starvation clock: robot i's stamp is 1 + the step it was last picked
  // (0 = never), so it has starved for `step - stamp` steps.
  std::vector<std::uint64_t> stamp(n, 0);

  // Positions epoch: bumped by every write that changes a position (a Move
  // or a snap).  A Move is stale iff the epoch moved since that robot's Look.
  std::uint64_t epoch = 0;
  std::vector<std::uint64_t> look_epoch(n, 0);
  // Write mask (the apply_moves moved hint) and whether any robot was
  // written since the last recanonicalization; all set for the first step.
  std::vector<std::uint8_t> moved(n, 1);
  bool wrote = true;
  auto write = [&](std::size_t i, geom::vec2 p) {
    if (p == positions_[i]) return;
    positions_[i] = p;
    moved[i] = 1;
    wrote = true;
    ++epoch;
  };
  bool snap_identity = false;  // the last executed snap pass changed nothing

  // Step-start configuration, recanonicalized in place: the refreshed-tol
  // policy recomputes tol::for_points with the delta-derived absolute floor
  // on every apply_moves, matching a freshly built configuration bit for
  // bit, and a step that wrote nothing skips the mutation (a no_op: positions
  // are bitwise unchanged) and keeps the derived-geometry cache.
  config::configuration cfg;
  cfg.set_tol_refresh(1e-9 * delta_abs);
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

  for (; step < opts_.max_steps; ++step) {
    // Recanonicalize only after a write; a step that wrote nothing leaves
    // positions bitwise unchanged, which apply_moves would report as a no_op.
    bool no_op = true;
    if (wrote) {
      no_op = cfg.apply_moves(positions_, moved).no_op;
      moved.assign(n, 0);
      wrote = false;
    }
    // Snap pass, skipped when provably an identity (same reasoning as the
    // ATOM engine: no_op step + a previously observed identity snap).
    if (!(no_op && snap_identity)) {
      bool snap_changed = false;
      for (std::size_t i = 0; i < n; ++i) {
        const geom::vec2 s = c.snapped(positions_[i]);
        if (s != positions_[i]) {
          write(i, s);
          snap_changed = true;
        }
      }
      snap_identity = !snap_changed;
    }

    if (gathered(c, positions_, counted, armed_elsewhere, *algo_)) {
      result.status = sim_status::gathered;
      result.gather_point = c.snapped(positions_[live_idx.front()]);
      if (sink_ != nullptr) {
        sink_->on_event(obs::event::gathered(
            run_id_, step, result.gather_point.x, result.gather_point.y));
      }
      break;
    }

    // Crash injection (budget semantics as in the ATOM engine).
    const crash_context cctx{step, positions_, live, nullptr};
    for (std::size_t idx : crash_->crashes(cctx, random)) {
      if (idx >= n || !live[idx]) continue;
      if (live_idx.size() <= 1) break;
      live[idx] = 0;
      live_idx.erase(std::lower_bound(live_idx.begin(), live_idx.end(), idx));
      ++m_crashes;
      if (sink_ != nullptr) {
        sink_->on_event(
            obs::event::crash(run_id_, step, static_cast<std::int64_t>(idx)));
      }
    }

    // Pick the robot whose phase advances, per the interleaving policy.
    std::size_t pick = live_idx.front();
    switch (opts_.policy) {
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
    if (step >= opts_.fairness_bound) {
      const auto starved =
          std::find_if(live_idx.begin(), live_idx.end(), [&](std::size_t i) {
            return stamp[i] + opts_.fairness_bound <= step;
          });
      if (starved != live_idx.end()) pick = *starved;
    }
    stamp[pick] = step + 1;

    if (phases[pick] == phase::idle) {
      targets[pick] = algo_->destination({c, c.snapped(positions_[pick])});
      look_epoch[pick] = epoch;
      phases[pick] = phase::armed;
      if (sink_ != nullptr) {
        sink_->on_event(obs::event::activation(
            run_id_, step, static_cast<std::int64_t>(pick)));
      }
    } else {
      if (epoch != look_epoch[pick]) ++m_stale;
      const geom::vec2 from = positions_[pick];
      write(pick,
            movement_->stop_point(from, targets[pick], delta_abs, random));
      if (!c.tolerance().same_point(positions_[pick], targets[pick])) {
        ++m_truncated;
        if (sink_ != nullptr) {
          sink_->on_event(obs::event::move_truncated(
              run_id_, step, static_cast<std::int64_t>(pick),
              geom::distance(from, targets[pick]),
              geom::distance(from, positions_[pick])));
        }
      }
      phases[pick] = phase::idle;
      ++m_cycles;
    }
  }

  result.steps = step;
  result.final_positions = positions_;
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
  if (metrics_ != nullptr) metrics_->merge(local);
  return result;
}

async_result run_async(const sim_spec& spec) {
  obs::prof_session profiling(spec.profile);
  async_engine e(spec);
  return e.run();
}

}  // namespace gather::sim
