#include "sim/engine.h"

#include <algorithm>
#include <ostream>
#include <stdexcept>

#include "core/predicates.h"
#include "obs/events.h"
#include "obs/metrics_registry.h"
#include "sim/adversary_ext.h"
#include "sim/frame.h"
#include "sim/gathered.h"
#include "sim/round.h"
#include "sim/spec.h"
#include "util/check.h"

namespace gather::sim {

std::ostream& operator<<(std::ostream& os, sim_status s) {
  return os << to_string(s);
}

sim_result run(const sim_spec& spec) {
  obs::prof_session profiling(spec.profile);
  const auto require = [](bool ok, const char* what) {
    if (!ok) throw std::invalid_argument(what);
  };
  require(spec.algorithm != nullptr, "sim_spec: algorithm unset");
  require(spec.scheduler != nullptr, "sim_spec: scheduler unset");
  require(spec.movement != nullptr, "sim_spec: movement unset");
  require(spec.crash != nullptr, "sim_spec: crash unset");
  require(!spec.initial.empty(), "sim_spec: no robots");

  std::vector<vec2> positions = spec.initial;
  const std::size_t n = positions.size();
  std::vector<std::uint8_t> live(n, 1);
  std::size_t live_count = n;

  const configuration initial(positions);
  const double delta = run_delta(spec.options.delta_fraction, initial);
  const bool initial_bivalent =
      config::classify(initial).cls == config_class::bivalent;

  sim_result result;
  result.delta_abs = delta;
  rng random(spec.options.seed);
  std::vector<geom::similarity> frames;
  if (spec.options.local_frames) frames = random_frames(n, random);

  // Per-round facts accumulate into a run-local registry (stable references,
  // O(1) updates); the bespoke sim_result counters are copied out of it at
  // the end and the whole registry merges into the external one, if any.
  obs::metrics_registry local;
  std::uint64_t& m_rounds = local.counter("sim.rounds");
  std::uint64_t& m_activations = local.counter("sim.activations");
  std::uint64_t& m_truncated = local.counter("sim.moves_truncated");
  std::uint64_t& m_crashes = local.counter("sim.crashes");
  std::uint64_t& m_wait_free = local.counter("sim.wait_free_violations");
  std::uint64_t& m_bivalent = local.counter("sim.bivalent_entries");
  std::uint64_t& m_transitions = local.counter("sim.class_transitions");
  obs::histogram& m_active = local.hist("sim.active_per_round", obs::pow2_bounds(10));
  local.counter("sim.runs") = 1;
  local.gauge("sim.delta_abs") = delta;
  adversary_steps adversary{*spec.crash, *spec.movement, delta, spec.sink,
                            spec.run_id, m_crashes, m_truncated};

  // Round-start configuration, recanonicalized in place from `positions`.
  // Every write to `positions` marks the robot in `moved`, the apply_moves
  // hint, so a round that moved k robots recanonicalizes in O(k) when the
  // delta path applies; before the first round every robot counts as
  // written.
  configuration cfg;
  pin_tolerance(cfg, delta);
  std::vector<std::uint8_t> moved(n, 1);
  bool snap_identity = false;  // the last executed snap pass changed nothing
  configuration local_config;  // local-frames LOOK scratch (reused storage)
  // Step-loop scratch buffers: cleared and refilled each round so the steady
  // state allocates nothing.
  std::vector<vec2> next;
  std::vector<vec2> stationary;
  std::vector<std::uint8_t> active;
  std::vector<vec2> local_pts;

  // Def. 9 over the live robots; byzantine robots are not required to gather
  // (only correct ones are).
  gathered_check gathered;
  const auto counted = [&](std::size_t i) {
    return live[i] != 0 &&
           (spec.byzantine == nullptr || !spec.byzantine->is_byzantine(i));
  };
  const auto never_refuted = [](std::size_t, vec2) { return false; };

  std::vector<std::size_t> starving(n, 0);
  bool have_prev_cls = false;
  config_class prev_cls = config_class::asymmetric;

  for (std::size_t round = 0; round < spec.options.max_rounds; ++round) {
    // Transient faults strike before anyone observes this round.
    if (spec.perturbation != nullptr) {
      for (const auto& [idx, pos] :
           spec.perturbation->perturb(round, positions, live, random)) {
        if (idx < n && live[idx]) {
          positions[idx] = pos;
          moved[idx] = 1;
        }
      }
    }
    const bool no_op = cfg.apply_moves(positions, moved).no_op;
    moved.assign(n, 0);
    const configuration& c = cfg;
#ifdef GATHER_CHECK_INVARIANTS
    {
      // Robots are conserved: every round's snapshot accounts for exactly n
      // robots (crashed ones stay visible), and the liveness mask tracks them.
      int total_multiplicity = 0;
      for (const auto& op : c.occupied()) total_multiplicity += op.multiplicity;
      GATHER_CHECK(static_cast<std::size_t>(total_multiplicity) == n,
                   "per-round multiplicity conservation (sum mult == n)");
      GATHER_CHECK(live.size() == n, "liveness mask covers every robot");
    }
#endif
    // The snap pass, skipped when provably an identity: the last *executed*
    // pass changed nothing, and a no_op round means the positions (and the
    // canonical state the snap map is derived from) are bitwise identical to
    // the ones that pass ran on.  (no_op alone is not enough: the first snap
    // after a change can itself move positions.)
    if (!(no_op && snap_identity)) {
      snap_identity = !snap_positions(c, positions, moved);
    }
    const config_class cls = config::classify(c).cls;
    result.class_history.push_back(cls);
    if (spec.sink != nullptr) {
      spec.sink->on_event(obs::event::round_start(
          spec.run_id, round, enum_name(cls), live_count));
    }
    if (have_prev_cls && cls != prev_cls) {
      ++m_transitions;
      if (spec.sink != nullptr) {
        spec.sink->on_event(obs::event::class_transition(
            spec.run_id, round, enum_name(prev_cls), enum_name(cls)));
      }
    }
    have_prev_cls = true;
    prev_cls = cls;

    if (gathered(c, positions, counted, never_refuted, *spec.algorithm)) {
      result.status = sim_status::gathered;
      result.rounds = round;
      for (std::size_t i = 0; i < n; ++i) {
        if (live[i]) {
          result.gather_point = c.snapped(positions[i]);
          break;
        }
      }
      if (spec.sink != nullptr) {
        spec.sink->on_event(obs::event::gathered(
            spec.run_id, round, result.gather_point.x, result.gather_point.y));
      }
      break;
    }

    // One destination computation per occupied location per round: all
    // active robots observe the same round-start configuration, so (in the
    // global frame) their decisions coincide with these.
    const auto dests = core::destinations(c, *spec.algorithm);
    const bool all_stay = find_stationary(c, dests, stationary);
    if (spec.options.check_wait_freeness && cls != config_class::bivalent &&
        stationary.size() > 1) {
      ++m_wait_free;
      if (spec.sink != nullptr) {
        spec.sink->on_event(obs::event::lemma_violation(spec.run_id, round,
                                                        "wait-freeness"));
      }
    }
    if (!initial_bivalent && cls == config_class::bivalent) {
      ++m_bivalent;
      if (spec.sink != nullptr) {
        spec.sink->on_event(obs::event::lemma_violation(spec.run_id, round,
                                                        "bivalent-entry"));
      }
    }
    // Fixpoint: every occupied location instructed to stay, yet not gathered
    // (live robots on >= 2 locations).  Nothing can ever change; stop early.
    // (Not a fixpoint when external actors -- byzantine robots or transient
    // faults -- can still reshape the configuration.)
    if (spec.byzantine == nullptr && spec.perturbation == nullptr && all_stay) {
      result.status = sim_status::stalled;
      result.rounds = round;
      break;
    }

    // 1. Crash injection.
    const vec2* elected = stationary.empty() ? nullptr : &stationary.front();
    live_count -= adversary.crash_robots(round, positions, elected, random,
                                         live, live_count);

    // 2. Activation.
    const schedule_context sctx{round, positions, live};
    active.assign(n, 0);
    for (std::size_t idx : spec.scheduler->select(sctx, random)) {
      if (idx < n && live[idx]) active[idx] = 1;
    }
    // Bounded-fairness backstop.
    for (std::size_t i = 0; i < n; ++i) {
      if (live[i] && starving[i] >= spec.options.fairness_bound) {
        active[i] = 1;
      }
    }
    if (std::find(active.begin(), active.end(), std::uint8_t{1}) == active.end()) {
      for (std::size_t i = 0; i < n; ++i) {
        if (live[i]) {
          active[i] = 1;
          break;
        }
      }
    }
    m_active.observe(static_cast<double>(
        std::count(active.begin(), active.end(), std::uint8_t{1})));

    if (spec.options.record_trace) {
      result.trace.push_back({round, positions, active, live, cls});
    }

    // 3. Atomic Look-Compute-Move against the round-start configuration.
    next = positions;  // copy-assign reuses capacity
    for (std::size_t i = 0; i < n; ++i) {
      if (!active[i]) {
        if (live[i]) ++starving[i];
        continue;
      }
      starving[i] = 0;
      ++m_activations;
      if (spec.sink != nullptr) {
        spec.sink->on_event(obs::event::activation(
            spec.run_id, round, static_cast<std::int64_t>(i)));
      }
      const vec2 self = c.snapped(positions[i]);
      vec2 dest;
      if (spec.byzantine != nullptr && spec.byzantine->is_byzantine(i)) {
        dest = spec.byzantine->destination(i, c, self, random);
      } else if (spec.options.local_frames) {
        // LOOK through the robot's own similarity frame; move back through
        // its inverse.  local_config keeps the default (spread-scaled)
        // tolerance policy, so apply_moves reproduces configuration(pts)
        // bit for bit while reusing the buffers across robots and rounds.
        const geom::similarity& f = frames[i];
        local_pts.resize(n);
        f.apply_batch(positions.data(), n, local_pts.data());
        local_config.apply_moves(local_pts);
        const vec2 local_dest = spec.algorithm->destination(
            {local_config, local_config.snapped(f.apply(self))});
        dest = f.invert(local_dest);
      } else {
        dest = robot_destination(c, dests, self);
      }
      next[i] = adversary.move(c, round, i, positions[i], dest, random);
      moved[i] = 1;
    }
    // Swap (not move): swapping keeps `next`'s capacity for the following
    // round.
    std::swap(positions, next);
    result.rounds = round + 1;
  }

  result.final_positions = positions;
  result.final_live = live;
  if (result.status != sim_status::gathered && initial_bivalent) {
    result.status = sim_status::started_bivalent;
  }

  m_rounds = result.rounds;
  if (result.status == sim_status::gathered) {
    local.counter("sim.gathered") = 1;
    local.hist("sim.rounds_to_gather", obs::pow2_bounds(16))
        .observe(static_cast<double>(result.rounds));
  }
  result.crashes = m_crashes;
  result.wait_free_violations = m_wait_free;
  result.bivalent_entries = m_bivalent;
  if (spec.metrics != nullptr) spec.metrics->merge(local);
  return result;
}

}  // namespace gather::sim
