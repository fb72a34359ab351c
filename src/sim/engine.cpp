#include "sim/engine.h"

#include <algorithm>
#include <ostream>
#include <stdexcept>

#include "core/predicates.h"
#include "obs/events.h"
#include "obs/metrics_registry.h"
#include "sim/adversary_ext.h"
#include "sim/frame.h"
#include "sim/spec.h"
#include "util/check.h"

namespace gather::sim {

std::ostream& operator<<(std::ostream& os, sim_status s) {
  return os << to_string(s);
}

engine::engine(const sim_spec& spec)
    : positions_(spec.initial),
      live_(positions_.size(), 1),
      algo_(spec.algorithm),
      scheduler_(spec.scheduler),
      movement_(spec.movement),
      crash_(spec.crash),
      opts_(spec.options),
      perturbation_(spec.perturbation),
      byzantine_(spec.byzantine),
      sink_(spec.sink),
      metrics_(spec.metrics),
      run_id_(spec.run_id) {
  if (algo_ == nullptr) throw std::invalid_argument("sim_spec: algorithm unset");
  if (scheduler_ == nullptr) throw std::invalid_argument("sim_spec: scheduler unset");
  if (movement_ == nullptr) throw std::invalid_argument("sim_spec: movement unset");
  if (crash_ == nullptr) throw std::invalid_argument("sim_spec: crash unset");
  if (positions_.empty()) throw std::invalid_argument("sim_spec: no robots");
  const configuration c(positions_);
  delta_abs_ = std::max(opts_.delta_fraction * c.diameter(), 1e-12);
  // The model's delta gives the run an absolute length scale: robots within a
  // vanishing fraction of it are physically indistinguishable.  Without this
  // floor, per-robot frame round-off (~1 ulp of the coordinate magnitude)
  // could keep nearly-gathered robots forever "distinct" once the swarm
  // diameter has collapsed below the coordinate noise.
  config_.set_tol_refresh(1e-9 * delta_abs_);
  // Before the first round every robot counts as freshly written.
  scratch_moved_.assign(positions_.size(), 1);
}

const configuration& engine::current_configuration() {
  last_report_ = config_.apply_moves(positions_, scratch_moved_);
  scratch_moved_.assign(positions_.size(), 0);
  return config_;
}

bool engine::gathered(const configuration& c) {
  // Def. 9 over the live robots; byzantine robots are not required to gather
  // (only correct ones are).
  return gathered_(
      c, positions_,
      [&](std::size_t i) {
        return live_[i] != 0 &&
               (byzantine_ == nullptr || !byzantine_->is_byzantine(i));
      },
      [](std::size_t, vec2) { return false; }, *algo_);
}

sim_result engine::run() {
  sim_result result;
  result.delta_abs = delta_abs_;
  rng random(opts_.seed);
  std::vector<geom::similarity> frames;
  if (opts_.local_frames) frames = random_frames(positions_.size(), random);

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
  local.gauge("sim.delta_abs") = delta_abs_;

  const bool initial_bivalent =
      config::classify(configuration(positions_)).cls == config_class::bivalent;
  std::vector<std::size_t> starving(positions_.size(), 0);
  bool have_prev_cls = false;
  config_class prev_cls = config_class::asymmetric;

  for (std::size_t round = 0; round < opts_.max_rounds; ++round) {
    // Transient faults strike before anyone observes this round.
    if (perturbation_ != nullptr) {
      for (const auto& [idx, pos] :
           perturbation_->perturb(round, positions_, live_, random)) {
        if (idx < positions_.size() && live_[idx]) {
          positions_[idx] = pos;
          scratch_moved_[idx] = 1;
        }
      }
    }
    const configuration& c = current_configuration();
#ifdef GATHER_CHECK_INVARIANTS
    {
      // Robots are conserved: every round's snapshot accounts for exactly n
      // robots (crashed ones stay visible), and the liveness mask tracks them.
      int total_multiplicity = 0;
      for (const auto& op : c.occupied()) total_multiplicity += op.multiplicity;
      GATHER_CHECK(static_cast<std::size_t>(total_multiplicity) ==
                       positions_.size(),
                   "per-round multiplicity conservation (sum mult == n)");
      GATHER_CHECK(live_.size() == positions_.size(),
                   "liveness mask covers every robot");
    }
#endif
    // Physically merge robots that the (strong multiplicity) observation
    // already identifies as co-located; this keeps accumulated floating-point
    // noise from splitting a formed multiplicity point across rounds.
    // Skipped when provably an identity: the last *executed* snap pass
    // changed nothing, and a no_op round means the positions (and the
    // canonical state the snap map is derived from) are bitwise identical to
    // the ones that pass ran on -- the deterministic snap would reproduce
    // them unchanged.  (no_op alone is not enough: the first snap after a
    // change can itself move positions.)
    if (!(last_report_.no_op && snap_identity_)) {
      bool snap_changed = false;
      for (std::size_t i = 0; i < positions_.size(); ++i) {
        const vec2 s = c.snapped(positions_[i]);
        if (s.x != positions_[i].x || s.y != positions_[i].y) {
          positions_[i] = s;
          scratch_moved_[i] = 1;
          snap_changed = true;
        }
      }
      snap_identity_ = !snap_changed;
    }
    const config_class cls = config::classify(c).cls;
    result.class_history.push_back(cls);
    if (sink_ != nullptr) {
      const auto live_count = static_cast<std::uint64_t>(
          std::count(live_.begin(), live_.end(), std::uint8_t{1}));
      sink_->on_event(
          obs::event::round_start(run_id_, round, enum_name(cls), live_count));
    }
    if (have_prev_cls && cls != prev_cls) {
      ++m_transitions;
      if (sink_ != nullptr) {
        sink_->on_event(obs::event::class_transition(
            run_id_, round, enum_name(prev_cls), enum_name(cls)));
      }
    }
    have_prev_cls = true;
    prev_cls = cls;

    if (gathered(c)) {
      result.status = sim_status::gathered;
      result.rounds = round;
      for (std::size_t i = 0; i < positions_.size(); ++i) {
        if (live_[i]) {
          result.gather_point = c.snapped(positions_[i]);
          break;
        }
      }
      if (sink_ != nullptr) {
        sink_->on_event(obs::event::gathered(
            run_id_, round, result.gather_point.x, result.gather_point.y));
      }
      break;
    }

    // One destination computation per occupied location per round: all
    // active robots observe the same round-start configuration, so (in the
    // global frame) their decisions coincide with these.
    const auto dests = core::destinations(c, *algo_);
    std::vector<vec2>& stationary = scratch_stationary_;
    stationary.clear();
    for (std::size_t i = 0; i < dests.size(); ++i) {
      if (c.tolerance().same_point(dests[i], c.occupied()[i].position)) {
        stationary.push_back(c.occupied()[i].position);
      }
    }
    if (opts_.check_wait_freeness && cls != config_class::bivalent &&
        stationary.size() > 1) {
      ++m_wait_free;
      if (sink_ != nullptr) {
        sink_->on_event(
            obs::event::lemma_violation(run_id_, round, "wait-freeness"));
      }
    }
    if (!initial_bivalent && cls == config_class::bivalent) {
      ++m_bivalent;
      if (sink_ != nullptr) {
        sink_->on_event(
            obs::event::lemma_violation(run_id_, round, "bivalent-entry"));
      }
    }
    // Fixpoint: every occupied location instructed to stay, yet not gathered
    // (live robots on >= 2 locations).  Nothing can ever change; stop early.
    // (Not a fixpoint when external actors -- byzantine robots or transient
    // faults -- can still reshape the configuration.)
    if (byzantine_ == nullptr && perturbation_ == nullptr &&
        stationary.size() == c.distinct_count()) {
      result.status = sim_status::stalled;
      result.rounds = round;
      break;
    }

    // 1. Crash injection.
    const vec2* elected = stationary.empty() ? nullptr : &stationary.front();
    const crash_context cctx{round, positions_, live_, elected};
    std::size_t live_count = static_cast<std::size_t>(
        std::count(live_.begin(), live_.end(), std::uint8_t{1}));
    for (std::size_t idx : crash_->crashes(cctx, random)) {
      if (idx >= live_.size() || !live_[idx]) continue;
      if (live_count <= 1) break;  // the model requires f < n
      live_[idx] = 0;
      --live_count;
      ++m_crashes;
      if (sink_ != nullptr) {
        sink_->on_event(
            obs::event::crash(run_id_, round, static_cast<std::int64_t>(idx)));
      }
    }
    if (live_count == 0) {
      result.status = sim_status::all_crashed;
      result.rounds = round;
      break;
    }

    // 2. Activation.
    const schedule_context sctx{round, positions_, live_};
    std::vector<std::uint8_t>& active = scratch_active_;
    active.assign(positions_.size(), 0);
    for (std::size_t idx : scheduler_->select(sctx, random)) {
      if (idx < active.size() && live_[idx]) active[idx] = 1;
    }
    // Bounded-fairness backstop.
    for (std::size_t i = 0; i < positions_.size(); ++i) {
      if (live_[i] && starving[i] >= opts_.fairness_bound) active[i] = 1;
    }
    if (std::find(active.begin(), active.end(), std::uint8_t{1}) == active.end()) {
      for (std::size_t i = 0; i < positions_.size(); ++i) {
        if (live_[i]) {
          active[i] = 1;
          break;
        }
      }
    }
    m_active.observe(static_cast<double>(
        std::count(active.begin(), active.end(), std::uint8_t{1})));

    if (opts_.record_trace) {
      result.trace.push_back({round, positions_, active, live_, cls});
    }

    // 3. Atomic Look-Compute-Move against the round-start configuration.
    std::vector<vec2>& next = scratch_next_;
    next = positions_;  // copy-assign reuses capacity
    for (std::size_t i = 0; i < positions_.size(); ++i) {
      if (!active[i]) {
        if (live_[i]) ++starving[i];
        continue;
      }
      starving[i] = 0;
      ++m_activations;
      if (sink_ != nullptr) {
        sink_->on_event(obs::event::activation(run_id_, round,
                                               static_cast<std::int64_t>(i)));
      }
      const vec2 self = c.snapped(positions_[i]);
      vec2 dest;
      if (byzantine_ != nullptr && byzantine_->is_byzantine(i)) {
        dest = byzantine_->destination(i, c, self, random);
      } else if (opts_.local_frames) {
        // LOOK through the robot's own similarity frame; move back through
        // its inverse.  local_config_ keeps the default (spread-scaled)
        // tolerance policy, so apply_moves reproduces configuration(pts)
        // bit for bit while reusing the buffers across robots and rounds.
        const geom::similarity& f = frames[i];
        std::vector<vec2>& local_pts = scratch_local_pts_;
        local_pts.resize(positions_.size());
        f.apply_batch(positions_.data(), positions_.size(), local_pts.data());
        local_config_.apply_moves(local_pts);
        const configuration& local_c = local_config_;
        const vec2 local_dest =
            algo_->destination({local_c, local_c.snapped(f.apply(self))});
        dest = f.invert(local_dest);
      } else {
        // Look up the memoized per-location destination (grid-served first
        // tolerance match == the former linear first-match scan).
        dest = self;
        if (const auto k = c.first_occupied_match(self)) dest = dests[*k];
      }
      next[i] = movement_->stop_point(positions_[i], dest, delta_abs_, random);
      scratch_moved_[i] = 1;
      if (!c.tolerance().same_point(next[i], dest)) {
        ++m_truncated;
        if (sink_ != nullptr) {
          sink_->on_event(obs::event::move_truncated(
              run_id_, round, static_cast<std::int64_t>(i),
              geom::distance(positions_[i], dest),
              geom::distance(positions_[i], next[i])));
        }
      }
    }
    // Swap (not move): `next` aliases scratch_next_, and swapping keeps its
    // capacity parked there for the following round.
    std::swap(positions_, next);
    result.rounds = round + 1;
  }

  result.final_positions = positions_;
  result.final_live = live_;
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
  if (metrics_ != nullptr) metrics_->merge(local);
  return result;
}

sim_result run(const sim_spec& spec) {
  obs::prof_session profiling(spec.profile);
  engine e(spec);
  return e.run();
}

}  // namespace gather::sim
