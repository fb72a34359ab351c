#include "sim/round.h"

#include <algorithm>

#include "obs/events.h"

namespace gather::sim {

double run_delta(double delta_fraction, const config::configuration& initial) {
  return std::max(delta_fraction * initial.diameter(), 1e-12);
}

void pin_tolerance(config::configuration& c, double delta) {
  // Delta gives the run an absolute length scale: robots within a vanishing
  // fraction of it are physically indistinguishable.  Without this floor,
  // per-robot frame round-off (~1 ulp of the coordinate magnitude) could
  // keep nearly-gathered robots forever "distinct" once the swarm diameter
  // has collapsed below the coordinate noise.
  c.set_tol_refresh(1e-9 * delta);
}

bool snap_positions(const config::configuration& c,
                    std::vector<geom::vec2>& positions,
                    std::vector<std::uint8_t>& moved) {
  // Physically merges robots the (strong multiplicity) observation already
  // identifies as co-located, so accumulated floating-point noise cannot
  // split a formed multiplicity point across rounds.
  bool changed = false;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const geom::vec2 s = c.snapped(positions[i]);
    if (s != positions[i]) {
      positions[i] = s;
      moved[i] = 1;
      changed = true;
    }
  }
  return changed;
}

geom::vec2 robot_destination(const config::configuration& c,
                             const std::vector<geom::vec2>& dests,
                             geom::vec2 self) {
  const auto k = c.first_occupied_match(self);
  return k ? dests[*k] : self;
}

bool find_stationary(const config::configuration& c,
                     const std::vector<geom::vec2>& dests,
                     std::vector<geom::vec2>& stationary) {
  stationary.clear();
  for (std::size_t k = 0; k < dests.size(); ++k) {
    const geom::vec2 at = c.occupied()[k].position;
    if (c.tolerance().same_point(dests[k], at)) stationary.push_back(at);
  }
  return stationary.size() == c.distinct_count();
}

std::size_t adversary_steps::crash_robots(
    std::size_t time, const std::vector<geom::vec2>& positions,
    const geom::vec2* elected, rng& random, std::vector<std::uint8_t>& live,
    std::size_t live_count) {
  const crash_context ctx{time, positions, live, elected};
  std::size_t landed = 0;
  for (std::size_t idx : crash.crashes(ctx, random)) {
    if (idx >= live.size() || !live[idx]) continue;
    if (live_count - landed <= 1) break;
    live[idx] = 0;
    ++landed;
    ++crashes;
    if (sink != nullptr) {
      sink->on_event(
          obs::event::crash(run_id, time, static_cast<std::int64_t>(idx)));
    }
  }
  return landed;
}

geom::vec2 adversary_steps::move(const config::configuration& c,
                                 std::size_t time, std::size_t robot,
                                 geom::vec2 from, geom::vec2 dest,
                                 rng& random) {
  const geom::vec2 stop = movement.stop_point(from, dest, delta, random);
  if (!c.tolerance().same_point(stop, dest)) {
    ++truncated;
    if (sink != nullptr) {
      sink->on_event(obs::event::move_truncated(
          run_id, time, static_cast<std::int64_t>(robot),
          geom::distance(from, dest), geom::distance(from, stop)));
    }
  }
  return stop;
}

}  // namespace gather::sim
