// The mechanics of one round of the paper's model (Sec. II).  The ATOM
// engine (sim::run), the ASYNC engine (sim::run_async) and the model checker
// (check::explore) all call these, so a checked schedule replays bit for bit
// through the engine.  Def. 9 GATHERED, the termination predicate, is
// sim/gathered.h.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "config/configuration.h"
#include "geometry/vec2.h"
#include "sim/crash.h"
#include "sim/movement.h"
#include "sim/rng.h"

namespace gather::obs {
class event_sink;
}  // namespace gather::obs

namespace gather::sim {

/// The run's delta: `delta_fraction` times the diameter of the initial
/// configuration, floored at 1e-12.
[[nodiscard]] double run_delta(double delta_fraction,
                               const config::configuration& initial);

/// Switch `c` to the run's tolerance policy: refreshed on every mutation,
/// with an absolute floor of 1e-9 * `delta`.
void pin_tolerance(config::configuration& c, double delta);

/// The snap pass: move each position onto its representative in `c`, the
/// configuration `positions` were last canonicalized into.  Marks every
/// robot it writes in `moved` (the next apply_moves hint, sized like
/// `positions`) and returns whether any position changed.
bool snap_positions(const config::configuration& c,
                    std::vector<geom::vec2>& positions,
                    std::vector<std::uint8_t>& moved);

/// The destination of the robot snapped at `self`: `dests[k]`
/// (core::destinations) for the first occupied location k within tolerance
/// of `self`, or `self` when there is none.
[[nodiscard]] geom::vec2 robot_destination(
    const config::configuration& c, const std::vector<geom::vec2>& dests,
    geom::vec2 self);

/// Fill `stationary` with the occupied locations whose destination is
/// within co-location tolerance of themselves, in occupied order, and
/// return whether that is all of them: the stall fixpoint.
bool find_stationary(const config::configuration& c,
                     const std::vector<geom::vec2>& dests,
                     std::vector<geom::vec2>& stationary);

/// The adversary's crash and Move steps with their accounting.  `time` is
/// the ATOM round or ASYNC step the events carry.
struct adversary_steps {
  crash_policy& crash;
  movement_adversary& movement;
  double delta;              ///< the run's absolute movement guarantee
  obs::event_sink* sink;     ///< nullptr = no events
  std::uint64_t run_id;      ///< stamped on every event
  std::uint64_t& crashes;    ///< counter: faults injected
  std::uint64_t& truncated;  ///< counter: moves stopped short

  /// Ask the crash policy once and crash its picks in order, skipping those
  /// out of range or already crashed and never the last live robot (the
  /// model requires f < n).  `live_count` counts the live robots on entry.
  /// Emits a `crash` event per fault; returns how many landed.
  std::size_t crash_robots(std::size_t time,
                           const std::vector<geom::vec2>& positions,
                           const geom::vec2* elected, rng& random,
                           std::vector<std::uint8_t>& live,
                           std::size_t live_count);

  /// Where the movement adversary stops `robot` on its way from `from` to
  /// `dest`.  A stop not within tolerance of `dest` in `c` counts as
  /// truncated and emits a `move_truncated` event.
  [[nodiscard]] geom::vec2 move(const config::configuration& c,
                                std::size_t time, std::size_t robot,
                                geom::vec2 from, geom::vec2 dest, rng& random);
};

}  // namespace gather::sim
