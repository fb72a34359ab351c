// ASYNC (CORDA) execution engine -- an extension beyond the paper's model:
// its policies, options and result.  sim::run_async (sim/spec.h) executes a
// run.
//
// The paper proves WAIT-FREE-GATHER correct in the semi-synchronous ATOM
// model, where each activated robot's Look-Compute-Move cycle is atomic
// within a round.  The asynchronous model (see e.g. Flocchini et al.) drops
// that atomicity: arbitrary delays may separate a robot's Look from its Move,
// so robots can move based on *stale* snapshots.  This engine implements the
// standard discrete-event formulation: the adversary repeatedly picks a live
// robot and advances its phase machine
//
//     idle --Look+Compute--> armed --Move--> idle
//
// where between a robot's Look and its Move any number of other robots may
// complete full cycles.  The engine is used by the model-boundary experiment
// (bench_async, E9) to map where the ATOM guarantees stop applying, and by
// tests that confirm ATOM is recovered as the special case where every armed
// robot moves before anyone else looks.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/engine.h"
#include "util/enum_name.h"

namespace gather::sim {

/// Interleaving policies for the ASYNC adversary.
enum class async_policy {
  /// A robot finishes its Move immediately after its Look: no staleness.
  /// This is exactly a sequential ATOM schedule (one robot per round).
  atomic_sequential,
  /// Uniformly random phase advancement: moderate staleness.
  random_interleaving,
  /// All live robots Look first, then all Move ("look-all-move-all"):
  /// maximal staleness, the classic breaker of ATOM-only algorithms.
  look_all_move_all,
};

}  // namespace gather::sim

namespace gather {
template <>
struct enum_descriptor<sim::async_policy> {
  static constexpr std::array<std::pair<sim::async_policy, std::string_view>, 3>
      entries{{{sim::async_policy::atomic_sequential, "atomic-sequential"},
               {sim::async_policy::random_interleaving, "random-interleaving"},
               {sim::async_policy::look_all_move_all, "look-all-move-all"}}};
};
}  // namespace gather

namespace gather::sim {

[[nodiscard]] constexpr std::string_view to_string(async_policy p) {
  return enum_name(p);
}
std::ostream& operator<<(std::ostream& os, async_policy p);

struct async_options {
  double delta_fraction = 0.05;
  std::size_t max_steps = 400'000;   ///< phase-advancement events
  std::uint64_t seed = 1;
  async_policy policy = async_policy::random_interleaving;
  /// Intended as the max steps between a robot's events.  Known defect: the
  /// backstop serves only the lowest-index live robot that has waited this
  /// long.  With more than fairness_bound + 1 robots live, from step
  /// fairness_bound on it serves the fairness_bound + 1 lowest-index live
  /// robots in turn, forever, and every other robot starves
  /// (docs/PERFORMANCE.md, "ASYNC step cost").  Kept as is: fixing it
  /// changes pinned benchmark outputs.
  std::size_t fairness_bound = 128;
};

struct async_result {
  sim_status status = sim_status::round_limit;
  std::size_t steps = 0;             ///< phase events executed
  std::size_t cycles = 0;            ///< completed Look...Move cycles
  geom::vec2 gather_point{};
  std::vector<geom::vec2> final_positions;
  std::vector<std::uint8_t> final_live;
  std::size_t crashes = 0;
  /// Moves executed whose destination was computed from a snapshot that no
  /// longer matched the configuration at move time (staleness exposure): some
  /// robot's position was written, by a Move or a snap, between the robot's
  /// Look and its Move.
  std::size_t stale_moves = 0;
  /// The absolute movement guarantee the run used (see sim_result::delta_abs).
  double delta_abs = 0.0;
};

}  // namespace gather::sim
