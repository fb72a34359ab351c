// The ATOM (semi-synchronous) execution engine (paper, Sec. II): its
// options and result types.  sim::run (sim/spec.h) executes a run.
//
// Time is a sequence of rounds.  Each round: (1) the crash policy may crash
// robots, (2) the scheduler activates a subset of the live robots, (3) every
// activated robot performs one atomic Look-Compute-Move cycle against the
// round-start configuration, (4) the movement adversary truncates each move,
// subject to the delta guarantee.  The run ends when the GATHERED predicate
// of Def. 9 holds (all live robots co-located and instructed to stay), or at
// the round limit.  The mechanics of one round are sim/round.h.
//
// The engine can optionally verify online that the algorithm is wait-free
// (Lemma 5.1) and that the bivalent configuration is never entered from a
// non-bivalent start, and it records the class history for transition
// analyses (Lemmas 5.3-5.9).
//
// Observability: the engine counts per-round facts into an
// obs::metrics_registry and, when an obs::event_sink is attached, narrates
// the run as a structured event stream (see docs/OBSERVABILITY.md).
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <utility>
#include <vector>

#include "config/classify.h"
#include "core/algorithm.h"
#include "util/enum_name.h"

namespace gather::sim {

using config::config_class;
using config::configuration;
using core::gathering_algorithm;
using geom::vec2;

struct sim_options {
  /// The model's delta, as a fraction of the *initial* configuration
  /// diameter (the guarantee is an absolute distance; expressing it
  /// relative to the instance makes sweeps comparable across scales).
  double delta_fraction = 0.05;
  std::size_t max_rounds = 50'000;
  std::uint64_t seed = 1;
  /// Run every COMPUTE in a random per-robot similarity frame.
  bool local_frames = false;
  /// Verify Lemma 5.1 (at most one stationary location) every round.
  /// Known defect: a location counts as stationary here when its
  /// destination is within co-location tolerance of it (sim/round.h,
  /// find_stationary).  core::stationary_locations, which the model
  /// checker's L5.1 uses, requires 1e-3 * len_eps instead, so that
  /// near-degenerate side-steps are not counted as stays.  Every breach
  /// this check reports on the committed benchmark and campaign grids reads
  /// 0 under the core predicate.  Kept as is: switching changes pinned
  /// benchmark outputs (the lemma_breach columns and the CSV, JSONL and
  /// metrics hashes).
  bool check_wait_freeness = false;
  /// Force-activate any live robot that has not moved for this many rounds
  /// (bounded-fairness backstop making every scheduler admissible).
  std::size_t fairness_bound = 64;
  /// Keep a full positions trace (memory-heavy; for examples/debugging).
  bool record_trace = false;
};

enum class sim_status {
  gathered,        ///< GATHERED(R, t) became true
  round_limit,     ///< max_rounds elapsed without gathering
  stalled,         ///< fixpoint: every robot instructed to stay, not gathered
  all_crashed,     ///< every robot crashed; unreachable (the f < n guard keeps
                   ///< one robot live), kept for its stored byte value
  started_bivalent ///< the initial configuration was bivalent (Lemma 5.2)
};

}  // namespace gather::sim

namespace gather {
template <>
struct enum_descriptor<sim::sim_status> {
  static constexpr std::array<std::pair<sim::sim_status, std::string_view>, 5>
      entries{{{sim::sim_status::gathered, "gathered"},
               {sim::sim_status::round_limit, "round-limit"},
               {sim::sim_status::stalled, "stalled"},
               {sim::sim_status::all_crashed, "all-crashed"},
               {sim::sim_status::started_bivalent, "started-bivalent"}}};
};
}  // namespace gather

namespace gather::sim {

[[nodiscard]] constexpr std::string_view to_string(sim_status s) {
  return enum_name(s);
}
std::ostream& operator<<(std::ostream& os, sim_status s);

struct round_record {
  std::size_t round = 0;
  std::vector<vec2> positions;           // at round start
  std::vector<std::uint8_t> active;      // activation mask
  std::vector<std::uint8_t> live;        // liveness mask
  config_class cls = config_class::asymmetric;
};

struct sim_result {
  sim_status status = sim_status::round_limit;
  std::size_t rounds = 0;                ///< rounds executed
  vec2 gather_point{};                   ///< valid when status == gathered
  std::vector<vec2> final_positions;
  std::vector<std::uint8_t> final_live;
  std::size_t crashes = 0;               ///< faults actually injected
  std::size_t wait_free_violations = 0;  ///< Lemma 5.1 breaches observed
  std::size_t bivalent_entries = 0;      ///< rounds spent in B after a non-B start
  /// The absolute movement guarantee the run used:
  /// delta_fraction * initial diameter (floored away from zero).  Callers
  /// interpreting truncation events need this scale; re-deriving it would
  /// require the initial diameter.
  double delta_abs = 0.0;
  std::vector<config_class> class_history;  ///< class at each round start
  std::vector<round_record> trace;          ///< when record_trace
};

}  // namespace gather::sim
