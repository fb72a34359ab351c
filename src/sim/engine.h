// The ATOM (semi-synchronous) execution engine (paper, Sec. II).
//
// Time is a sequence of rounds.  Each round: (1) the crash policy may crash
// robots, (2) the scheduler activates a subset of the live robots, (3) every
// activated robot performs one atomic Look-Compute-Move cycle against the
// round-start configuration, (4) the movement adversary truncates each move,
// subject to the delta guarantee.  The run ends when the GATHERED predicate
// of Def. 9 holds (all live robots co-located and instructed to stay), or at
// the round limit.
//
// The engine can optionally verify online that the algorithm is wait-free
// (Lemma 5.1) and that the bivalent configuration is never entered from a
// non-bivalent start, and it records the class history for transition
// analyses (Lemmas 5.3-5.9).
//
// Observability: the engine counts per-round facts into an
// obs::metrics_registry and, when an obs::event_sink is attached, narrates
// the run as a structured event stream (see docs/OBSERVABILITY.md).  The
// entry point is the sim_spec aggregate + run() free function in sim/spec.h.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <utility>
#include <vector>

#include "config/classify.h"
#include "core/algorithm.h"
#include "sim/crash.h"
#include "sim/gathered.h"
#include "sim/movement.h"
#include "sim/scheduler.h"
#include "util/enum_name.h"

namespace gather::obs {
class event_sink;
class metrics_registry;
class prof_registry;
}  // namespace gather::obs

namespace gather::sim {

using config::config_class;
using config::configuration;
using core::gathering_algorithm;
using geom::vec2;

struct sim_spec;  // sim/spec.h

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
  all_crashed,     ///< every robot crashed (f = n; outside the model)
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

class perturbation_policy;
class byzantine_policy;

class engine {
 public:
  /// Primary constructor: one aggregate holding the algorithm, the initial
  /// configuration, the three adversaries, the options and the observability
  /// attachments.  Throws std::invalid_argument on missing required pieces.
  explicit engine(const sim_spec& spec);

  /// Optional transient-fault injector (see sim/adversary_ext.h): applied at
  /// the start of each round, before any robot observes.
  void set_perturbation(perturbation_policy* p) { perturbation_ = p; }

  /// Optional byzantine control (see sim/adversary_ext.h): designated robots
  /// take adversarial destinations and are excluded from the GATHERED
  /// predicate (gathering is required of correct robots only).
  void set_byzantine(byzantine_policy* b) { byzantine_ = b; }

  /// Attach observability: a structured event sink (nullptr = no events), an
  /// external metrics registry the run's counters merge into (nullptr = keep
  /// them internal) and the id stamped on every emitted event.
  void set_observer(obs::event_sink* sink, obs::metrics_registry* metrics,
                    std::uint64_t run_id = 0) {
    sink_ = sink;
    metrics_ = metrics;
    run_id_ = run_id;
  }

  /// Run to completion and return the result.
  [[nodiscard]] sim_result run();

 private:
  /// Recanonicalize `config_` from `positions_` (per-round refreshed
  /// tolerance) and return it.  The accumulated per-round write mask
  /// (`scratch_moved_`) is handed to apply_moves as the moved hint, so a
  /// round that moved k robots recanonicalizes in O(k) when the delta path
  /// applies; the mutation report lands in `last_report_` and the mask is
  /// reset for the next round's writers.
  [[nodiscard]] const configuration& current_configuration();
  [[nodiscard]] bool gathered(const configuration& c);

  std::vector<vec2> positions_;
  std::vector<std::uint8_t> live_;
  configuration config_;        ///< round-start configuration (reused storage)
  configuration local_config_;  ///< local-frames LOOK scratch (reused storage)
  // Step-loop scratch buffers: cleared and refilled each round so the steady
  // state allocates nothing.
  std::vector<vec2> scratch_next_;
  std::vector<vec2> scratch_stationary_;
  std::vector<std::uint8_t> scratch_active_;
  std::vector<vec2> scratch_local_pts_;
  // Per-round write mask: every code path that writes positions_ marks the
  // robot here; current_configuration() passes it to apply_moves as the
  // moved hint and clears it.
  std::vector<std::uint8_t> scratch_moved_;
  config::mutation_report last_report_;  // report of the last apply_moves
  bool snap_identity_ = false;  // the last executed snap pass changed nothing
  gathered_check gathered_;     // Def. 9, with its refutation witness
  const gathering_algorithm* algo_;
  activation_scheduler* scheduler_;
  movement_adversary* movement_;
  crash_policy* crash_;
  sim_options opts_;
  double delta_abs_ = 0.0;
  perturbation_policy* perturbation_ = nullptr;
  byzantine_policy* byzantine_ = nullptr;
  obs::event_sink* sink_ = nullptr;
  obs::metrics_registry* metrics_ = nullptr;
  std::uint64_t run_id_ = 0;
};

}  // namespace gather::sim
