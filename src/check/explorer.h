// Bounded model-checking explorer for the gathering algorithm.
//
// Where `gather_fuzz` samples adversary schedules at random, the explorer
// enumerates *all* of them, bounded: starting from a set of seed
// configurations it expands, round by round, every admissible adversary
// choice -- crash subsets within a fault budget, every non-empty activation
// subset of the live robots, and every per-robot stop on a quantized
// movement-truncation grid -- and evaluates the paper's lemma predicates
// (core::state_lemmas / core::transition_lemmas) in every state it reaches.
//
// Tractability comes from duplicate-state pruning: states are hashed under
// the symmetry-canonical key of config/state_key.h (similarity-invariant,
// Booth-minimal rotation), so the 90-degree rotations, translations and
// scalings that a lattice seed sweep mass-produces collapse into one
// explored representative.  The exact (raw) key is tracked alongside purely
// for statistics: raw-unique vs canonical-unique is the reported symmetry
// reduction factor.
//
// Exploration is a DFS over (positions, liveness, crash budget, round); each
// state's configuration is materialized in one shared `configuration` via
// the mutation API (`apply_moves`), which keeps the derived-geometry cache's
// buffers warm across the entire search.  The per-round mechanics are the
// engines' own: delta, the tolerance floor, the snap pass, the per-robot
// destination lookup and the stall test come from sim/round.h, Def. 9 from
// sim/gathered.h and truncated stops from sim::truncated_stop, so a recorded
// decision path replays bit-identically through sim::run
// (sim::replay_schedule); tests/check_test.cpp pins this round for round.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/algorithm.h"
#include "geometry/vec2.h"
#include "obs/metrics_registry.h"
#include "sim/replay.h"

namespace gather::check {

struct check_options {
  std::size_t max_rounds = 3;           ///< bounded exploration depth
  std::size_t crash_budget = 1;         ///< total crash faults f
  std::size_t max_crashes_per_round = 1;
  std::uint32_t truncation_levels = 2;  ///< movement grid: 2 = {delta, full}
  double delta_fraction = 0.25;         ///< engine delta as fraction of seed diameter
  std::size_t max_states = 4'000'000;   ///< generated-state safety cap
  std::size_t max_counterexamples = 8;  ///< stop after recording this many
  bool canonical_dedup = true;          ///< false: exact-key dedup only
};

/// Per-lemma coverage: how often the predicate applied, and how often it
/// failed, across all explored states (or transitions).
struct lemma_coverage {
  std::string id;
  std::string title;
  std::uint64_t applicable = 0;
  std::uint64_t not_applicable = 0;
  std::uint64_t violations = 0;
};

/// One recorded violation: the lemma, the depth, the replayable schedule and
/// the explorer's own path of snapped round-start position vectors
/// (bit-identical to the engine's round_record.positions when the trace is
/// replayed; the engine snaps in place at round start, and so does the
/// explorer) -- `path.front()` is the (snapped) seed state, `path.back()`
/// the violating state.
struct counterexample {
  std::string lemma_id;
  std::size_t round = 0;
  sim::schedule_trace trace;
  std::vector<std::vector<geom::vec2>> path;
};

struct check_result {
  std::uint64_t seeds = 0;
  std::uint64_t states_generated = 0;  ///< states produced (pre-dedup)
  std::uint64_t states_explored = 0;   ///< unique under the active dedup key
  std::uint64_t duplicates_pruned = 0;
  std::uint64_t raw_unique = 0;        ///< unique under the exact key
  /// Edges whose transition lemmas were evaluated: every generated non-root
  /// state, *including* edges into already-visited (pruned) states -- a
  /// duplicate child reached from a differently-classed parent is still a
  /// fresh transition.  On a run that neither caps nor stops early this
  /// equals states_generated - seeds.
  std::uint64_t transitions_checked = 0;
  std::uint64_t terminal_gathered = 0;
  std::uint64_t terminal_stalled = 0;
  std::uint64_t bound_reached = 0;
  bool state_cap_hit = false;
  std::vector<lemma_coverage> state_coverage;
  std::vector<lemma_coverage> transition_coverage;
  std::vector<counterexample> counterexamples;

  /// raw-unique / canonical-unique states: how much the symmetry-canonical
  /// key shrank the search (1.0 when canonical dedup is off or empty).
  [[nodiscard]] double symmetry_reduction() const;
  [[nodiscard]] std::uint64_t total_violations() const;
};

struct check_spec {
  std::vector<std::vector<geom::vec2>> seeds;
  const core::gathering_algorithm* algorithm = nullptr;
  check_options options;
  obs::metrics_registry* metrics = nullptr;  ///< optional "check.*" export
};

/// Run the bounded search.  Deterministic: identical specs produce identical
/// results (the DFS order is fixed and no randomness is involved).
[[nodiscard]] check_result explore(const check_spec& spec);

/// All multisets of `n` points on the w x h integer lattice, in a fixed
/// deterministic order -- the standard seed sweep for small-n checking.
[[nodiscard]] std::vector<std::vector<geom::vec2>> lattice_multisets(
    std::size_t w, std::size_t h, std::size_t n);

}  // namespace gather::check
