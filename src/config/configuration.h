// Robot configurations with strong multiplicity detection.
//
// A configuration (paper, Sec. II) is the multiset C = {p_1, ..., p_n} of
// robot positions.  The robots of the ATOM^M model have *strong multiplicity
// detection*: a snapshot reveals exactly how many robots sit at each point.
// This class canonicalizes a raw position multiset: positions closer than the
// tolerance are clustered and snapped to a common representative, so that
// multiplicities, U(C) and all downstream predicates are exact.
//
// Mutation reports and the derived-geometry cache
// -----------------------------------------------
// A configuration owns its point storage; the raw input multiset is only
// changed through the mutation API (`set_position`, `apply_moves`,
// `insert_robot`, `remove_robot`, `set_tol_refresh`).  Every mutator returns
// a `mutation_report` describing exactly what changed: which robots moved,
// whether the occupied-location structure changed, whether the tolerance
// changed, and which repair class the mutation fell into (`mutation_kind`).
// The report drives per-slot invalidation of the lazily computed
// derived-geometry snapshot (config/derived.h): slots that are provably
// still bit-identical survive the mutation, the rest fall back to the cold
// rebuild.  A mutation that leaves the canonical state bitwise unchanged
// (`no_op` / `cache_kept`) keeps the cache and the generation; every other
// mutation bumps the generation, so a cached value can never outlive the
// points it was computed from.
//
// The canonical state itself is updated in O(moved robots) when possible:
// an all-singleton configuration whose movers stay tolerance-isolated takes
// the delta path (per-mover sorted-array repair, Welzl-restart SEC check,
// hull-interior diameter check, collinearity witness), and every mutation
// uses a uniform spatial grid (geometry/spatial_grid.h) for clustering and
// for the multiplicity / snapping queries.  Every incremental path is pinned
// bit-identical to the cold rebuild (tests/incremental_test.cpp).
//
// The cache is per-object and not synchronized: a configuration must not be
// mutated or lazily read from two threads at once (the runner's
// one-engine-per-cell model already guarantees this).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "geometry/enclosing_circle.h"
#include "geometry/predicates.h"
#include "geometry/spatial_grid.h"
#include "geometry/tolerance.h"
#include "geometry/vec2.h"

namespace gather::config {

using geom::vec2;

struct derived_geometry;  // config/derived.h

/// One distinct occupied location together with its multiplicity.
struct occupied_point {
  vec2 position;
  int multiplicity = 0;
};

/// Repair class of a mutation, coarsest first.  Drives which derived slots
/// survive (see the table in docs/PERFORMANCE.md).
enum class mutation_kind : std::uint8_t {
  no_op,       ///< bitwise-identical input: nothing changed at all
  cache_kept,  ///< input changed but the canonical state is bit-identical
  mults_only,  ///< same locations and tolerance; only multiplicities and the
               ///< robot->location assignment changed
  delta,       ///< singleton delta: the changed occupied slots are listed,
               ///< structure-repairable slots were kept
  rebuild,     ///< cold rebuild; all derived slots dropped
};

/// What one mutation did.  Returned by every mutator; discarding it is fine
/// (the configuration is already consistent), reading it lets callers skip
/// work -- e.g. the engines skip their snap pass on `no_op` rounds.
struct mutation_report {
  mutation_kind kind = mutation_kind::rebuild;
  /// Bitwise-identical input; generation and cache untouched.
  bool no_op = false;
  /// Canonical state bitwise unchanged (implies generation untouched).
  /// True for both `no_op` and `cache_kept`.
  bool cache_kept = false;
  /// The set of occupied locations changed (positions, not multiplicities).
  bool structure_changed = true;
  /// The tolerance context changed bitwise.
  bool tol_changed = false;
  /// Number of robots whose raw position changed.
  std::size_t moved = 0;
  /// Moved robots whose new position was absorbed into a cluster with other
  /// robots (their snapped position differs from the raw input).
  std::size_t snap_merges = 0;
  /// kind == delta only: indices into occupied() of the slots holding the
  /// movers' new locations, sorted ascending.  Points into scratch owned by
  /// the configuration -- valid until the next mutation.  Empty for every
  /// other kind (rebuild means "assume everything changed").
  std::span<const std::size_t> changed_occupied{};
};

class configuration {
 public:
  configuration();

  /// Build from raw robot positions.  Positions within the tolerance derived
  /// from the point spread are identified (snapped to their centroid).
  explicit configuration(std::vector<vec2> robots);

  /// Build with an explicit tolerance context.  The tolerance is fixed: it is
  /// carried unchanged through subsequent mutations.
  configuration(std::vector<vec2> robots, geom::tol t);

  ~configuration();
  /// Copies carry the canonical state but start with a cold derived cache
  /// (slots are recomputed deterministically on demand).
  configuration(const configuration& other);
  configuration& operator=(const configuration& other);
  configuration(configuration&& other) noexcept;
  configuration& operator=(configuration&& other) noexcept;

  /// Number of robots, the paper's n.
  [[nodiscard]] std::size_t size() const { return robots_.size(); }
  [[nodiscard]] bool empty() const { return robots_.empty(); }

  /// All robot positions after snapping, in input order.
  [[nodiscard]] const std::vector<vec2>& robots() const { return robots_; }

  /// U(C): the distinct occupied locations with multiplicities, sorted
  /// lexicographically for determinism.
  [[nodiscard]] const std::vector<occupied_point>& occupied() const {
    return occupied_;
  }

  /// Number of distinct occupied locations, |U(C)|.
  [[nodiscard]] std::size_t distinct_count() const { return occupied_.size(); }

  /// Structure-of-arrays mirror of occupied(): the x (resp. y) coordinates
  /// of the distinct occupied locations, same sorted order, always
  /// distinct_count() entries.  Maintained alongside occupied_ -- the cold
  /// canonicalization fills it, the delta path repairs it in place with the
  /// same O(shift) moves -- so the batch geometry kernels
  /// (geometry/kernels.h) stream coordinates instead of gathering through
  /// occupied_point.  Invalidated like occupied() itself: any mutation may
  /// reallocate; re-fetch after mutating.
  [[nodiscard]] std::span<const double> occupied_xs() const { return occ_xs_; }
  [[nodiscard]] std::span<const double> occupied_ys() const { return occ_ys_; }

  /// mult(p): number of robots at `p` (0 when `p` is unoccupied).  Served by
  /// the spatial grid in O(1) expected (plus an O(log n) rep lookup).
  [[nodiscard]] int multiplicity(vec2 p) const;

  /// Index into occupied() of the location *bitwise* equal to `p`, or
  /// nullopt.  occupied() is kept sorted by position, so this is an O(log n)
  /// binary search on the canonical array itself -- there is no side table
  /// to build or invalidate.  (Tolerance-close but not bitwise-equal
  /// positions intentionally miss: the derived caches keyed on occupied
  /// indices are only valid for exact positions.)
  [[nodiscard]] std::optional<std::size_t> find_occupied(vec2 p) const;

  /// Index into occupied() of the first (lowest-index) location within
  /// tolerance of `p`, or nullopt.  Equivalent to a linear first-match scan
  /// over occupied() -- the array is sorted, so the first match is the
  /// lexicographically smallest matching location -- but served by the
  /// spatial grid in O(1) expected.
  [[nodiscard]] std::optional<std::size_t> first_occupied_match(vec2 p) const;

  /// Index into occupied() of the location nearest to `p` by Euclidean
  /// distance (ties towards the lexicographically smaller location), or
  /// nullopt for an empty configuration.  Grid ring search: O(1) expected
  /// for query points near the swarm.
  [[nodiscard]] std::optional<std::size_t> nearest_occupied(vec2 p) const;

  /// The snapped representative of location `p`, or `p` itself if unoccupied.
  [[nodiscard]] vec2 snapped(vec2 p) const;

  /// The shared tolerance context (length scale = configuration diameter).
  [[nodiscard]] const geom::tol& tolerance() const { return tol_; }

  /// True when all robots lie on one line (within tolerance); configurations
  /// with fewer than three distinct points are linear.
  [[nodiscard]] bool is_linear() const { return linear_; }

  /// sec(C): smallest enclosing circle of U(C).
  [[nodiscard]] const geom::circle& sec() const { return sec_; }

  /// Largest pairwise distance between occupied locations.
  [[nodiscard]] double diameter() const { return diameter_; }

  /// Sum of distances from `p` to every robot (counting multiplicity) --
  /// the objective the Weber point minimizes.
  [[nodiscard]] double sum_distances(vec2 p) const;

  /// True when all robots occupy a single point.
  [[nodiscard]] bool is_gathered() const { return occupied_.size() <= 1; }

  // -- mutation API ----------------------------------------------------------
  // Every mutator recanonicalizes (incrementally when it can prove bitwise
  // equivalence with the cold rebuild) and returns a mutation_report.  The
  // generation is bumped unless the canonical state is bitwise unchanged.

  /// Replace the raw (pre-snap) position of robot `i`.  A bitwise-identical
  /// position is a no-op.
  mutation_report set_position(std::size_t i, vec2 p);

  /// Replace the whole raw position multiset, e.g. with the outcome of one
  /// simulation round.  When `raw` is bitwise identical to the current raw
  /// input this is a no-op that keeps the cache warm (the canonical state is
  /// a deterministic function of the input).  Capacity is reused: steady
  /// state re-application allocates nothing.
  mutation_report apply_moves(const std::vector<vec2>& raw);

  /// `apply_moves` with a caller-supplied candidate set: `moved_hint[i] != 0`
  /// marks robots that may have moved; unhinted entries are trusted to be
  /// bitwise unchanged (verified under GATHER_CHECK_INVARIANTS), so the
  /// change scan does O(|hinted|) position compares plus one byte test per
  /// robot for the mask walk itself (an O(n) floor, documented in
  /// docs/PERFORMANCE.md).  The engines pass their per-round write mask
  /// here.  `moved_hint` must be empty or of size n.
  mutation_report apply_moves(const std::vector<vec2>& raw,
                              std::span<const std::uint8_t> moved_hint);

  /// Append one robot at raw position `p`.
  mutation_report insert_robot(vec2 p);

  /// Remove robot `i` (input-order index).
  mutation_report remove_robot(std::size_t i);

  /// Switch the tolerance policy to per-mutation refresh: after every
  /// mutation the tolerance is recomputed from the new raw points
  /// (geom::tol::for_points) with its absolute floor raised to at least
  /// `abs_floor`.  This is the engines' policy: the model's delta gives the
  /// run an absolute length scale (sim::pin_tolerance).  Recanonicalizes.
  mutation_report set_tol_refresh(double abs_floor);

  /// Mutation counter: bumped on every mutation that changes the canonical
  /// state.  Two reads of any derived quantity under one generation return
  /// identical bits.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

  /// The lazily computed derived-geometry slots for this generation.
  /// Internal to src/config (the classify/weber/views/safe-point wrappers);
  /// callers elsewhere use those wrappers -- direct access outside src/config
  /// is rejected by gather-lint rule R5.
  [[nodiscard]] derived_geometry& derived() const;

 private:
  enum class tol_policy : std::uint8_t {
    spread_scaled,  ///< default: tol from the input spread, scale := diameter
    fixed,          ///< explicit tolerance carried through mutations
    refreshed,      ///< recomputed per mutation with a floored abs_floor
  };

  struct cluster {
    vec2 sum{};
    int count = 0;
    [[nodiscard]] vec2 centroid() const {
      return sum / static_cast<double>(count);
    }
  };

  // Input bounding box / magnitude, mirrored from geom::tol::for_points so
  // the delta path can prove in O(moved) that the refreshed tolerance is
  // bitwise unchanged (movers strictly interior to the box cannot shift it).
  struct input_bounds {
    double lo_x = 0, hi_x = 0, lo_y = 0, hi_y = 0, mag = 0;
    bool valid = false;
  };

  void recompute_bounds();            // bounds_ from input_ (for_points mirror)
  [[nodiscard]] geom::tol tol_from_bounds() const;
  void refresh_tol();                 // recompute tol_ from input_ per policy
  void cluster_and_sort();            // greedy clustering -> robots_/occupied_
  void derive_scalars();              // diameter/hull, sec, collinearity, grid
  void rebuild_after_input_change(mutation_report& rep);
  [[nodiscard]] bool try_delta(mutation_report& rep);
  void compute_diameter_and_hull();
  void bump_and_invalidate(const mutation_report& rep);

  std::vector<vec2> input_;               // raw positions, pre-canonicalize
  std::vector<vec2> robots_;              // snapped, input order
  std::vector<occupied_point> occupied_;  // sorted by position
  std::vector<double> occ_xs_;            // SoA mirror of occupied_ positions
  std::vector<double> occ_ys_;
  geom::tol tol_;
  geom::tol cluster_tol_;  // the tol the greedy clustering pass actually used
  geom::circle sec_;
  double diameter_ = 0.0;
  bool linear_ = true;
  tol_policy policy_ = tol_policy::spread_scaled;
  double refresh_floor_ = 0.0;  // tol_policy::refreshed only
  std::uint64_t generation_ = 0;
  mutable std::unique_ptr<derived_geometry> derived_;

  // Delta-path witnesses, refreshed by every canonicalization.
  geom::spatial_grid occupied_grid_;  // occupied locations, final-tol cells
  input_bounds bounds_;
  std::size_t sec_violator_ = 0;  // last top-level Welzl restart index
  geom::collinear_witness collinear_witness_;
  std::vector<vec2> diam_hull_;  // exact hull (CCW); empty when U <= 64

  // Canonicalization scratch (capacity reused across mutations).
  std::vector<cluster> scratch_clusters_;
  std::vector<std::size_t> scratch_assign_;
  std::vector<vec2> scratch_distinct_;
  geom::spatial_grid scratch_cluster_grid_;
  std::vector<std::size_t> scratch_changed_;       // K: moved input indices
  std::vector<vec2> scratch_old_pos_;              // movers' old raw inputs
  std::vector<vec2> scratch_new_pos_;              // movers' new raw inputs
  std::vector<std::size_t> scratch_handles_;       // movers' grid handles
  std::vector<std::size_t> scratch_handles_sorted_;
  std::vector<std::size_t> scratch_changed_slots_; // report span storage
  std::vector<occupied_point> scratch_prev_occupied_;
  std::vector<vec2> scratch_prev_robots_;
};

}  // namespace gather::config
