// WAIT-FREE-GATHER (paper, Fig. 2 and Sec. V.B).
//
// The algorithm gathers all correct robots starting from any configuration
// except the bivalent one, tolerating up to n-1 crash faults (Theorem 5.1).
// It is wait-free: in every configuration, robots at no more than one
// location are instructed to stay (Lemma 5.1); every other robot always
// makes progress.
//
// Case analysis by configuration class:
//   M   -- move straight to the unique maximum-multiplicity point when the
//          path is free; blocked robots side-step onto a fresh ray (an
//          isosceles rotation about the target by at most a third of the
//          angular gap to the nearest other ray, clockwise by chirality).
//   QR, L1W -- move straight to the Weber point, which is computable for
//          these classes and invariant under the moves (Lemmas 3.2/3.3).
//   A   -- elect the unique leader among the *safe* occupied points,
//          maximizing multiplicity, then minimizing the sum of distances,
//          then maximizing the view; everyone moves straight to it.
//   L2W -- endpoint robots rotate off the line (pi/4 about the line center);
//          all other robots move to the center of the segment between the
//          two extreme points.
//   B   -- gathering is impossible (Lemma 5.2); robots hold position.
#pragma once

#include <optional>

#include "config/classify.h"
#include "core/algorithm.h"

namespace gather::core {

class wait_free_gather final : public gathering_algorithm {
 public:
  [[nodiscard]] vec2 destination(const snapshot& s) const override;
  /// Batched variant: classifies (and, in the A case, elects; in the L2W
  /// case, finds the extreme pair) once for the whole configuration instead
  /// of once per occupied location.  In the M case it finds every blocked
  /// robot through one polar order about the target instead of U path
  /// scans.  Bit-identical to per-location destination() calls.
  [[nodiscard]] std::vector<vec2> destinations(const configuration& c) const override;
  [[nodiscard]] std::string_view name() const override { return "wait-free-gather"; }

  // -- exposed case rules (for tests and benchmarks) -------------------------

  /// M-case rule: destination of a robot at `self` when `elected` is the
  /// unique maximum-multiplicity point.  One O(U) scan for a blocker.
  [[nodiscard]] static vec2 multiple_case(const configuration& c, vec2 self,
                                          vec2 elected);

  /// A-case election: the unique safe occupied location maximizing
  /// (multiplicity, -sum of distances, view).  Returns nullopt when no
  /// occupied location is safe (cannot happen for non-linear configurations,
  /// Lemma 4.2).
  [[nodiscard]] static std::optional<vec2> elect_leader(const configuration& c);

  /// L2W-case rule: destination of a robot at `self`.
  [[nodiscard]] static vec2 linear_2w_case(const configuration& c, vec2 self);

  /// The clockwise side-step rotation angle used by a blocked robot at
  /// `self` in the M case (a third of the angular gap to the nearest other
  /// occupied ray around `elected`).
  [[nodiscard]] static double side_step_angle(const configuration& c, vec2 self,
                                              vec2 elected);
};

}  // namespace gather::core
