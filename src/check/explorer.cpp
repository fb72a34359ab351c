#include "check/explorer.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "config/classify.h"
#include "config/state_key.h"
#include "core/lemma_registry.h"
#include "core/predicates.h"
#include "sim/gathered.h"
#include "sim/round.h"

namespace gather::check {

namespace {

using config::configuration;
using geom::vec2;

// The subset enumeration below uses one mask word per live-robot set.
constexpr std::size_t max_robots = 16;

struct explorer {
  explorer(const check_spec& s, const check_options& o, check_result& r)
      : spec(s), opts(o), result(r) {}

  const check_spec& spec;
  const check_options& opts;
  check_result& result;

  configuration cfg;
  std::unordered_set<config::state_key, config::state_key_hash> visited;
  std::unordered_set<config::state_key, config::state_key_hash> raw_seen;
  std::vector<sim::trace_step> path_steps;
  std::vector<std::vector<vec2>> path_positions;
  const std::vector<vec2>* seed = nullptr;
  double delta_abs = 0.0;
  bool stop = false;
  sim::gathered_check gathered;
  // Round scratch.  The explorer rebuilds every state's configuration in
  // full, so it ignores the snap pass's write marks.
  std::vector<std::uint8_t> snap_marks;
  std::vector<vec2> stationary;

  void run_seed(const std::vector<vec2>& pts) {
    seed = &pts;
    // Delta from the *seed* diameter and the tolerance floor pinned to it,
    // as in the engines, so explorer and replay agree bit for bit on every
    // snapped coordinate.
    delta_abs = sim::run_delta(opts.delta_fraction, configuration(pts));
    cfg = configuration();
    sim::pin_tolerance(cfg, delta_abs);
    path_steps.clear();
    path_positions.clear();
    visit(pts, std::vector<std::uint8_t>(pts.size(), 1), 0, 0, false,
          config::config_class::asymmetric);
  }

  void record_violation(std::string_view lemma_id) {
    if (result.counterexamples.size() >= opts.max_counterexamples) {
      stop = true;
      return;
    }
    counterexample ce;
    ce.lemma_id = std::string(lemma_id);
    ce.round = path_steps.size();
    ce.trace.initial = *seed;
    ce.trace.delta_fraction = opts.delta_fraction;
    ce.trace.truncation_levels = opts.truncation_levels;
    ce.trace.steps = path_steps;
    ce.path = path_positions;
    result.counterexamples.push_back(std::move(ce));
    if (result.counterexamples.size() >= opts.max_counterexamples) stop = true;
  }

  void visit(std::vector<vec2> positions, std::vector<std::uint8_t> live,
             std::size_t crashes_used, std::size_t round, bool have_prev,
             config::config_class prev_cls) {
    if (stop) return;
    ++result.states_generated;
    if (result.states_generated > opts.max_states) {
      result.state_cap_hit = true;
      stop = true;
      return;
    }
    cfg.apply_moves(positions);
    const configuration& c = cfg;
    // The engine's snap pass at round start: move origins, recorded paths
    // and the engine's replayed round_record.positions all see the clustered
    // representatives, so a replayed trace walks through bit-identical
    // vectors even when tolerance clustering moves a coordinate.
    snap_marks.resize(positions.size());
    sim::snap_positions(c, positions, snap_marks);
    const config::config_class cls = config::classify(c).cls;

    path_positions.push_back(positions);
    // Transition lemmas are edge properties: an edge into an already-visited
    // state is still a fresh transition (its parent may carry a different
    // class), so they must be evaluated before duplicate pruning can discard
    // the child.  The tally always completes the full lemma sweep for this
    // edge -- record_violation stops *recording* at the counterexample cap,
    // never the coverage accounting.
    if (have_prev) {
      ++result.transitions_checked;
      const auto& tlemmas = core::transition_lemmas();
      for (std::size_t li = 0; li < tlemmas.size(); ++li) {
        tally(result.transition_coverage[li], tlemmas[li].id,
              tlemmas[li].eval(prev_cls, cls));
      }
      if (stop) {
        path_positions.pop_back();
        return;
      }
    }

    // Dedup keys carry the remaining obligations (rounds, crash budget) and
    // the delta length scale: merging two states is only sound when their
    // futures coincide, and the future depends on all three.
    const std::uint64_t rounds_remaining =
        static_cast<std::uint64_t>(opts.max_rounds - round);
    const std::uint64_t budget_remaining =
        static_cast<std::uint64_t>(opts.crash_budget - crashes_used);
    config::state_key raw = config::raw_state_key(c, live);
    raw.words.push_back(rounds_remaining);
    raw.words.push_back(budget_remaining);
    raw.words.push_back(std::bit_cast<std::uint64_t>(delta_abs));
    raw_seen.insert(raw);
    result.raw_unique = raw_seen.size();

    config::state_key key;
    if (opts.canonical_dedup) {
      key = config::canonical_state_key(c, live);
      key.words.push_back(rounds_remaining);
      key.words.push_back(budget_remaining);
      const double ratio = delta_abs / std::max(c.sec().radius, 1e-300);
      key.words.push_back(ratio > 1e6 ? ~std::uint64_t{0}
                                      : config::quantize_scale_free(ratio));
    } else {
      key = std::move(raw);
    }
    if (!visited.insert(std::move(key)).second) {
      ++result.duplicates_pruned;
      path_positions.pop_back();
      return;
    }
    ++result.states_explored;

    expand(positions, live, crashes_used, round, cls);
    path_positions.pop_back();
  }

  void expand(const std::vector<vec2>& positions,
              const std::vector<std::uint8_t>& live, std::size_t crashes_used,
              std::size_t round, config::config_class cls) {
    const configuration& c = cfg;

    // Like the transition sweep in visit(): every state lemma is tallied for
    // this state before the counterexample cap can cut the search short, so
    // `applicable + not_applicable == states_explored` holds even for the
    // state that trips the cap.
    const core::lemma_context ctx{c, *spec.algorithm};
    const auto& slemmas = core::state_lemmas();
    for (std::size_t li = 0; li < slemmas.size(); ++li) {
      tally(result.state_coverage[li], slemmas[li].id, slemmas[li].eval(ctx));
    }
    if (stop) return;

    // Terminal states, in the engine's order: gathered (Def. 9 over the live
    // robots; the checked model has no byzantine robots), then the
    // all-stationary fixpoint, then the round bound.
    if (gathered(
            c, positions, [&](std::size_t i) { return live[i] != 0; },
            [](std::size_t, vec2) { return false; }, *spec.algorithm)) {
      ++result.terminal_gathered;
      return;
    }
    const auto dests = core::destinations(c, *spec.algorithm);
    if (sim::find_stationary(c, dests, stationary)) {
      ++result.terminal_stalled;
      return;
    }
    if (round >= opts.max_rounds) {
      ++result.bound_reached;
      return;
    }

    // Everything the children need is computed before the first recursive
    // visit clobbers the shared configuration's cache.
    const std::size_t n = positions.size();
    std::vector<vec2> robot_dest(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (live[i]) {
        robot_dest[i] =
            sim::robot_destination(c, dests, c.snapped(positions[i]));
      }
    }

    std::vector<std::size_t> alive;
    for (std::size_t i = 0; i < n; ++i) {
      if (live[i]) alive.push_back(i);
    }
    const std::size_t climit =
        std::min({opts.max_crashes_per_round,
                  opts.crash_budget - crashes_used, alive.size() - 1});

    // Adversary choice 1: which live robots crash this round.
    for (std::size_t cmask = 0; cmask < (std::size_t{1} << alive.size());
         ++cmask) {
      if (static_cast<std::size_t>(std::popcount(cmask)) > climit) continue;
      std::vector<std::uint8_t> child_live = live;
      std::vector<std::size_t> crashed;
      for (std::size_t j = 0; j < alive.size(); ++j) {
        if ((cmask >> j) & 1u) {
          child_live[alive[j]] = 0;
          crashed.push_back(alive[j]);
        }
      }
      std::vector<std::size_t> rem;
      for (std::size_t i = 0; i < n; ++i) {
        if (child_live[i]) rem.push_back(i);
      }

      // Adversary choice 2: every non-empty activation subset of the
      // still-live robots.
      for (std::size_t amask = 1; amask < (std::size_t{1} << rem.size());
           ++amask) {
        std::vector<std::size_t> active;
        for (std::size_t j = 0; j < rem.size(); ++j) {
          if ((amask >> j) & 1u) active.push_back(rem[j]);
        }

        // Adversary choice 3: per activated robot, a stop on the
        // truncation grid (a single choice when the move completes by the
        // model contract).
        struct option {
          std::uint32_t level = 0;
          vec2 stop;
        };
        std::vector<std::vector<option>> choices(active.size());
        for (std::size_t a = 0; a < active.size(); ++a) {
          const std::size_t i = active[a];
          const double want = geom::distance(positions[i], robot_dest[i]);
          const std::uint32_t levels =
              want <= delta_abs ? 1 : opts.truncation_levels;
          for (std::uint32_t lvl = 0; lvl < levels; ++lvl) {
            choices[a].push_back(
                {lvl, sim::truncated_stop(positions[i], robot_dest[i],
                                          delta_abs, lvl,
                                          opts.truncation_levels)});
          }
        }

        std::vector<std::size_t> pick(active.size(), 0);
        for (;;) {
          std::vector<vec2> next = positions;
          sim::trace_step step;
          step.crashes = crashed;
          step.active.assign(n, 0);
          step.levels.assign(n, 0);
          for (std::size_t a = 0; a < active.size(); ++a) {
            const option& o = choices[a][pick[a]];
            next[active[a]] = o.stop;
            step.active[active[a]] = 1;
            step.levels[active[a]] = o.level;
          }
          path_steps.push_back(std::move(step));
          visit(std::move(next), child_live, crashes_used + crashed.size(),
                round + 1, true, cls);
          path_steps.pop_back();
          if (stop) return;

          std::size_t d = 0;
          while (d < pick.size() && ++pick[d] == choices[d].size()) {
            pick[d] = 0;
            ++d;
          }
          if (d == pick.size()) break;
        }
      }
    }
  }

  void tally(lemma_coverage& cov, std::string_view id,
             core::predicate_verdict v) {
    switch (v) {
      case core::predicate_verdict::not_applicable:
        ++cov.not_applicable;
        break;
      case core::predicate_verdict::satisfied:
        ++cov.applicable;
        break;
      case core::predicate_verdict::violated:
        ++cov.applicable;
        ++cov.violations;
        record_violation(id);
        break;
    }
  }
};

}  // namespace

double check_result::symmetry_reduction() const {
  if (states_explored == 0) return 1.0;
  return static_cast<double>(raw_unique) /
         static_cast<double>(states_explored);
}

std::uint64_t check_result::total_violations() const {
  std::uint64_t total = 0;
  for (const lemma_coverage& cov : state_coverage) total += cov.violations;
  for (const lemma_coverage& cov : transition_coverage) total += cov.violations;
  return total;
}

check_result explore(const check_spec& spec) {
  if (spec.algorithm == nullptr) {
    throw std::invalid_argument("check_spec: algorithm unset");
  }
  if (spec.options.truncation_levels == 0) {
    throw std::invalid_argument("check_options: truncation_levels must be >= 1");
  }
  check_result result;
  for (const core::state_lemma& l : core::state_lemmas()) {
    result.state_coverage.push_back(
        {std::string(l.id), std::string(l.title), 0, 0, 0});
  }
  for (const core::transition_lemma& l : core::transition_lemmas()) {
    result.transition_coverage.push_back(
        {std::string(l.id), std::string(l.title), 0, 0, 0});
  }

  explorer ex{spec, spec.options, result};
  for (const std::vector<vec2>& pts : spec.seeds) {
    if (pts.empty()) throw std::invalid_argument("check_spec: empty seed");
    if (pts.size() > max_robots) {
      throw std::invalid_argument("check_spec: more than 16 robots");
    }
    ++result.seeds;
    ex.run_seed(pts);
    if (ex.stop) break;
  }

  if (spec.metrics != nullptr) {
    obs::metrics_registry local;
    local.counter("check.seeds") = result.seeds;
    local.counter("check.states_generated") = result.states_generated;
    local.counter("check.states_explored") = result.states_explored;
    local.counter("check.duplicates_pruned") = result.duplicates_pruned;
    local.counter("check.raw_unique") = result.raw_unique;
    local.counter("check.transitions") = result.transitions_checked;
    local.counter("check.violations") = result.total_violations();
    local.counter("check.counterexamples") = result.counterexamples.size();
    local.gauge("check.symmetry_reduction") = result.symmetry_reduction();
    spec.metrics->merge(local);
  }
  return result;
}

std::vector<std::vector<vec2>> lattice_multisets(std::size_t w, std::size_t h,
                                                 std::size_t n) {
  std::vector<vec2> points;
  points.reserve(w * h);
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      points.push_back({static_cast<double>(x), static_cast<double>(y)});
    }
  }
  std::vector<std::vector<vec2>> out;
  if (n == 0 || points.empty()) return out;
  // Non-decreasing index tuples enumerate multisets (combinations with
  // repetition) in lexicographic order.
  std::vector<std::size_t> idx(n, 0);
  for (;;) {
    std::vector<vec2> seed;
    seed.reserve(n);
    for (std::size_t i : idx) seed.push_back(points[i]);
    out.push_back(std::move(seed));
    std::size_t d = n;
    while (d > 0 && idx[d - 1] == points.size() - 1) --d;
    if (d == 0) break;
    const std::size_t v = idx[d - 1] + 1;
    for (std::size_t i = d - 1; i < n; ++i) idx[i] = v;
  }
  return out;
}

}  // namespace gather::check
