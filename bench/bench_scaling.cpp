// Experiment E11 -- round-complexity scaling -- plus the PR 5 view-pipeline
// phase-scaling study.
//
// Part 1 (default): the paper proves termination but gives no explicit round
// bound, so this experiment measures how the rounds-to-gather grow with the
// swarm size n, per scheduler, at fixed delta, on uniform-random (class A)
// and majority (class M) instances.  Expected shape: roughly linear in n for
// the one-robot-per-round schedulers (round-robin, laggard) and
// near-constant in n (set by 1/delta) for the synchronous scheduler.
//
// Part 2: config-calculus phase scaling for n up to 512.  Each phase of the
// view pipeline (all_views, view_classes, symmetry) is timed against the
// pre-subquadratic reference oracle kept in views_reference.cpp, a log-log
// slope is fitted per phase, and GATHER_PROF call counters are captured on a
// small fixed grid.  --json PATH writes the machine-readable results
// (schema gather-bench-scaling-v1; committed baseline: bench/BENCH_PR5.json).
// The `bench_smoke_run` ctest (label `bench-smoke`) runs --smoke once, and
// three ctests gate that run through tools/bench/compare.py, one per
// committed baseline: bench_smoke_scaling (BENCH_PR5.json),
// bench_smoke_incremental (BENCH_PR9.json), bench_smoke_kernels
// (BENCH_PR10.json).
//
// Part 3 (PR 9): round-phase cost of the delta-aware mutation API.  At fixed
// n = 10^4 isolated singletons under the engines' refreshed-tolerance policy,
// one round moves k in {1, sqrt(n), n} robots and the hinted
// apply_moves(raw, mask) recanonicalization is timed against a cold rebuild
// of the same input.  The JSON phase is "round_update" with the point key
// holding k (not n); its committed baseline is bench/BENCH_PR9.json.  The
// fitted slope uses only the k >= sqrt(n) segment: below that the honest
// O(n) floors (the hint-mask walk and the per-round refreshed-tolerance
// bounds check) dominate and the curve is deliberately flat.
//
// Part 4 (PR 10): batch-kernel phases.  "fill" times the bulk all-view fill
// (shared SoA distance table + SIMD angle/key kernels + sharded emission)
// against fill_all_view_slots_reference on a *warm* derived pool -- the pool
// is grow-only, so after the first fill each rep only resets the ready flags
// and re-fills, which is exactly the per-round regime of the engines.
// "qr_scan" times the Lemma 3.4 quasi-regularity test over every occupied
// center (divisor-driven candidates + companion prefilter) against the
// O(n^2) per-candidate reference; the reference is ~n^3.5 end to end, so it
// is capped at a small n in full mode.  "round_class_a" is a single
// end-to-end point: construct + classify a class-A (uniform-random) instance
// at n = 10^4 cold, the full per-round decision cost at the paper's largest
// advertised swarm size.  Committed baseline: bench/BENCH_PR10.json.
//
// Flags: --smoke   small phase grid, skip the (slow) E11 simulations
//        --json P  write results as JSON to P
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "config/classify.h"
#include "config/configuration.h"
#include "config/derived.h"
#include "config/regularity.h"
#include "config/views.h"
#include "core/wait_free_gather.h"
#include "harness.h"
#include "obs/profile.h"
#include "workloads/generators.h"

namespace {

using namespace gather;

std::size_t g_sink = 0;  // keeps timed results observable

/// Median wall time of `fn(c)` over `reps` fresh configurations built from
/// `pts`.  The configuration is constructed outside the clock: its SEC /
/// canonicalization cost is identical shared work on the fast and reference
/// sides, and each rep starts with a cold derived-geometry cache, so the
/// sample times exactly one pipeline phase.
template <typename Fn>
std::uint64_t median_ns(int reps, const std::vector<geom::vec2>& pts, Fn&& fn) {
  std::vector<std::uint64_t> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int rep = 0; rep < reps; ++rep) {
    const config::configuration c(pts);
    g_sink += static_cast<std::size_t>(c.sec().radius > 0.0);  // canonicalize
    const auto t0 = std::chrono::steady_clock::now();
    fn(c);
    const auto t1 = std::chrono::steady_clock::now();
    samples.push_back(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

struct phase_point {
  std::size_t n = 0;
  std::uint64_t fast_ns = 0;
  std::uint64_t ref_ns = 0;  // 0 when the reference was not run at this n
};

struct phase_result {
  std::string name;
  std::vector<phase_point> points;
  double slope = 0.0;  // log-log slope of fast_ns vs n
};

/// Least-squares slope of ln(t) against ln(n).
double loglog_slope(const std::vector<phase_point>& pts) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  int m = 0;
  for (const phase_point& p : pts) {
    if (p.fast_ns == 0) continue;
    const double x = std::log(static_cast<double>(p.n));
    const double y = std::log(static_cast<double>(p.fast_ns));
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
    ++m;
  }
  if (m < 2) return 0.0;
  const double denom = m * sxx - sx * sx;
  return denom > 0.0 ? (m * sxy - sx * sy) / denom : 0.0;
}

std::vector<geom::vec2> phase_workload(std::size_t n) {
  sim::rng r(70'000 + n);
  return workloads::uniform_random(n, r);
}

/// Times the three view-pipeline phases, fast vs reference, on one shared
/// deterministic workload per n.
std::vector<phase_result> run_phase_scaling(const std::vector<std::size_t>& ns,
                                            std::size_t max_ref_n) {
  phase_result views{"views", {}, 0.0};
  phase_result classes{"classes", {}, 0.0};
  phase_result symmetry{"symmetry", {}, 0.0};

  for (std::size_t n : ns) {
    const std::vector<geom::vec2> pts = phase_workload(n);
    const bool run_ref = n <= max_ref_n;
    const int fast_reps = n <= 128 ? 9 : 5;
    const int ref_reps = n <= 64 ? 5 : 3;

    // Phase 1: views of every occupied location on a cold derived cache
    // (shared pairwise-distance table + run-emission builds vs the
    // re-cluster-per-entry reference oracle).
    phase_point pv{n, 0, 0};
    pv.fast_ns = median_ns(fast_reps, pts, [&](const config::configuration& c) {
      g_sink += config::all_views(c).size();
    });
    if (run_ref) {
      pv.ref_ns = median_ns(ref_reps, pts, [&](const config::configuration& c) {
        g_sink += config::detail::all_views_reference(c).size();
      });
    }
    views.points.push_back(pv);

    // Phase 2: view classification end to end on a cold derived cache --
    // what the old pipeline did per snapshot (reference views +
    // tolerance-comparator sort) against the fast path (fast views + lazy
    // canonical-key grouping).
    phase_point pc{n, 0, 0};
    pc.fast_ns = median_ns(fast_reps, pts, [&](const config::configuration& c) {
      g_sink += config::view_classes(c).size();
    });
    if (run_ref) {
      pc.ref_ns = median_ns(ref_reps, pts, [&](const config::configuration& c) {
        g_sink += config::detail::view_classes_reference(c).size();
      });
    }
    classes.points.push_back(pc);

    // Phase 3: sym(C) end to end on a cold derived cache (Booth string path
    // vs the old largest-view-class computation).
    phase_point ps{n, 0, 0};
    ps.fast_ns = median_ns(fast_reps, pts, [&](const config::configuration& c) {
      g_sink += static_cast<std::size_t>(config::symmetry(c));
    });
    if (run_ref) {
      ps.ref_ns = median_ns(ref_reps, pts, [&](const config::configuration& c) {
        g_sink +=
            static_cast<std::size_t>(config::detail::symmetry_reference(c));
      });
    }
    symmetry.points.push_back(ps);
  }

  views.slope = loglog_slope(views.points);
  classes.slope = loglog_slope(classes.points);
  symmetry.slope = loglog_slope(symmetry.points);
  return {views, classes, symmetry};
}

/// Jittered sqrt(n) x sqrt(n) lattice with spacing 10: every location is a
/// tolerance-isolated singleton, so sub-cell interior moves stay on the
/// configuration's delta repair path.
std::vector<geom::vec2> round_workload(std::size_t n) {
  const auto side = static_cast<std::size_t>(
      std::llround(std::ceil(std::sqrt(static_cast<double>(n)))));
  sim::rng r(91'000 + n);
  std::vector<geom::vec2> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double col = static_cast<double>(i % side);
    const double row = static_cast<double>(i / side);
    pts.push_back({10.0 * col + r.uniform(-1.0, 1.0),
                   10.0 * row + r.uniform(-1.0, 1.0)});
  }
  return pts;
}

/// k mover indices strictly interior to the lattice (the refreshed-tolerance
/// delta proof is cheapest for movers inside the input bounding box), spread
/// evenly; k == n means everyone moves.
std::vector<std::size_t> round_movers(std::size_t n, std::size_t k) {
  if (k >= n) {
    std::vector<std::size_t> all(n);
    for (std::size_t i = 0; i < n; ++i) all[i] = i;
    return all;
  }
  const auto side = static_cast<std::size_t>(
      std::llround(std::ceil(std::sqrt(static_cast<double>(n)))));
  std::vector<std::size_t> interior;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t col = i % side;
    const std::size_t row = i / side;
    if (col == 0 || row == 0 || col + 1 >= side || (i + side) >= n) continue;
    interior.push_back(i);
  }
  std::vector<std::size_t> movers;
  movers.reserve(k);
  const std::size_t stride = std::max<std::size_t>(interior.size() / k, 1);
  for (std::size_t j = 0; j < interior.size() && movers.size() < k;
       j += stride) {
    movers.push_back(interior[j]);
  }
  return movers;
}

/// Round-phase study: hinted incremental recanonicalization vs cold rebuild
/// at fixed n, k movers per round.  Point key `n` holds k.
phase_result run_round_phase(std::size_t n, bool smoke) {
  phase_result round{"round_update", {}, 0.0};
  const std::vector<geom::vec2> home = round_workload(n);
  const double floor = 1e-12;  // engines run refreshed; any fixed floor works

  for (const std::size_t k :
       {std::size_t{1},
        static_cast<std::size_t>(std::llround(std::sqrt(static_cast<double>(n)))),
        n}) {
    const std::vector<std::size_t> movers = round_movers(n, k);
    const int inc_reps = smoke ? (k <= 1 ? 15 : (k < n ? 9 : 5))
                               : (k <= 1 ? 31 : (k < n ? 15 : 9));
    const int rebuild_reps = smoke ? 3 : 5;
    sim::rng r(92'000 + k);

    std::vector<geom::vec2> raw = home;
    config::configuration inc;
    inc.set_tol_refresh(floor);
    inc.apply_moves(raw);
    std::vector<std::uint8_t> mask(n, 0);

    std::vector<std::uint64_t> samples;
    samples.reserve(static_cast<std::size_t>(inc_reps));
    for (int rep = 0; rep < inc_reps; ++rep) {
      std::fill(mask.begin(), mask.end(), std::uint8_t{0});
      for (const std::size_t i : movers) {
        // Re-jitter about the home cell (no drift): isolation is preserved.
        raw[i] = {home[i].x + r.uniform(-1.0, 1.0),
                  home[i].y + r.uniform(-1.0, 1.0)};
        mask[i] = 1;
      }
      const auto t0 = std::chrono::steady_clock::now();
      const config::mutation_report rep_out = inc.apply_moves(raw, mask);
      const auto t1 = std::chrono::steady_clock::now();
      g_sink += rep_out.moved + inc.distinct_count();
      samples.push_back(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()));
    }
    std::sort(samples.begin(), samples.end());

    std::vector<std::uint64_t> rebuilds;
    rebuilds.reserve(static_cast<std::size_t>(rebuild_reps));
    for (int rep = 0; rep < rebuild_reps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      config::configuration fresh;
      fresh.set_tol_refresh(floor);
      fresh.apply_moves(raw);
      const auto t1 = std::chrono::steady_clock::now();
      g_sink += fresh.distinct_count();
      rebuilds.push_back(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()));
    }
    std::sort(rebuilds.begin(), rebuilds.end());

    round.points.push_back(
        {k, samples[samples.size() / 2], rebuilds[rebuilds.size() / 2]});
  }

  // Slope over the k >= sqrt(n) segment only (see the file comment).
  const std::vector<phase_point> tail(round.points.begin() + 1,
                                      round.points.end());
  round.slope = loglog_slope(tail);
  return round;
}

void print_round_table(const phase_result& round, std::size_t n) {
  std::printf(
      "PR9: round-phase recanonicalization at n = %zu "
      "(hinted incremental vs cold rebuild)\n\n",
      n);
  std::printf("%10s %14s %14s %10s\n", "k movers", "incr (us)", "rebuild (us)",
              "speedup");
  bench::print_rule(60);
  for (const phase_point& p : round.points) {
    std::printf("%10zu %14.1f %14.1f %9.1fx\n", p.n,
                static_cast<double>(p.fast_ns) / 1e3,
                static_cast<double>(p.ref_ns) / 1e3,
                static_cast<double>(p.ref_ns) /
                    static_cast<double>(p.fast_ns));
  }
  std::printf(
      "%10s log-log slope in k (k >= sqrt(n) segment): %.2f\n\n",
      round.name.c_str(), round.slope);
}

/// Median wall time of `fn(c)` on the *same* configuration, with the view
/// slots invalidated (ready flags cleared, pool kept) before each rep.  One
/// untimed call warms the grow-only pool first, so the sample isolates the
/// fill itself -- no allocation, no canonicalization.
template <typename Fn>
std::uint64_t median_warm_fill_ns(int reps, const config::configuration& c,
                                  Fn&& fn) {
  fn(c);
  std::vector<std::uint64_t> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int rep = 0; rep < reps; ++rep) {
    // Deliberate cache poke: re-timing the fill requires invalidating the
    // ready flags without discarding the warm pool, which no public wrapper
    // can express.
    config::derived_geometry& d = c.derived();  // gather-lint: allow(R5)
    std::fill(d.view_ready.begin(), d.view_ready.end(), char{0});
    const auto t0 = std::chrono::steady_clock::now();
    fn(c);
    const auto t1 = std::chrono::steady_clock::now();
    g_sink += d.views.size();
    samples.push_back(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Part 4 phase 1: warm bulk view fill, fast vs reference, on one shared
/// deterministic workload per n.
phase_result run_fill_phase(const std::vector<std::size_t>& ns) {
  phase_result fill{"fill", {}, 0.0};
  for (std::size_t n : ns) {
    const config::configuration c(phase_workload(n));
    g_sink += static_cast<std::size_t>(c.sec().radius > 0.0);
    const int reps = n <= 256 ? 9 : 5;
    phase_point p{n, 0, 0};
    p.fast_ns = median_warm_fill_ns(reps, c, [](const config::configuration& cc) {
      config::detail::fill_all_view_slots(cc);
    });
    p.ref_ns = median_warm_fill_ns(reps, c, [](const config::configuration& cc) {
      config::detail::fill_all_view_slots_reference(cc);
    });
    fill.points.push_back(p);
  }
  fill.slope = loglog_slope(fill.points);
  return fill;
}

/// Part 4 phase 2: the Lemma 3.4 quasi-regularity test over every occupied
/// center -- the classify-time scan -- fast vs reference.  Neither side
/// touches the derived cache, so one configuration per n serves both.
phase_result run_qr_phase(const std::vector<std::size_t>& ns,
                          std::size_t max_ref_n) {
  phase_result qr{"qr_scan", {}, 0.0};
  for (std::size_t n : ns) {
    const config::configuration c(phase_workload(n));
    g_sink += static_cast<std::size_t>(c.sec().radius > 0.0);
    const int reps = n <= 256 ? 5 : 3;
    const auto scan = [&](int r, auto&& probe) {
      std::vector<std::uint64_t> samples;
      samples.reserve(static_cast<std::size_t>(r));
      for (int rep = 0; rep < r; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        std::size_t hits = 0;
        for (const config::occupied_point& o : c.occupied()) {
          hits += probe(c, o.position).has_value();
        }
        const auto t1 = std::chrono::steady_clock::now();
        g_sink += hits;
        samples.push_back(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()));
      }
      std::sort(samples.begin(), samples.end());
      return samples[samples.size() / 2];
    };
    phase_point p{n, 0, 0};
    p.fast_ns = scan(reps, [](const config::configuration& cc, geom::vec2 ctr) {
      return config::quasi_regular_about_occupied(cc, ctr);
    });
    if (n <= max_ref_n) {
      p.ref_ns = scan(reps, [](const config::configuration& cc, geom::vec2 ctr) {
        return config::detail::quasi_regular_about_occupied_reference(cc, ctr);
      });
    }
    qr.points.push_back(p);
  }
  qr.slope = loglog_slope(qr.points);
  return qr;
}

/// Part 4 phase 3: one cold end-to-end classification of a class-A
/// (uniform-random) instance at n = 10^4 -- construction (canonicalize +
/// SEC) plus the full classify pipeline (symmetry, quasi-regularity scan,
/// safe points).  Single rep: the point exists to pin the order of magnitude
/// of a round at the paper's largest advertised swarm size, and the 3x
/// compare.py margin absorbs shared-machine noise.
phase_result run_round_class_a(std::size_t n) {
  phase_result round{"round_class_a", {}, 0.0};
  const std::vector<geom::vec2> pts = phase_workload(n);
  const auto t0 = std::chrono::steady_clock::now();
  const config::configuration c(pts);
  const config::classification verdict = config::classify(c);
  const auto t1 = std::chrono::steady_clock::now();
  g_sink += static_cast<std::size_t>(verdict.cls) + c.distinct_count();
  round.points.push_back(
      {n,
       static_cast<std::uint64_t>(
           std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
               .count()),
       0});
  return round;
}

/// GATHER_PROF call counts over a small fixed grid: the same configurations
/// and calls in every mode and on every machine, so the counts are exact
/// invariants of the algorithm (compare.py rejects any increase).
std::vector<std::pair<std::string, std::uint64_t>> run_counter_grid() {
  obs::prof_registry reg;
  {
    obs::prof_session session(&reg);
    for (std::size_t n : {8u, 16u, 32u}) {
      const config::configuration c(phase_workload(n));
      g_sink += config::all_views(c).size();
      g_sink += config::view_classes(c).size();
      g_sink += static_cast<std::size_t>(config::symmetry(c));
      g_sink += static_cast<std::size_t>(config::classify(c).cls);
    }
  }
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& [site, stats] : reg.sites()) {
    out.emplace_back(site, stats.calls);
  }
  return out;
}

void print_phase_table(const char* title,
                       const std::vector<phase_result>& phases) {
  std::printf("%s\n\n", title);
  std::printf("%10s %6s %14s %14s %10s\n", "phase", "n", "fast (us)",
              "reference (us)", "speedup");
  bench::print_rule(60);
  for (const phase_result& ph : phases) {
    for (const phase_point& p : ph.points) {
      std::printf("%10s %6zu %14.1f", ph.name.c_str(), p.n,
                  static_cast<double>(p.fast_ns) / 1e3);
      if (p.ref_ns > 0) {
        std::printf(" %14.1f %9.1fx", static_cast<double>(p.ref_ns) / 1e3,
                    static_cast<double>(p.ref_ns) /
                        static_cast<double>(p.fast_ns));
      } else {
        std::printf(" %14s %10s", "-", "-");
      }
      std::printf("\n");
    }
    std::printf("%10s log-log slope of fast path: %.2f\n\n", ph.name.c_str(),
                ph.slope);
  }
}

bool write_json(const char* path, const std::vector<phase_result>& phases,
                const std::vector<std::pair<std::string, std::uint64_t>>& counters,
                bool smoke) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_scaling: cannot open %s for writing\n", path);
    return false;
  }
  std::fprintf(f, "{\n  \"schema\": \"gather-bench-scaling-v1\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
  std::fprintf(f, "  \"phases\": {\n");
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const phase_result& ph = phases[i];
    std::fprintf(f, "    \"%s\": {\n      \"slope\": %.4f,\n      \"points\": [\n",
                 ph.name.c_str(), ph.slope);
    for (std::size_t j = 0; j < ph.points.size(); ++j) {
      const phase_point& p = ph.points[j];
      std::fprintf(f,
                   "        {\"n\": %zu, \"fast_ns\": %llu, \"ref_ns\": %llu}%s\n",
                   p.n, static_cast<unsigned long long>(p.fast_ns),
                   static_cast<unsigned long long>(p.ref_ns),
                   j + 1 < ph.points.size() ? "," : "");
    }
    std::fprintf(f, "      ]\n    }%s\n", i + 1 < phases.size() ? "," : "");
  }
  std::fprintf(f, "  },\n  \"counters\": {\n");
  for (std::size_t i = 0; i < counters.size(); ++i) {
    std::fprintf(f, "    \"%s\": %llu%s\n", counters[i].first.c_str(),
                 static_cast<unsigned long long>(counters[i].second),
                 i + 1 < counters.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  return true;
}

void run_e11() {
  const core::wait_free_gather algo;
  const int seeds = 5;

  for (const char* family : {"uniform", "majority"}) {
    std::printf("E11: median rounds to gather vs n  (workload: %s, delta 5%%)\n\n",
                family);
    std::printf("%6s |", "n");
    for (const auto& sched : sim::all_schedulers()) {
      std::printf(" %16s", std::string(sched.name).c_str());
    }
    std::printf("\n");
    bench::print_rule(95);
    for (std::size_t n : {4u, 8u, 16u, 32u, 64u}) {
      std::printf("%6zu |", n);
      for (const auto& sched : sim::all_schedulers()) {
        std::vector<std::size_t> rounds;
        for (int seed = 0; seed < seeds; ++seed) {
          sim::rng r(80'000 + 131 * seed + n);
          const auto pts = family[0] == 'u'
                               ? workloads::uniform_random(n, r)
                               : workloads::with_majority(n, n / 3, r);
          auto s = sched.make();
          auto m = sim::make_full_movement();
          auto c = sim::make_no_crash();
          sim::sim_options opts;
          opts.seed = 90'000 + seed;
          const auto res = bench::run_pieces(pts, algo, *s, *m, *c, opts);
          if (res.status == sim::sim_status::gathered) rounds.push_back(res.rounds);
        }
        std::sort(rounds.begin(), rounds.end());
        if (rounds.size() == static_cast<std::size_t>(seeds)) {
          std::printf(" %16zu", rounds[rounds.size() / 2]);
        } else {
          std::printf(" %13zu/%zu", rounds.size(), static_cast<std::size_t>(seeds));
        }
      }
      std::printf("\n");
    }
    std::printf("\n");
  }
  std::printf("Reading: one-robot-per-round schedulers scale linearly in n;\n"
              "synchronous rounds are set by the geometry, not the swarm size.\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_scaling [--smoke] [--json PATH]\n");
      return 2;
    }
  }

  if (!smoke) run_e11();

  const std::vector<std::size_t> ns =
      smoke ? std::vector<std::size_t>{32, 64}
            : std::vector<std::size_t>{16, 32, 64, 128, 256, 512};
  const std::size_t max_ref_n = smoke ? 64 : 512;
  auto phases = run_phase_scaling(ns, max_ref_n);
  print_phase_table("PR5: view-pipeline phase scaling (fast vs reference oracle)",
                    phases);
  if (max_ref_n < ns.back()) {
    std::printf("note: reference oracle capped at n = %zu\n", max_ref_n);
  }

  const std::size_t round_n = 10'000;
  phases.push_back(run_round_phase(round_n, smoke));
  print_round_table(phases.back(), round_n);

  // Part 4: batch-kernel phases (see the file comment).
  const std::vector<std::size_t> fill_ns =
      smoke ? std::vector<std::size_t>{256, 1024}
            : std::vector<std::size_t>{256, 1024, 4096};
  const std::vector<std::size_t> qr_ns =
      smoke ? std::vector<std::size_t>{64, 128}
            : std::vector<std::size_t>{128, 256, 512, 1024, 2048, 4096};
  const std::size_t qr_max_ref_n = smoke ? 128 : 256;
  std::vector<phase_result> kernel_phases;
  kernel_phases.push_back(run_fill_phase(fill_ns));
  kernel_phases.push_back(run_qr_phase(qr_ns, qr_max_ref_n));
  kernel_phases.push_back(run_round_class_a(10'000));
  print_phase_table(
      "PR10: batch-kernel phases (warm fill, QR scan, cold class-A round)",
      kernel_phases);
  std::printf("note: qr_scan reference capped at n = %zu; round_class_a has "
              "no reference\n",
              qr_max_ref_n);
  for (phase_result& ph : kernel_phases) phases.push_back(std::move(ph));

  const auto counters = run_counter_grid();
  std::printf("GATHER_PROF call counts on the fixed grid (n = 8, 16, 32):\n");
  for (const auto& [site, calls] : counters) {
    std::printf("  prof.%s.calls = %llu\n", site.c_str(),
                static_cast<unsigned long long>(calls));
  }

  if (json_path != nullptr && !write_json(json_path, phases, counters, smoke)) {
    return 1;
  }
  std::printf("(sink %zu)\n", g_sink % 10);
  return 0;
}
