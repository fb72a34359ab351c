// The four benchmark workloads.  Each one generates its inputs from the seed
// in setup() and then repeats a fixed unit of work against the libraries'
// public entry points; a traced unit runs the same work through the span
// decorators.
#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "bench.h"
#include "check/explorer.h"
#include "config/classify.h"
#include "core/wait_free_gather.h"
#include "decorators.h"
#include "obs/events.h"
#include "obs/metrics_registry.h"
#include "runner/campaign.h"
#include "runner/campaign_spec.h"
#include "runner/params.h"
#include "sha256.h"
#include "sim/analysis.h"
#include "sim/spec.h"
#include "trace.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

using gather::geom::vec2;
using clock_type = std::chrono::steady_clock;

double since(clock_type::time_point t0) {
  return std::chrono::duration<double>(clock_type::now() - t0).count();
}

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

void hash_points(sha256& h, const std::vector<vec2>& pts) {
  for (const vec2& p : pts) {
    h.update_pod(std::bit_cast<std::uint64_t>(p.x));
    h.update_pod(std::bit_cast<std::uint64_t>(p.y));
  }
}

void count_class(layer_facts& facts, gather::config::config_class c) {
  facts.sums["config.rounds_by_class." + std::string(gather::config::to_string(c))] += 1.0;
}

// ---------------------------------------------------------------------------
// campaign_small: the everyday Theorem 5.1 validation sweep.

gather::runner::grid campaign_grid(std::uint64_t seed, size_class size) {
  gather::runner::grid g;
  g.workloads = gather::runner::workload_names();
  g.schedulers.clear();
  for (const auto& s : gather::sim::all_schedulers()) g.schedulers.emplace_back(s.name);
  g.movements.clear();
  for (const auto& m : gather::sim::all_movements()) g.movements.emplace_back(m.name);
  g.fs = {0, 1};
  g.repeats = 1;
  g.base_seed = seed;
  if (size == size_class::full) {
    g.ns = {8, 16, 32};
  } else {
    g.ns = {8};
    g.schedulers = {"fair-random", "laggard"};
    g.movements = {"random-stop"};
  }
  return g;
}

constexpr std::size_t campaign_jobs = 2;
/// The untraced unit runs the grid as this many consecutive shards (its
/// pieces); appended in order, their rows and sinks are the whole campaign's.
constexpr std::size_t campaign_shards = 12;

/// Per-cell state of the decorated campaign replica.
struct cell_slot {
  gather::runner::run_result result;
  std::string jsonl;
  gather::obs::metrics_registry metrics;
  gather::obs::prof_registry prof;
  std::uint64_t trace_bytes = 0;
  std::uint64_t events = 0;
  double busy_s = 0.0;
  std::vector<gather::config::config_class> classes;
};

/// execute_cell with every polymorphic piece wrapped in a span decorator.
/// Must reproduce execute_cell's run_result, JSONL and metrics exactly.
gather::runner::run_result replica_cell(const gather::runner::run_spec& spec,
                                        const gather::runner::grid& g, cell_slot& slot) {
  const gather::core::wait_free_gather algo;
  const traced_algorithm talgo(algo);
  std::vector<vec2> pts;
  {
    const span sp(site::workloads_build);
    gather::sim::rng workload_rng(spec.seed);
    pts = gather::runner::build_workload(spec.workload, spec.n, workload_rng);
  }
  auto sched = gather::runner::scheduler_by_name(spec.scheduler);
  auto move = gather::runner::movement_by_name(spec.movement);
  auto crash = spec.f == 0 ? gather::sim::make_no_crash()
                           : gather::sim::make_random_crashes(spec.f, g.crash_horizon);
  traced_scheduler tsched(*sched);
  traced_movement tmove(*move);
  traced_crash tcrash(*crash, false);
  gather::obs::jsonl_string_sink jsonl(&slot.jsonl);
  traced_sink tsink(jsonl);

  gather::sim::sim_spec s;
  s.initial = std::move(pts);
  s.algorithm = &talgo;
  s.scheduler = &tsched;
  s.movement = &tmove;
  s.crash = &tcrash;
  s.options.seed = spec.seed;
  s.options.delta_fraction = spec.delta;
  s.options.check_wait_freeness = g.check_wait_freeness;
  s.options.max_rounds = g.max_rounds;
  s.options.record_trace = true;
  s.sink = &tsink;
  s.metrics = &slot.metrics;
  s.profile = &slot.prof;
  s.run_id = spec.index;

  gather::sim::sim_result res;
  {
    const span sp(site::sim_run);
    res = gather::sim::run(s);
  }
  gather::sim::potential_report pot;
  {
    const span sp(site::sim_potentials);
    pot = gather::sim::check_potentials(res);
  }
  for (const auto& r : res.trace) {
    slot.trace_bytes += sizeof r + r.positions.size() * sizeof(vec2) + r.active.size() +
                        r.live.size();
  }
  slot.events = tsink.events();
  slot.classes = res.class_history;

  gather::runner::run_result out;
  out.spec = spec;
  out.n = res.final_positions.size();
  out.status = res.status;
  out.rounds = res.rounds;
  out.crashes = res.crashes;
  out.wait_free_violations = res.wait_free_violations;
  out.bivalent_entries = res.bivalent_entries;
  out.first_multiplicity_round = pot.first_multiplicity_round;
  out.phase_count = pot.phase_count;
  return out;
}

std::string campaign_csv(const std::vector<gather::runner::run_result>& rows) {
  std::string csv = gather::runner::csv_header() + "\n";
  for (const auto& r : rows) csv += gather::runner::csv_row(r) + "\n";
  return csv;
}

class campaign_small final : public workload {
 public:
  explicit campaign_small(const options& o) : grid_(campaign_grid(o.seed, o.size)) {}

  std::map<std::string, double> setup() override {
    auto t0 = clock_type::now();
    const auto specs = gather::runner::expand(grid_);
    const double expand_ms = since(t0) * 1e3;
    t0 = clock_type::now();
    for (const auto& spec : specs) {
      gather::sim::rng workload_rng(spec.seed);
      (void)gather::runner::build_workload(spec.workload, spec.n, workload_rng);
    }
    const double gen_ms = since(t0) * 1e3;
    cells_ = specs.size();
    return {{"runner.expand_ms", expand_ms}, {"workloads.gen_ms", gen_ms}};
  }

  unit_outcome run_unit(bool traced, layer_facts& facts) override {
    return traced ? run_replica(facts) : run_library();
  }

  std::vector<metric> metrics(const std::vector<unit_outcome>& units) override {
    std::vector<double> walls;
    for (const auto& u : units) walls.push_back(u.wall_s);
    const double wall = median(walls);
    return {{"runs_per_s", static_cast<double>(cells_) / wall, "runs/s", units.size(), ""},
            {"rounds_per_s", static_cast<double>(rounds_) / wall, "rounds/s", units.size(),
             "ATOM rounds"},
            {"ops_per_s", static_cast<double>(cells_) / wall, "1/s", units.size(),
             "op = one simulation run"}};
  }

  std::map<std::string, std::string> outputs() override { return outputs_; }
  std::size_t jobs() const override { return campaign_jobs; }

 private:
  unit_outcome check_rows(const std::vector<gather::runner::run_result>& rows,
                          const std::string& jsonl, const std::string& metrics_json) {
    unit_outcome u;
    u.attempted = cells_;
    if (rows.size() != cells_) {
      u.problems.push_back("campaign returned " + std::to_string(rows.size()) + " of " +
                           std::to_string(cells_) + " rows");
      u.failed = cells_;
    }
    // A run fails when it does not gather (Theorem 5.1; the campaign's own
    // failure count).  Cells whose online Lemma 5.1 / bivalent-entry checks
    // fired are counted as an output: their number is pinned per recorded
    // seed, and the CSV digest covers the per-cell counts.
    std::uint64_t rounds = 0;
    std::uint64_t breach_cells = 0;
    for (const auto& r : rows) {
      rounds += r.rounds;
      if (r.wait_free_violations != 0 || r.bivalent_entries != 0) ++breach_cells;
      if (r.status != gather::sim::sim_status::gathered) {
        ++u.failed;
        if (u.problems.size() < 4) u.problems.push_back("cell did not gather: " + gather::runner::csv_row(r));
      }
    }
    rounds_ = rounds;
    outputs_["lemma_breach_cells"] = std::to_string(breach_cells);
    outputs_["csv_sha256"] = sha256_hex(campaign_csv(rows));
    outputs_["jsonl_sha256"] = sha256_hex(jsonl);
    outputs_["metrics_sha256"] = sha256_hex(metrics_json);
    outputs_["runs"] = std::to_string(rows.size());
    outputs_["rounds"] = std::to_string(rounds);
    u.digest = outputs_["csv_sha256"] + outputs_["jsonl_sha256"] + outputs_["metrics_sha256"];
    return u;
  }

  unit_outcome run_library() {
    gather::runner::campaign_spec spec;
    spec.grid = grid_;
    spec.exec.jobs = campaign_jobs;
    spec.shard.count = campaign_shards;
    std::string jsonl;
    gather::obs::metrics_registry metrics;
    spec.sinks.trace_jsonl = &jsonl;
    spec.sinks.metrics = &metrics;
    std::vector<gather::runner::run_result> rows;
    const auto t0 = clock_type::now();
    mark_piece();
    for (std::size_t k = 0; k < campaign_shards; ++k) {
      spec.shard.index = k;
      auto result = gather::runner::run_campaign(spec);
      mark_piece();
      rows.insert(rows.end(), std::make_move_iterator(result.rows.begin()),
                  std::make_move_iterator(result.rows.end()));
    }
    const double wall = since(t0);
    unit_outcome u = check_rows(rows, jsonl, metrics.to_json());
    u.wall_s = wall;
    take_pieces(u);
    return u;
  }

  unit_outcome run_replica(layer_facts& facts) {
    const auto t0 = clock_type::now();
    std::vector<gather::runner::run_spec> specs;
    {
      const span sp(site::runner_expand);
      specs = gather::runner::expand(grid_);
    }
    std::vector<cell_slot> slots(specs.size());
    const auto pool_start = clock_type::now();
    {
      gather::util::thread_pool pool(campaign_jobs);
      pool.parallel_for(specs.size(), [&](std::size_t i) {
        cell_slot& slot = slots[i];
        const auto cell_start = clock_type::now();
        const gather::obs::prof_session profiling(&slot.prof);
        set_run_id(specs[i].index);
        {
          const span sp(site::runner_cell);
          slot.result = replica_cell(specs[i], grid_, slot);
        }
        slot.busy_s = since(cell_start);
      });
    }
    const double pool_wall = since(pool_start);

    std::vector<gather::runner::run_result> rows;
    std::string jsonl;
    gather::obs::metrics_registry metrics;
    {
      const span sp(site::runner_fold);
      rows.reserve(slots.size());
      for (const auto& slot : slots) {
        rows.push_back(slot.result);
        jsonl += slot.jsonl;
        metrics.merge(slot.metrics);
      }
    }
    const double wall = since(t0);

    double busy_s = 0.0;
    for (const auto& slot : slots) {
      busy_s += slot.busy_s;
      facts.add_prof(slot.prof);
      facts.sums["sim.trace_bytes"] += static_cast<double>(slot.trace_bytes);
      facts.sums["obs.events"] += static_cast<double>(slot.events);
      for (const auto c : slot.classes) count_class(facts, c);
    }
    // Worker time the 2-job pool spent without a cell to run (its tail).
    facts.sums["runner.idle_frac"] +=
        std::max(0.0, 1.0 - busy_s / (pool_wall * static_cast<double>(campaign_jobs)));
    facts.sums["obs.trace_bytes"] += static_cast<double>(jsonl.size());
    for (const char* name : {"sim.rounds", "sim.activations", "sim.moves_truncated"}) {
      if (const auto* v = metrics.find_counter(name)) facts.sums[name] += static_cast<double>(*v);
    }

    unit_outcome u = check_rows(rows, jsonl, metrics.to_json());
    u.wall_s = wall;
    return u;
  }

  gather::runner::grid grid_;
  std::size_t cells_ = 0;
  std::uint64_t rounds_ = 0;
  std::map<std::string, std::string> outputs_;
};

// ---------------------------------------------------------------------------
// decide_512: cold decision rounds, configuration -> classify -> destinations.

class decide_512 final : public workload {
 public:
  explicit decide_512(const options& o)
      : seed_(o.seed),
        n_(o.size == size_class::full ? 512 : 64),
        instances_(o.size == size_class::full ? 32 : 8) {}

  std::map<std::string, double> setup() override {
    const auto t0 = clock_type::now();
    inputs_.clear();
    for (std::size_t i = 0; i < instances_; ++i) {
      // Every fourth instance is biangular (class QR, the hard Lemma 3.4
      // detection case); the rest are uniform (class A, leader election).
      gather::sim::rng random(gather::runner::derive_seed(seed_, i));
      inputs_.push_back(
          gather::runner::build_workload(i % 4 == 3 ? "biangular" : "uniform", n_, random));
    }
    return {{"workloads.gen_ms", since(t0) * 1e3}};
  }

  unit_outcome run_unit(bool traced, layer_facts& facts) override {
    const gather::core::wait_free_gather algo;
    const traced_algorithm talgo(algo);
    const gather::core::gathering_algorithm& a =
        traced ? static_cast<const gather::core::gathering_algorithm&>(talgo) : algo;
    gather::obs::prof_registry prof;
    const gather::obs::prof_session profiling(traced ? &prof : nullptr);

    unit_outcome u;
    sha256 h;
    std::array<std::uint64_t, 6> classes{};
    const auto t_unit = clock_type::now();
    if (!traced) mark_piece();  // each decision round is a piece
    for (const auto& pts : inputs_) {
      const auto t0 = clock_type::now();
      std::optional<gather::config::configuration> c;
      {
        const span sp(site::config_construct);
        c.emplace(pts);
      }
      gather::config::classification cls;
      {
        const span sp(site::config_classify);
        cls = gather::config::classify(*c);
      }
      const auto dests = a.destinations(*c);
      u.op_ms.push_back(since(t0) * 1e3);

      ++u.attempted;
      ++classes[static_cast<std::size_t>(cls.cls)];
      if (traced) count_class(facts, cls.cls);
      h.update_pod(static_cast<std::uint8_t>(cls.cls));
      hash_points(h, dests);
      // Lemma 5.1 (wait-freeness): outside B at most one location stays.
      std::size_t stationary = 0;
      for (std::size_t k = 0; k < dests.size(); ++k) {
        if (c->tolerance().same_point(dests[k], c->occupied()[k].position)) ++stationary;
      }
      if (dests.size() != c->distinct_count() ||
          (cls.cls != gather::config::config_class::bivalent && stationary > 1)) {
        ++u.failed;
        if (u.problems.size() < 4) u.problems.push_back("decision round breaks wait-freeness");
      }
      if (!traced) mark_piece();
    }
    u.wall_s = since(t_unit);
    if (!traced) take_pieces(u);
    if (traced) facts.add_prof(prof);
    outputs_["decisions_sha256"] = h.hex();
    std::string mix;
    for (std::size_t k = 0; k < classes.size(); ++k) {
      if (classes[k] == 0) continue;
      if (!mix.empty()) mix += ' ';
      mix += std::string(gather::config::to_string(static_cast<gather::config::config_class>(k))) +
             "=" + std::to_string(classes[k]);
    }
    outputs_["classes"] = mix;
    u.digest = outputs_["decisions_sha256"];
    return u;
  }

  std::vector<metric> metrics(const std::vector<unit_outcome>& units) override {
    std::vector<double> walls;
    for (const auto& u : units) walls.push_back(u.wall_s);
    const double wall = median(walls);
    std::vector<double> samples;
    for (const auto& u : units) samples.insert(samples.end(), u.op_ms.begin(), u.op_ms.end());
    const double p90 = percentile(samples, 0.9);
    const auto above = static_cast<std::size_t>(
        std::count_if(samples.begin(), samples.end(), [&](double v) { return v > p90; }));
    return {{"round_ms_p50", percentile(samples, 0.5), "ms", samples.size(), ""},
            {"round_ms_p90", p90, "ms", samples.size(),
             std::to_string(above) + " samples above p90"},
            {"ops_per_s", static_cast<double>(inputs_.size()) / wall, "1/s", units.size(),
             "op = one decision round"}};
  }

  std::map<std::string, std::string> outputs() override { return outputs_; }

 private:
  std::uint64_t seed_;
  std::size_t n_;
  std::size_t instances_;
  std::vector<std::vector<vec2>> inputs_;
  std::map<std::string, std::string> outputs_;
};

// ---------------------------------------------------------------------------
// scale_10k: one ATOM run to gathering and one fixed-step ASYNC run at n=10^4.

class scale_10k final : public workload {
 public:
  explicit scale_10k(const options& o)
      : seed_(o.seed),
        n_(o.size == size_class::full ? 10'000 : 400),
        crashes_(o.size == size_class::full ? 100 : 4),
        async_steps_(o.size == size_class::full ? 5'000 : 400) {}

  std::map<std::string, double> setup() override {
    const auto t0 = clock_type::now();
    gather::sim::rng random(gather::runner::derive_seed(seed_, 0));
    initial_ = gather::runner::build_workload("majority", n_, random);
    return {{"workloads.gen_ms", since(t0) * 1e3}};
  }

  unit_outcome run_unit(bool traced, layer_facts& facts) override {
    const gather::core::wait_free_gather algo;
    const traced_algorithm talgo(algo);
    gather::obs::prof_registry prof;
    const gather::obs::prof_session profiling(traced ? &prof : nullptr);
    unit_outcome u;
    sha256 h;

    // ATOM: fair-random activation, random-stop movement, random crashes.
    auto sched = gather::sim::make_fair_random();
    auto move = gather::sim::make_random_stop();
    auto crash = gather::sim::make_random_crashes(crashes_, crash_horizon);
    traced_scheduler tsched(*sched);
    traced_movement tmove(*move);
    // The crash policy is asked once per round / step: an untraced unit
    // marks a piece at every ATOM round and every few ASYNC steps (a
    // disabled span costs one branch).
    traced_crash tcrash(*crash, false, traced ? 0 : 1);
    gather::obs::metrics_registry metrics;
    gather::sim::sim_spec s;
    s.initial = initial_;
    s.algorithm = traced ? static_cast<const gather::core::gathering_algorithm*>(&talgo) : &algo;
    s.scheduler = traced ? static_cast<gather::sim::activation_scheduler*>(&tsched) : sched.get();
    s.movement = traced ? static_cast<gather::sim::movement_adversary*>(&tmove) : move.get();
    s.crash = &tcrash;
    s.options.seed = gather::runner::derive_seed(seed_, 1);
    s.options.check_wait_freeness = true;
    s.metrics = &metrics;
    s.profile = traced ? &prof : nullptr;
    if (!traced) mark_piece();
    auto t0 = clock_type::now();
    gather::sim::sim_result res;
    {
      const span sp(site::sim_run);
      res = gather::sim::run(s);
    }
    u.parts["atom_s"] = since(t0);
    atom_rounds_ = res.rounds;

    // ASYNC: a fixed number of random-interleaving phase steps.
    auto move2 = gather::sim::make_random_stop();
    auto crash2 = gather::sim::make_random_crashes(crashes_, crash_horizon);
    traced_movement tmove2(*move2);
    traced_crash tcrash2(*crash2, true, traced ? 0 : async_steps_per_piece);
    gather::sim::sim_spec a;
    a.initial = initial_;
    a.algorithm = s.algorithm;
    a.movement = traced ? static_cast<gather::sim::movement_adversary*>(&tmove2) : move2.get();
    a.crash = &tcrash2;
    a.async.seed = gather::runner::derive_seed(seed_, 2);
    a.async.max_steps = async_steps_;
    a.async.policy = gather::sim::async_policy::random_interleaving;
    a.metrics = &metrics;
    a.profile = s.profile;
    std::uint64_t look_ns_before = 0;
    if (traced) look_ns_before = collect().sites[static_cast<std::size_t>(site::core_destination)].total_ns;
    t0 = clock_type::now();
    gather::sim::async_result ares;
    {
      const span sp(site::sim_run_async);
      ares = gather::sim::run_async(a);
    }
    u.parts["async_s"] = since(t0);
    u.wall_s = u.parts["atom_s"] + u.parts["async_s"];
    if (!traced) {
      mark_piece();
      take_pieces(u);
    }

    u.attempted = res.rounds + ares.steps;
    if (res.status != gather::sim::sim_status::gathered) {
      u.failed += res.rounds;
      u.problems.push_back("ATOM run ended " + std::string(gather::sim::to_string(res.status)));
    }
    if (ares.steps != async_steps_ && ares.status != gather::sim::sim_status::gathered) {
      u.failed += ares.steps;
      u.problems.push_back("ASYNC run stopped after " + std::to_string(ares.steps) + " steps");
    }
    h.update_pod(static_cast<std::uint8_t>(res.status));
    h.update_pod(static_cast<std::uint64_t>(res.rounds));
    hash_points(h, res.final_positions);
    h.update_pod(static_cast<std::uint8_t>(ares.status));
    h.update_pod(static_cast<std::uint64_t>(ares.steps));
    hash_points(h, ares.final_positions);
    outputs_["final_sha256"] = h.hex();
    outputs_["atom_rounds"] = std::to_string(res.rounds);
    outputs_["atom_status"] = std::string(gather::sim::to_string(res.status));
    outputs_["async_steps"] = std::to_string(ares.steps);
    outputs_["lemma_breaches"] = std::to_string(res.wait_free_violations + res.bivalent_entries);
    u.digest = outputs_["final_sha256"];

    if (traced) {
      facts.add_prof(prof);
      for (const auto c : res.class_history) count_class(facts, c);
      for (const char* name : {"sim.rounds", "sim.activations", "sim.moves_truncated"}) {
        if (const auto* v = metrics.find_counter(name)) facts.sums[name] += static_cast<double>(*v);
      }
      const auto& st = tcrash2.stamps();
      auto& steps = facts.samples["sim.async_step_us"];
      for (std::size_t i = 1; i < st.size(); ++i) {
        steps.push_back(static_cast<double>(st[i] - st[i - 1]) / 1e3);
      }
      const std::uint64_t look_ns =
          collect().sites[static_cast<std::size_t>(site::core_destination)].total_ns - look_ns_before;
      facts.sums["sim.async_look_ms"] += ms(look_ns);
    }
    return u;
  }

  std::vector<metric> metrics(const std::vector<unit_outcome>& units) override {
    std::vector<double> atom_walls;
    std::vector<double> async_walls;
    std::vector<double> walls;
    for (const auto& u : units) {
      atom_walls.push_back(u.parts.at("atom_s"));
      async_walls.push_back(u.parts.at("async_s"));
      walls.push_back(u.wall_s);
    }
    const double atom = median(atom_walls);
    const double async = median(async_walls);
    // Rounds to gathering vary with the seed (about 21 to 34) while the
    // first few rounds carry almost all of the ATOM time, so rounds/s is
    // reported but the gated rate counts engine steps of the whole unit.
    return {{"rounds_per_s", static_cast<double>(atom_rounds_) / atom, "rounds/s",
             units.size(), "ATOM rounds"},
            {"async_steps_per_s", static_cast<double>(async_steps_) / async, "steps/s",
             units.size(), ""},
            {"ops_per_s", static_cast<double>(atom_rounds_ + async_steps_) / median(walls),
             "1/s", units.size(), "op = one engine step (ATOM round or ASYNC step)"}};
  }

  std::map<std::string, std::string> outputs() override { return outputs_; }

 private:
  static constexpr std::size_t crash_horizon = 40;
  static constexpr std::size_t async_steps_per_piece = 250;
  std::uint64_t seed_;
  std::size_t n_;
  std::size_t crashes_;
  std::size_t async_steps_;
  std::vector<vec2> initial_;
  std::size_t atom_rounds_ = 0;
  std::map<std::string, std::string> outputs_;
};

// ---------------------------------------------------------------------------
// check_4x4: a gather_check-equivalent bounded model-checking sweep.

/// The seed picks an exact similarity of the lattice: a quarter-turn
/// rotation and a power-of-two scale.  Every coordinate stays exactly
/// representable and the checker's canonical keys are similarity-invariant,
/// yet the counts are only scale-invariant: rounding in the derived geometry
/// is not rotation-equivariant, so each rotation has its own recorded
/// expectation (perfbench/expected.json).
int seed_turns(std::uint64_t seed) {
  return static_cast<int>(gather::runner::splitmix64(seed) % 4);
}

std::vector<vec2> transform_seed(const std::vector<vec2>& pts, std::uint64_t seed) {
  const int turns = seed_turns(seed);
  const double scale =
      std::ldexp(1.0, static_cast<int>((gather::runner::splitmix64(seed) >> 8) % 5) - 2);
  std::vector<vec2> out;
  out.reserve(pts.size());
  for (vec2 p : pts) {
    for (int t = 0; t < turns; ++t) p = {-p.y, p.x};
    out.push_back({p.x * scale, p.y * scale});
  }
  return out;
}

class check_4x4 final : public workload {
 public:
  explicit check_4x4(const options& o) : seed_(o.seed), size_(o.size) {}

  std::map<std::string, double> setup() override {
    const auto t0 = clock_type::now();
    const std::size_t side = size_ == size_class::full ? 4 : 3;
    const std::vector<std::size_t> ns =
        size_ == size_class::full ? std::vector<std::size_t>{2, 3, 4} : std::vector<std::size_t>{2, 3};
    spec_ = {};
    for (const std::size_t n : ns) {
      for (const auto& pts : gather::check::lattice_multisets(side, side, n)) {
        spec_.seeds.push_back(transform_seed(pts, seed_));
      }
    }
    // Two rounds: the three-round sweep (1.95 M generated states, about 10 s)
    // left one or two timed units per run.
    spec_.options.max_rounds = 2;
    spec_.options.crash_budget = 1;
    spec_.options.max_crashes_per_round = 1;
    spec_.options.truncation_levels = 2;
    spec_.options.canonical_dedup = true;
    return {{"workloads.gen_ms", since(t0) * 1e3}};
  }

  unit_outcome run_unit(bool traced, layer_facts& facts) override {
    const gather::core::wait_free_gather algo;
    const traced_algorithm talgo(algo);
    // An untraced unit marks a piece every `calls_ / pieces` algorithm calls
    // (the depth-first search makes the same calls in the same order every
    // time); the warm-up unit counts the calls.
    const marking_algorithm marking(algo, calls_ == 0 ? 0 : std::max<std::uint64_t>(1, calls_ / pieces));
    gather::check::check_spec spec = spec_;
    spec.algorithm = traced ? static_cast<const gather::core::gathering_algorithm*>(&talgo) : &marking;
    gather::obs::prof_registry prof;
    const gather::obs::prof_session profiling(traced ? &prof : nullptr);
    const auto t0 = clock_type::now();
    gather::check::check_result r;
    {
      const span sp(site::check_explore);
      r = gather::check::explore(spec);
    }
    unit_outcome u;
    u.wall_s = since(t0);
    if (!traced) {
      mark_piece();
      take_pieces(u);
      calls_ = marking.calls();
    }
    u.attempted = r.states_generated;
    if (r.total_violations() != 0 || r.state_cap_hit) {
      u.failed = r.state_cap_hit ? r.states_generated : r.total_violations();
      u.problems.push_back(std::to_string(r.total_violations()) + " lemma violations" +
                           (r.state_cap_hit ? ", state cap hit" : ""));
    }
    generated_ = r.states_generated;
    outputs_["states_generated"] = std::to_string(r.states_generated);
    outputs_["states_explored"] = std::to_string(r.states_explored);
    outputs_["violations"] = std::to_string(r.total_violations());
    outputs_["rotation"] = std::to_string(seed_turns(seed_));
    u.digest = outputs_["states_generated"] + "/" + outputs_["states_explored"] + "/" +
               std::to_string(r.duplicates_pruned) + "/" + std::to_string(r.raw_unique) + "/" +
               std::to_string(r.transitions_checked) + "/" + outputs_["violations"];
    if (traced) {
      facts.add_prof(prof);
      facts.sums["check.states_generated"] += static_cast<double>(r.states_generated);
      facts.sums["check.states_explored"] += static_cast<double>(r.states_explored);
      facts.sums["check.dedup_frac"] +=
          r.states_generated == 0 ? 0.0
                                  : static_cast<double>(r.states_explored) /
                                        static_cast<double>(r.states_generated);
    }
    return u;
  }

  std::vector<metric> metrics(const std::vector<unit_outcome>& units) override {
    std::vector<double> walls;
    for (const auto& u : units) walls.push_back(u.wall_s);
    const double rate = static_cast<double>(generated_) / median(walls);
    return {{"states_per_s", rate, "states/s", units.size(), "generated states"},
            {"ops_per_s", rate, "1/s", units.size(), "op = one generated state"}};
  }

  std::map<std::string, std::string> outputs() override { return outputs_; }

 private:
  static constexpr std::size_t pieces = 24;
  std::uint64_t calls_ = 0;
  std::uint64_t seed_;
  size_class size_;
  gather::check::check_spec spec_;
  std::uint64_t generated_ = 0;
  std::map<std::string, std::string> outputs_;
};

}  // namespace

void layer_facts::add_prof(const gather::obs::prof_registry& reg) {
  for (const auto& [name, st] : reg.sites()) {
    auto& dst = prof[name];
    dst.calls += st.calls;
    dst.total_ns += st.total_ns;
  }
}

std::unique_ptr<workload> make_workload(const options& o) {
  if (o.workload == "campaign_small") return std::make_unique<campaign_small>(o);
  if (o.workload == "decide_512") return std::make_unique<decide_512>(o);
  if (o.workload == "scale_10k") return std::make_unique<scale_10k>(o);
  if (o.workload == "check_4x4") return std::make_unique<check_4x4>(o);
  throw std::invalid_argument("unknown workload '" + o.workload + "'");
}

std::vector<std::string> self_test() {
  std::vector<std::string> failures;
  if (sha256_hex("abc") != "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad") {
    failures.push_back("sha256 test vector");
  }
  const bool was_enabled = enabled();
  enable(true);

  // Campaign cells: the decorated replica against execute_cell.
  const auto grid = campaign_grid(7, size_class::tiny);
  for (const auto& spec : gather::runner::expand(grid)) {
    cell_slot slot;
    const auto replica = replica_cell(spec, grid, slot);
    std::string jsonl;
    gather::obs::jsonl_string_sink sink(&jsonl);
    gather::obs::metrics_registry metrics;
    gather::runner::cell_observer watch;
    watch.sink = &sink;
    watch.metrics = &metrics;
    const auto lib = gather::runner::execute_cell(spec, grid, watch);
    if (gather::runner::csv_row(replica) != gather::runner::csv_row(lib) ||
        replica.first_multiplicity_round != lib.first_multiplicity_round ||
        jsonl != slot.jsonl || metrics.to_json() != slot.metrics.to_json()) {
      failures.push_back("replica differs from execute_cell on cell " + std::to_string(spec.index));
    }
  }

  // sim::run / run_async with every piece decorated.
  options o;
  o.seed = 3;
  o.size = size_class::tiny;
  layer_facts facts;
  for (const char* name : {"scale_10k", "decide_512", "check_4x4"}) {
    o.workload = name;
    auto w = make_workload(o);
    (void)w->setup();
    const unit_outcome plain = w->run_unit(false, facts);
    const unit_outcome traced = w->run_unit(true, facts);
    if (plain.digest != traced.digest) {
      failures.push_back(std::string(name) + ": decorated run differs from plain run");
    }
  }

  // The check sweep's counts must not depend on the lattice scale.
  o.workload = "check_4x4";
  std::map<std::string, std::string> by_rotation;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    o.seed = seed;
    auto w = make_workload(o);
    (void)w->setup();
    (void)w->run_unit(false, facts);
    auto out = w->outputs();
    std::string& first = by_rotation[out["rotation"]];
    const std::string d = out["states_generated"] + "/" + out["states_explored"];
    if (first.empty()) first = d;
    if (d != first) failures.push_back("check counts depend on the lattice scale");
  }

  enable(was_enabled);
  reset();
  return failures;
}

}  // namespace perfbench
