// perfbench_harness: runs one benchmark workload and prints a JSON report.
//
//   perfbench_harness --workload campaign_small --seed 1 --seconds 25 --trace 0
//   perfbench_harness --self-test
//
// The report (one JSON object on stdout) holds the environment, the
// end-to-end metrics with units and sample counts, the outputs that the
// correctness gate compares, and -- with --trace 1 -- the per-layer metrics
// and the self-time table.  perfbench/run.py builds this program, runs it in
// a fresh process per workload and renders the report.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "bench.h"
#include "config/parallel.h"
#include "geometry/kernels.h"
#include "obs/json.h"
#include "trace.h"

namespace perfbench {

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  if (q == 0.5 && v.size() % 2 == 0) return (v[v.size() / 2 - 1] + v[v.size() / 2]) / 2.0;
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

namespace {

struct piece_mark {
  std::int64_t start_ns;  ///< the calibration kernel's start
  std::int64_t end_ns;    ///< its end, where the next piece starts
};
std::vector<piece_mark> g_marks;
std::uint64_t g_kernel_sink = 0;

/// The calibration kernel: 10^4 inserts into a fresh hash set (about 0.5 ms,
/// allocation and cache bound like the libraries' own hot loops).
void calibration_kernel() {
  std::unordered_set<std::uint64_t> set;
  std::uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < 10000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    set.insert(x % 10007);
  }
  g_kernel_sink += set.size();
}

}  // namespace

void mark_piece() {
  const std::int64_t t0 = now_ns();
  calibration_kernel();
  g_marks.push_back({t0, now_ns()});
}

void take_pieces(unit_outcome& u) {
  const std::vector<piece_mark> m = std::exchange(g_marks, {});
  u.piece_s.clear();
  u.piece_cal.clear();
  for (std::size_t i = 0; i + 1 < m.size(); ++i) {
    const double piece = static_cast<double>(m[i + 1].start_ns - m[i].end_ns);
    const double kernel = static_cast<double>((m[i].end_ns - m[i].start_ns) +
                                              (m[i + 1].end_ns - m[i + 1].start_ns)) / 2.0;
    u.piece_s.push_back(piece / 1e9);
    u.piece_cal.push_back(piece / kernel);
  }
}

double calibrated_wall(const std::vector<unit_outcome>& units) {
  double sum = 0.0;
  for (std::size_t k = 0; k < units.front().piece_cal.size(); ++k) {
    std::vector<double> values;
    for (const auto& u : units) {
      if (u.piece_cal.size() != units.front().piece_cal.size()) {
        throw std::logic_error("units differ in their pieces");
      }
      values.push_back(u.piece_cal[k]);
    }
    sum += median(std::move(values));
  }
  return sum;
}

namespace {

using clock_type = std::chrono::steady_clock;
using gather::obs::json_append_double;
using gather::obs::json_append_string;
using gather::obs::json_append_uint;

/// How often set-up repeats in one burst: at least `min_repeats` times and
/// until `budget_s` has passed, at most `max_repeats` times.
struct set_up_burst {
  double budget_s;
  std::size_t min_repeats;
  std::size_t max_repeats;
};
// One long burst before the timed units and a short one after each of them,
// so the set-up samples spread over the whole run; their least is setup_s.
constexpr set_up_burst first_set_up{0.25, 9, 500};
constexpr set_up_burst later_set_up{0.01, 3, 100};

/// Per-layer metrics in report order.  A workload that does not reach a
/// metric's layer leaves it out of its report.
struct layer_metric {
  const char* name;
  const char* unit;
};
constexpr layer_metric layer_metrics[] = {
    {"workloads.gen_ms", "ms"},
    {"runner.expand_ms", "ms"},
    {"runner.cell_ms_p50", "ms"},
    {"runner.cell_ms_p90", "ms"},
    {"runner.idle_frac", "ratio"},
    {"runner.potentials_ms", "ms"},
    {"sim.engine_self_ms", "ms"},
    {"sim.scheduler_ms", "ms"},
    {"sim.movement_ms", "ms"},
    {"sim.crash_ms", "ms"},
    {"sim.trace_bytes", "bytes"},
    {"sim.async_step_us_p50", "us"},
    {"sim.async_look_ms", "ms"},
    {"sim.rounds", "count"},
    {"sim.activations", "count"},
    {"sim.moves_truncated", "count"},
    {"core.destinations_ms", "ms"},
    {"core.destinations_calls", "count"},
    {"config.construct_ms", "ms"},
    {"config.classify_ms", "ms"},
    {"config.classify.calls", "count"},
    {"config.views_ms", "ms"},
    {"config.views.calls", "count"},
    {"config.view_classes_ms", "ms"},
    {"config.view_classes.calls", "count"},
    {"config.symmetry_ms", "ms"},
    {"config.symmetry.calls", "count"},
    {"config.weber_ms", "ms"},
    {"config.weber.calls", "count"},
    {"geom.sec_ms", "ms"},
    {"geom.sec.calls", "count"},
    {"config.rounds_by_class.A", "count"},
    {"config.rounds_by_class.M", "count"},
    {"config.rounds_by_class.QR", "count"},
    {"config.rounds_by_class.L1W", "count"},
    {"config.rounds_by_class.L2W", "count"},
    {"config.rounds_by_class.B", "count"},
    {"check.states_generated", "count"},
    {"check.states_explored", "count"},
    {"check.dedup_frac", "ratio"},
    {"check.self_ms", "ms"},
    {"obs.events", "count"},
    {"obs.trace_bytes", "bytes"},
    {"obs.sink_ms", "ms"},
    {"layer.workloads.self_ms", "ms"},
    {"layer.runner.self_ms", "ms"},
    {"layer.sim.self_ms", "ms"},
    {"layer.core.self_ms", "ms"},
    {"layer.config.self_ms", "ms"},
    {"layer.geometry.self_ms", "ms"},
    {"layer.check.self_ms", "ms"},
    {"layer.obs.self_ms", "ms"},
    {"layer.top_self_frac", "ratio"},
    {"trace.wall_s", "s"},
    {"trace.untraced_wall_s", "s"},
    {"trace.overhead_s", "s"},
    {"trace.spans", "count"},
};

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

struct layer_report {
  std::map<std::string, double> values;
  std::map<std::string, std::size_t> samples;
  std::string top_layer;
};

layer_report per_layer(const trace_totals& t, const layer_facts& facts,
                       const std::map<std::string, double>& set_up, std::size_t units,
                       double traced_wall, double untraced_wall) {
  layer_report r;
  const double k = static_cast<double>(units);
  auto& v = r.values;
  auto site_ms = [&](site s) { return ms(t.sites[static_cast<std::size_t>(s)].total_ns) / k; };
  auto site_calls = [&](site s) {
    return static_cast<double>(t.sites[static_cast<std::size_t>(s)].calls) / k;
  };
  auto site_self_ms = [&](site s) { return ms(t.sites[static_cast<std::size_t>(s)].self_ns) / k; };

  for (const auto& [name, value] : set_up) v[name] = value;
  if (site_calls(site::runner_expand) > 0) v["runner.expand_ms"] = site_ms(site::runner_expand);
  if (!t.cell_ns.empty()) {
    std::vector<double> cells;
    for (const auto ns : t.cell_ns) cells.push_back(ms(ns));
    v["runner.cell_ms_p50"] = percentile(cells, 0.5);
    v["runner.cell_ms_p90"] = percentile(cells, 0.9);
    r.samples["runner.cell_ms_p50"] = cells.size();
    r.samples["runner.cell_ms_p90"] = cells.size();
  }
  if (site_calls(site::sim_potentials) > 0) v["runner.potentials_ms"] = site_ms(site::sim_potentials);
  if (site_calls(site::sim_run) + site_calls(site::sim_run_async) > 0) {
    v["sim.engine_self_ms"] = site_self_ms(site::sim_run) + site_self_ms(site::sim_run_async);
    v["sim.scheduler_ms"] = site_ms(site::sim_scheduler);
    v["sim.movement_ms"] = site_ms(site::sim_movement);
    v["sim.crash_ms"] = site_ms(site::sim_crash);
  }
  v["core.destinations_ms"] = site_ms(site::core_destination) + site_ms(site::core_destinations);
  v["core.destinations_calls"] = site_calls(site::core_destination) + site_calls(site::core_destinations);
  if (site_calls(site::config_construct) > 0) v["config.construct_ms"] = site_ms(site::config_construct);
  if (site_calls(site::check_explore) > 0) v["check.self_ms"] = site_self_ms(site::check_explore);
  if (site_calls(site::obs_sink) > 0) v["obs.sink_ms"] = site_ms(site::obs_sink);

  for (const char* p : {"config.classify", "config.views", "config.view_classes", "config.symmetry",
                        "config.weber", "geom.sec"}) {
    const auto it = facts.prof.find(p);
    if (it == facts.prof.end()) continue;
    v[std::string(p) + "_ms"] = ms(it->second.total_ns) / k;
    v[std::string(p) + ".calls"] = static_cast<double>(it->second.calls) / k;
  }
  for (const auto& [name, sum] : facts.sums) v[name] = sum / k;
  for (const auto& [name, values] : facts.samples) {
    v[name + "_p50"] = percentile(values, 0.5);
    r.samples[name + "_p50"] = values.size();
  }

  double total = 0.0;
  double best = -1.0;
  for (std::size_t l = 0; l < layer_count; ++l) {
    const double self = ms(t.layer_self_ns[l]) / k;
    v[std::string("layer.") + layer_name(static_cast<layer>(l)) + ".self_ms"] = self;
    total += self;
    if (self > best) {
      best = self;
      r.top_layer = layer_name(static_cast<layer>(l));
    }
  }
  v["layer.top_self_frac"] = total > 0.0 ? best / total : 0.0;
  v["trace.wall_s"] = traced_wall;
  v["trace.untraced_wall_s"] = untraced_wall;
  v["trace.overhead_s"] = traced_wall - untraced_wall;
  v["trace.spans"] = static_cast<double>(t.spans) / k;
  return r;
}

void append_metric(std::string& out, const metric& m) {
  out += "{\"name\":";
  json_append_string(out, m.name);
  out += ",\"value\":";
  json_append_double(out, m.value);
  out += ",\"unit\":";
  json_append_string(out, m.unit);
  out += ",\"samples\":";
  json_append_uint(out, m.samples);
  out += ",\"note\":";
  json_append_string(out, m.note);
  out += '}';
}

int run(const options& o) {
  if (std::getenv("GATHER_GEOM_JOBS") != nullptr) {
    // Sharded view fills drop their config.views profile counts.
    std::fprintf(stderr, "perfbench_harness: unset GATHER_GEOM_JOBS\n");
    return 2;
  }
  auto w = make_workload(o);

  // The inputs are generated once, a warm-up unit runs untimed (the first
  // unit of a process runs on a cold heap and caches, and on a CPU that may
  // still be ramping up: check_4x4 ran about 25% slower in it), then the
  // timed set-up repeats the generation.
  layer_facts facts;
  std::vector<unit_outcome> plain;
  std::vector<unit_outcome> traced;
  std::vector<std::string> problems;
  const auto start = clock_type::now();
  (void)w->setup();
  const unit_outcome warm_up = w->run_unit(false, facts);

  std::vector<double> set_up_s;
  std::map<std::string, std::vector<double>> phases;
  auto repeat_set_up = [&](const set_up_burst& b) {
    const auto burst_start = clock_type::now();
    for (std::size_t i = 0;
         i < b.min_repeats ||
         (i < b.max_repeats &&
          std::chrono::duration<double>(clock_type::now() - burst_start).count() < b.budget_s);
         ++i) {
      const auto t0 = clock_type::now();
      for (const auto& [name, value] : w->setup()) phases[name].push_back(value);
      set_up_s.push_back(std::chrono::duration<double>(clock_type::now() - t0).count());
    }
  };
  repeat_set_up(first_set_up);

  // Timed loop: the fixed unit repeats while another one fits in --seconds.
  // A traced run times one untraced unit first (the overhead reference).
  auto elapsed = [&] { return std::chrono::duration<double>(clock_type::now() - start).count(); };
  // Start another unit while at least half of a typical one fits.
  auto another_fits = [&](const std::vector<unit_outcome>& done) {
    std::vector<double> walls;
    for (const auto& u : done) walls.push_back(u.wall_s);
    return done.empty() || elapsed() + 0.5 * median(walls) < o.seconds;
  };
  auto run_timed = [&](std::vector<unit_outcome>& done, bool traced_unit) {
    done.push_back(w->run_unit(traced_unit, facts));
    repeat_set_up(later_set_up);
  };
  if (o.trace) {
    run_timed(plain, false);
    enable(true);
    reset();
    while (another_fits(traced)) run_timed(traced, true);
    enable(false);
  } else {
    while (another_fits(plain)) run_timed(plain, false);
  }
  const double measured_s = elapsed();
  std::map<std::string, double> set_up_phases;
  for (const auto& [name, values] : phases) {
    set_up_phases[name] = *std::min_element(values.begin(), values.end());
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const std::string& reference = warm_up.digest;
  std::vector<unit_outcome> warm_up_list{warm_up};
  for (const auto* list : {&warm_up_list, &plain, &traced}) {
    for (const auto& u : *list) {
      attempted += u.attempted;
      failed += u.failed;
      for (const auto& p : u.problems) {
        if (problems.size() < 8) problems.push_back(p);
      }
      if (u.digest != reference) {
        failed += u.attempted - u.failed;
        problems.push_back(list == &traced ? "traced unit output differs from the untraced one"
                                           : "unit output differs between repetitions");
      }
    }
  }

  std::vector<metric> metrics;
  std::vector<double> walls;
  for (const auto& u : plain) walls.push_back(u.wall_s);
  metrics.push_back({"setup_s", *std::min_element(set_up_s.begin(), set_up_s.end()), "s",
                     set_up_s.size(), "fastest set-up"});
  metrics.push_back({"wall_over_cal", calibrated_wall(plain), "ratio", walls.size(),
                     "one unit over the calibration kernel, " +
                         std::to_string(plain.front().piece_cal.size()) + " pieces"});
  metrics.push_back({"wall_s", median(walls), "s", walls.size(), "one unit of the fixed work"});
  for (auto& m : w->metrics(plain)) metrics.push_back(std::move(m));
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  metrics.push_back({"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MiB", 1,
                     "whole process"});

  std::string out = "{\"workload\":";
  json_append_string(out, o.workload);
  out += ",\"seed\":";
  json_append_uint(out, o.seed);
  out += ",\"size\":";
  json_append_string(out, o.size == size_class::full ? "full" : "tiny");
  out += ",\"trace\":";
  out += o.trace ? "1" : "0";
  out += ",\"env\":{\"simd\":";
  json_append_string(out, gather::geom::kernels::active_path());
  out += ",\"nproc\":";
  json_append_uint(out, std::thread::hardware_concurrency());
  out += ",\"jobs\":";
  json_append_uint(out, w->jobs());
  out += ",\"geom_jobs\":";
  json_append_uint(out, gather::config::geometry_jobs());
  out += "},\"measured_s\":";
  json_append_double(out, measured_s);
  out += ",\"units\":";
  json_append_uint(out, 1 + plain.size() + traced.size());
  out += ",\"unit_walls\":[";
  for (std::size_t i = 0; i < plain.size(); ++i) {
    if (i > 0) out += ',';
    json_append_double(out, plain[i].wall_s);
  }
  out += ']';
  out += ",\"attempted\":";
  json_append_uint(out, attempted);
  out += ",\"failed\":";
  json_append_uint(out, std::min(failed, attempted));
  out += ",\"problems\":[";
  for (std::size_t i = 0; i < problems.size(); ++i) {
    if (i > 0) out += ',';
    json_append_string(out, problems[i]);
  }
  out += "],\"outputs\":{";
  bool first = true;
  for (const auto& [name, value] : w->outputs()) {
    if (!first) out += ',';
    first = false;
    json_append_string(out, name);
    out += ':';
    json_append_string(out, value);
  }
  out += "},\"metrics\":[";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ',';
    append_metric(out, metrics[i]);
  }
  out += ']';
  if (o.trace) {
    std::vector<double> traced_walls;
    for (const auto& u : traced) traced_walls.push_back(u.wall_s);
    const trace_totals totals = collect();
    const layer_report lr = per_layer(totals, facts, set_up_phases, traced.size(),
                                      median(traced_walls), plain.front().wall_s);
    out += ",\"top_layer\":";
    json_append_string(out, lr.top_layer);
    out += ",\"layers\":[";
    bool first_layer = true;
    for (const auto& lm : layer_metrics) {
      const auto it = lr.values.find(lm.name);
      if (it == lr.values.end()) continue;
      if (!first_layer) out += ',';
      first_layer = false;
      const auto s = lr.samples.find(lm.name);
      append_metric(out, {lm.name, it->second, lm.unit,
                          s == lr.samples.end() ? traced.size() : s->second, ""});
    }
    out += ']';
    if (!o.spans_out.empty()) write_spans(o.spans_out);
  }
  out += "}\n";
  std::fputs(out.c_str(), stdout);
  return 0;
}

int usage() {
  std::fputs(
      "usage: perfbench_harness --workload W --seed N --seconds S --trace 0|1\n"
      "                        [--size full|tiny] [--spans-out FILE]\n"
      "       perfbench_harness --self-test\n",
      stderr);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  options o;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--self-test") {
        const auto failures = self_test();
        for (const auto& f : failures) std::fprintf(stderr, "self-test: %s\n", f.c_str());
        std::printf("self-test: %s\n", failures.empty() ? "ok" : "FAILED");
        return failures.empty() ? 0 : 1;
      }
      if (i + 1 >= argc) return usage();
      const std::string v = argv[++i];
      if (a == "--workload") {
        o.workload = v;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") return usage();
        o.trace = v == "1";
      } else if (a == "--size") {
        if (v != "full" && v != "tiny") return usage();
        o.size = v == "full" ? size_class::full : size_class::tiny;
      } else if (a == "--spans-out") {
        o.spans_out = v;
      } else {
        return usage();
      }
    }
    if (o.workload.empty()) return usage();
    return run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 2;
  }
}
