// Layer-boundary spans for the traced benchmark run.
//
// A span is opened by the benchmark's own code around a call into one of the
// repository's modules (the layers below).  Spans nest per thread; on close a
// span's self time is its duration minus its child spans and minus the
// config/geometry profile time (obs/profile.h sites `config.classify` and
// `geom.sec`) recorded inside it but outside its children.  That profile
// time is charged to the config and geometry layers, so the self-time table
// covers the library's own classify and SEC work even though those calls
// happen inside the engines, where the benchmark cannot wrap them.
//
// Only those two sites are subtracted because they never nest in one
// another; the remaining prof.* sites (views, view classes, symmetry, Weber)
// nest inside each other and inside classify, so they are reported as
// inclusive per-site totals and stay in their caller's self time.
//
// Tracing is off unless enable(true) is called before any worker thread
// starts; a disabled span costs one branch.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class layer : std::uint8_t {
  workloads,
  runner,
  sim,
  core,
  config,
  geometry,
  check,
  obs,
  count
};

enum class site : std::uint8_t {
  workloads_gen,      ///< benchmark set-up: input generation
  workloads_build,    ///< runner::build_workload inside a campaign cell
  runner_expand,      ///< runner::expand
  runner_cell,        ///< one execute_cell-equivalent campaign cell
  runner_fold,        ///< merging cell outputs in index order
  sim_run,            ///< sim::run
  sim_run_async,      ///< sim::run_async
  sim_potentials,     ///< sim::check_potentials
  sim_scheduler,      ///< activation_scheduler::select
  sim_movement,       ///< movement_adversary::stop_point / travelled
  sim_crash,          ///< crash_policy::crashes
  core_destination,   ///< gathering_algorithm::destination
  core_destinations,  ///< gathering_algorithm::destinations
  config_construct,   ///< config::configuration(pts)
  config_classify,    ///< config::classify
  check_explore,      ///< check::explore
  obs_sink,           ///< event_sink::on_event
  count
};

inline constexpr std::size_t layer_count = static_cast<std::size_t>(layer::count);
inline constexpr std::size_t site_count = static_cast<std::size_t>(site::count);

[[nodiscard]] const char* layer_name(layer l);
[[nodiscard]] const char* site_name(site s);
[[nodiscard]] layer site_layer(site s);

struct site_stats {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

/// Everything the spans of all threads added up to since the last reset.
struct trace_totals {
  std::array<site_stats, site_count> sites{};
  std::array<std::uint64_t, layer_count> layer_self_ns{};
  std::uint64_t spans = 0;
  /// Durations of every runner_cell span, in nanoseconds.
  std::vector<std::uint64_t> cell_ns;
};

/// Turn span recording on or off.  Call only while no other thread runs
/// benchmark code.
void enable(bool on);
[[nodiscard]] bool enabled();

/// Run/cell id stamped on spans opened by this thread from now on.
void set_run_id(std::uint64_t id);

/// Nanoseconds on the steady clock since the process started tracing.
[[nodiscard]] std::int64_t now_ns();

/// Sum of every thread's statistics.  Call only after worker threads joined.
[[nodiscard]] trace_totals collect();

/// Drop all statistics and stored spans (threads keep their buffers).
void reset();

/// Write the stored spans (capped per thread) as CSV.
void write_spans(const std::string& path);

class span {
 public:
  explicit span(site s);
  ~span();
  span(const span&) = delete;
  span& operator=(const span&) = delete;

 private:
  bool on_;
};

}  // namespace perfbench
