// Shared types of the benchmark harness: options, the per-unit outcome, the
// metric list a workload reports and the workload interface.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/profile.h"

namespace perfbench {

/// Sizes: `full` is the benchmark; `tiny` is the smoke-test size.
enum class size_class { full, tiny };

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  size_class size = size_class::full;
  std::string spans_out;  ///< traced run: span CSV path (empty = none)
};

/// One repetition of a workload's fixed work.
struct unit_outcome {
  double wall_s = 0.0;
  std::uint64_t attempted = 0;  ///< checked operations (runs, rounds, steps, states)
  std::uint64_t failed = 0;     ///< operations that failed their check
  std::string digest;           ///< output digest; must repeat on every unit
  std::vector<std::string> problems;
  std::vector<double> op_ms;            ///< per-operation latencies, when timed
  std::map<std::string, double> parts;  ///< seconds spent in named parts of the unit
  /// The unit cut into pieces at mark_piece() calls (untraced units only; a
  /// piece excludes the calibration kernel): each piece's seconds, and its
  /// seconds divided by the mean time of the kernel runs on either side.
  std::vector<double> piece_s;
  std::vector<double> piece_cal;
};

/// Host-contention calibration.  On a shared host, neighbours slow this
/// core's memory operations by up to 80% for seconds at a time, while a
/// fixed memory-bound kernel run next to the code slows alike; a piece's
/// time divided by the kernel's time around it is therefore far steadier
/// than the piece's time.  mark_piece() runs the kernel and marks a piece
/// boundary; an untraced unit calls it at its start, at fixed points of its
/// work (the same on every repetition) and at its end, then take_pieces().
void mark_piece();
/// Moves the pieces marked since the last call into `u`.
void take_pieces(unit_outcome& u);
/// The end-to-end wall_over_cal: the sum over pieces of each piece's median
/// piece_cal over `units`.
[[nodiscard]] double calibrated_wall(const std::vector<unit_outcome>& units);

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::string note;
};

/// Extra per-layer facts a workload gathers during its traced units.
struct layer_facts {
  /// Summed over traced units; the harness divides by the unit count.
  std::map<std::string, double> sums;
  /// Pooled samples for percentile metrics (name -> values).
  std::map<std::string, std::vector<double>> samples;
  /// Summed prof.* sites of every traced unit.
  std::map<std::string, gather::obs::prof_site_stats> prof;

  void add_prof(const gather::obs::prof_registry& reg);
};

class workload {
 public:
  virtual ~workload() = default;
  /// Generate the inputs (repeated and timed as set-up).  Returns the time
  /// of each set-up phase in milliseconds (e.g. "workloads.gen_ms").
  virtual std::map<std::string, double> setup() = 0;
  /// Run the fixed work once.  `traced` runs the decorated replica.
  virtual unit_outcome run_unit(bool traced, layer_facts& facts) = 0;
  /// End-to-end metrics beyond setup_s, wall_over_cal and wall_s, from all
  /// untraced units.
  virtual std::vector<metric> metrics(const std::vector<unit_outcome>& units) = 0;
  /// Outputs checked against the recorded expectations (name -> value).
  virtual std::map<std::string, std::string> outputs() = 0;
  /// Worker threads the workload's timed calls use.
  virtual std::size_t jobs() const { return 1; }
};

[[nodiscard]] std::unique_ptr<workload> make_workload(const options& o);

/// Self-test: decorated runs reproduce undecorated ones bit for bit, and
/// the digest matches a known SHA-256 vector.  Returns failures.
[[nodiscard]] std::vector<std::string> self_test();

[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile (q in [0, 1]) of `v`.
[[nodiscard]] double percentile(std::vector<double> v, double q);

}  // namespace perfbench
