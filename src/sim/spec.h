// sim_spec: the single aggregate describing one simulation run, and the
// run()/run_async() free functions that execute it.
//
// The two functions are the engines: run() steps the ATOM model and
// run_async() the ASYNC one, both through the round mechanics of
// sim/round.h.  Every caller -- the campaign runner's cells, the CLI tools,
// the benches -- fills in a sim_spec and calls one of them.  The aggregate
// owns no polymorphic pieces: the algorithm and the adversaries are
// non-owning pointers, so one scheduler/movement/crash instance can be
// reused across specs.
//
//   sim::sim_spec spec;
//   spec.initial = pts;
//   spec.algorithm = &algo;
//   spec.scheduler = sched.get();
//   spec.movement = move.get();
//   spec.crash = crash.get();
//   spec.options.seed = 7;
//   spec.sink = &jsonl;            // optional: structured event stream
//   spec.metrics = &registry;      // optional: merged per-run counters
//   const sim::sim_result res = sim::run(spec);
#pragma once

#include <cstdint>
#include <vector>

#include "obs/events.h"
#include "obs/metrics_registry.h"
#include "obs/profile.h"
#include "sim/adversary_ext.h"
#include "sim/async_engine.h"
#include "sim/crash.h"
#include "sim/engine.h"
#include "sim/movement.h"
#include "sim/scheduler.h"

namespace gather::sim {

struct sim_spec {
  /// Initial robot positions (n >= 2 for a meaningful run).
  std::vector<geom::vec2> initial;
  /// Required: the gathering algorithm under test.
  const core::gathering_algorithm* algorithm = nullptr;
  /// Required by run(); unused by run_async() (the ASYNC adversary schedules
  /// per-robot phase events itself).
  activation_scheduler* scheduler = nullptr;
  /// Required: the movement adversary.
  movement_adversary* movement = nullptr;
  /// Required: the crash policy (sim::make_no_crash() for fault-free runs).
  crash_policy* crash = nullptr;
  /// ATOM engine knobs (seed, delta, round budget, online checks).
  sim_options options;
  /// ASYNC engine knobs; read only by run_async() (including its own seed
  /// and delta_fraction -- the two engines' option sets stay independent).
  async_options async;
  /// Optional transient-fault injector (ATOM only; see sim/adversary_ext.h).
  perturbation_policy* perturbation = nullptr;
  /// Optional byzantine control (ATOM only; see sim/adversary_ext.h).
  byzantine_policy* byzantine = nullptr;
  /// Optional structured event stream (nullptr = near-zero overhead).
  obs::event_sink* sink = nullptr;
  /// Optional external registry; the run's counters/histograms merge into it.
  obs::metrics_registry* metrics = nullptr;
  /// Optional: enable GATHER_PROF hot-path timers for the duration of the
  /// run, recording into this registry (current thread only).
  obs::prof_registry* profile = nullptr;
  /// Stamped on every emitted event (campaigns use the cell index).
  std::uint64_t run_id = 0;
};

/// Execute `spec` on the ATOM engine.  Throws std::invalid_argument when a
/// required piece (algorithm, scheduler, movement, crash, >= 1 robot) is
/// missing.
[[nodiscard]] sim_result run(const sim_spec& spec);

/// Execute `spec` on the ASYNC engine (spec.async supplies the knobs).
/// Throws std::invalid_argument when algorithm, movement or crash is
/// missing.
[[nodiscard]] async_result run_async(const sim_spec& spec);

}  // namespace gather::sim
