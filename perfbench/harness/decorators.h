// Span-recording and piece-marking decorators for the polymorphic pieces a
// sim_spec or check_spec takes by pointer.  Each forwards every virtual call
// unchanged to the wrapped object (same arguments, same rng stream), so a
// decorated run is bit-identical to an undecorated one; the self-test checks
// that.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.h"
#include "core/algorithm.h"
#include "obs/events.h"
#include "sim/crash.h"
#include "sim/movement.h"
#include "sim/scheduler.h"
#include "trace.h"

namespace perfbench {

class traced_algorithm final : public gather::core::gathering_algorithm {
 public:
  explicit traced_algorithm(const gather::core::gathering_algorithm& inner) : inner_(inner) {}

  [[nodiscard]] gather::geom::vec2 destination(const gather::core::snapshot& s) const override {
    const span sp(site::core_destination);
    return inner_.destination(s);
  }
  [[nodiscard]] std::vector<gather::geom::vec2> destinations(
      const gather::config::configuration& c) const override {
    const span sp(site::core_destinations);
    return inner_.destinations(c);
  }
  [[nodiscard]] std::string_view name() const override { return inner_.name(); }

 private:
  const gather::core::gathering_algorithm& inner_;
};

/// Forwards every call and marks a piece boundary (mark_piece) before every
/// `mark_every`-th one (never when 0).  A deterministic run makes the same
/// calls in the same order every time, so the marks cut each repetition into
/// the same pieces of work.  For one thread only.
class marking_algorithm final : public gather::core::gathering_algorithm {
 public:
  marking_algorithm(const gather::core::gathering_algorithm& inner, std::uint64_t mark_every)
      : inner_(inner), mark_every_(mark_every) {}

  [[nodiscard]] gather::geom::vec2 destination(const gather::core::snapshot& s) const override {
    count_call();
    return inner_.destination(s);
  }
  [[nodiscard]] std::vector<gather::geom::vec2> destinations(
      const gather::config::configuration& c) const override {
    count_call();
    return inner_.destinations(c);
  }
  [[nodiscard]] std::string_view name() const override { return inner_.name(); }

  [[nodiscard]] std::uint64_t calls() const { return calls_; }

 private:
  void count_call() const {
    if (mark_every_ != 0 && calls_ % mark_every_ == 0) mark_piece();
    ++calls_;
  }

  const gather::core::gathering_algorithm& inner_;
  std::uint64_t mark_every_;
  mutable std::uint64_t calls_ = 0;
};

class traced_scheduler final : public gather::sim::activation_scheduler {
 public:
  explicit traced_scheduler(gather::sim::activation_scheduler& inner) : inner_(inner) {}

  [[nodiscard]] std::vector<std::size_t> select(const gather::sim::schedule_context& ctx,
                                                gather::sim::rng& random) override {
    const span sp(site::sim_scheduler);
    return inner_.select(ctx, random);
  }
  [[nodiscard]] std::string_view name() const override { return inner_.name(); }

 private:
  gather::sim::activation_scheduler& inner_;
};

class traced_movement final : public gather::sim::movement_adversary {
 public:
  explicit traced_movement(gather::sim::movement_adversary& inner) : inner_(inner) {}

  [[nodiscard]] double travelled(double want, double delta, gather::sim::rng& random) override {
    const span sp(site::sim_movement);
    return inner_.travelled(want, delta, random);
  }
  [[nodiscard]] gather::geom::vec2 stop_point(gather::geom::vec2 from, gather::geom::vec2 dest,
                                              double delta, gather::sim::rng& random) override {
    const span sp(site::sim_movement);
    return inner_.stop_point(from, dest, delta, random);
  }
  [[nodiscard]] std::string_view name() const override { return inner_.name(); }

 private:
  gather::sim::movement_adversary& inner_;
};

/// The engines ask the crash policy exactly once per round (ATOM) or step
/// (ASYNC), so with `stamp_calls` set the call times delimit steps
/// (sim.async_step_us_p50), and with `mark_every` > 0 a piece boundary is
/// marked before every `mark_every`-th call.
class traced_crash final : public gather::sim::crash_policy {
 public:
  traced_crash(gather::sim::crash_policy& inner, bool stamp_calls, std::uint64_t mark_every = 0)
      : inner_(inner), stamp_calls_(stamp_calls), mark_every_(mark_every) {}

  [[nodiscard]] std::vector<std::size_t> crashes(const gather::sim::crash_context& ctx,
                                                 gather::sim::rng& random) override {
    if (mark_every_ != 0 && calls_++ % mark_every_ == 0) mark_piece();
    if (stamp_calls_) stamps_.push_back(now_ns());
    const span sp(site::sim_crash);
    return inner_.crashes(ctx, random);
  }
  [[nodiscard]] std::string_view name() const override { return inner_.name(); }

  [[nodiscard]] const std::vector<std::int64_t>& stamps() const { return stamps_; }

 private:
  gather::sim::crash_policy& inner_;
  bool stamp_calls_;
  std::uint64_t mark_every_;
  std::uint64_t calls_ = 0;
  std::vector<std::int64_t> stamps_;
};

class traced_sink final : public gather::obs::event_sink {
 public:
  explicit traced_sink(gather::obs::event_sink& inner) : inner_(inner) {}

  void on_event(const gather::obs::event& e) override {
    const span sp(site::obs_sink);
    ++events_;
    inner_.on_event(e);
  }
  [[nodiscard]] std::uint64_t events() const { return events_; }

 private:
  gather::obs::event_sink& inner_;
  std::uint64_t events_ = 0;
};

}  // namespace perfbench
