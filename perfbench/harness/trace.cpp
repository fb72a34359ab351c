#include "trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "obs/profile.h"

namespace perfbench {

namespace {

struct site_info {
  const char* name;
  layer owner;
};

constexpr std::array<site_info, site_count> sites_table{{
    {"workloads.gen", layer::workloads},
    {"workloads.build", layer::workloads},
    {"runner.expand", layer::runner},
    {"runner.cell", layer::runner},
    {"runner.fold", layer::runner},
    {"sim.run", layer::sim},
    {"sim.run_async", layer::sim},
    {"sim.check_potentials", layer::sim},
    {"sim.scheduler", layer::sim},
    {"sim.movement", layer::sim},
    {"sim.crash", layer::sim},
    {"core.destination", layer::core},
    {"core.destinations", layer::core},
    {"config.construct", layer::config},
    {"config.classify", layer::config},
    {"check.explore", layer::check},
    {"obs.sink", layer::obs},
}};

constexpr std::array<const char*, layer_count> layer_names{
    "workloads", "runner", "sim", "core", "config", "geometry", "check", "obs"};

// Spans kept per thread for the CSV dump; statistics cover every span.
constexpr std::size_t stored_spans_per_thread = 100'000;

struct prof_mark {
  std::uint64_t classify_ns = 0;
  std::uint64_t sec_ns = 0;
};

prof_mark prof_now() {
  prof_mark m;
  const gather::obs::prof_registry* reg = gather::obs::current_prof();
  if (reg == nullptr) return m;
  const auto& sites = reg->sites();
  if (auto it = sites.find("config.classify"); it != sites.end()) {
    m.classify_ns = it->second.total_ns;
  }
  if (auto it = sites.find("geom.sec"); it != sites.end()) {
    m.sec_ns = it->second.total_ns;
  }
  return m;
}

struct span_record {
  site s = site::count;
  std::int32_t parent = -1;
  std::uint64_t run = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

struct frame {
  site s = site::count;
  std::int64_t start_ns = 0;
  std::uint64_t child_ns = 0;
  prof_mark prof_start;
  prof_mark child_prof;
  std::int32_t record = -1;
};

struct thread_trace {
  std::uint32_t id = 0;
  std::uint64_t run = 0;
  std::vector<span_record> records;
  std::vector<frame> stack;
  std::array<site_stats, site_count> sites{};
  std::array<std::uint64_t, layer_count> layer_self_ns{};
  std::uint64_t spans = 0;
  std::vector<std::uint64_t> cell_ns;
};

bool g_enabled = false;
const auto g_epoch = std::chrono::steady_clock::now();
std::mutex g_mutex;
std::vector<std::unique_ptr<thread_trace>> g_threads;  // guarded by g_mutex
thread_local thread_trace* t_local = nullptr;

thread_trace& local() {
  if (t_local == nullptr) {
    std::lock_guard<std::mutex> lock(g_mutex);
    g_threads.push_back(std::make_unique<thread_trace>());
    t_local = g_threads.back().get();
    t_local->id = static_cast<std::uint32_t>(g_threads.size() - 1);
  }
  return *t_local;
}

std::uint64_t clamp_sub(std::uint64_t a, std::uint64_t b) { return a > b ? a - b : 0; }

}  // namespace

const char* layer_name(layer l) { return layer_names[static_cast<std::size_t>(l)]; }
const char* site_name(site s) { return sites_table[static_cast<std::size_t>(s)].name; }
layer site_layer(site s) { return sites_table[static_cast<std::size_t>(s)].owner; }

void enable(bool on) { g_enabled = on; }
bool enabled() { return g_enabled; }

void set_run_id(std::uint64_t id) {
  if (g_enabled) local().run = id;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - g_epoch)
      .count();
}

span::span(site s) : on_(g_enabled) {
  if (!on_) return;
  thread_trace& t = local();
  frame f;
  f.s = s;
  f.prof_start = prof_now();
  if (t.records.size() < stored_spans_per_thread) {
    span_record r;
    r.s = s;
    r.parent = t.stack.empty() ? -1 : t.stack.back().record;
    r.run = t.run;
    f.record = static_cast<std::int32_t>(t.records.size());
    t.records.push_back(r);
  }
  f.start_ns = now_ns();
  if (f.record >= 0) t.records[static_cast<std::size_t>(f.record)].start_ns = f.start_ns;
  t.stack.push_back(f);
}

span::~span() {
  if (!on_) return;
  const std::int64_t end = now_ns();
  thread_trace& t = local();
  const frame f = t.stack.back();
  t.stack.pop_back();
  const prof_mark p = prof_now();
  const auto dur = static_cast<std::uint64_t>(std::max<std::int64_t>(0, end - f.start_ns));
  const prof_mark inside{clamp_sub(p.classify_ns, f.prof_start.classify_ns),
                         clamp_sub(p.sec_ns, f.prof_start.sec_ns)};
  const std::uint64_t own_classify = clamp_sub(inside.classify_ns, f.child_prof.classify_ns);
  const std::uint64_t own_sec = clamp_sub(inside.sec_ns, f.child_prof.sec_ns);
  const std::uint64_t self =
      clamp_sub(clamp_sub(clamp_sub(dur, f.child_ns), own_classify), own_sec);

  site_stats& st = t.sites[static_cast<std::size_t>(f.s)];
  ++st.calls;
  st.total_ns += dur;
  st.self_ns += self;
  t.layer_self_ns[static_cast<std::size_t>(site_layer(f.s))] += self;
  t.layer_self_ns[static_cast<std::size_t>(layer::config)] += own_classify;
  t.layer_self_ns[static_cast<std::size_t>(layer::geometry)] += own_sec;
  ++t.spans;
  if (f.s == site::runner_cell) t.cell_ns.push_back(dur);
  if (f.record >= 0) t.records[static_cast<std::size_t>(f.record)].end_ns = end;
  if (!t.stack.empty()) {
    frame& parent = t.stack.back();
    parent.child_ns += dur;
    parent.child_prof.classify_ns += inside.classify_ns;
    parent.child_prof.sec_ns += inside.sec_ns;
  }
}

trace_totals collect() {
  std::lock_guard<std::mutex> lock(g_mutex);
  trace_totals out;
  for (const auto& t : g_threads) {
    for (std::size_t i = 0; i < site_count; ++i) {
      out.sites[i].calls += t->sites[i].calls;
      out.sites[i].total_ns += t->sites[i].total_ns;
      out.sites[i].self_ns += t->sites[i].self_ns;
    }
    for (std::size_t i = 0; i < layer_count; ++i) out.layer_self_ns[i] += t->layer_self_ns[i];
    out.spans += t->spans;
    out.cell_ns.insert(out.cell_ns.end(), t->cell_ns.begin(), t->cell_ns.end());
  }
  return out;
}

void reset() {
  std::lock_guard<std::mutex> lock(g_mutex);
  for (auto& t : g_threads) {
    const std::uint32_t id = t->id;
    *t = thread_trace{};
    t->id = id;
  }
}

void write_spans(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "thread,index,parent,name,layer,run,start_ns,end_ns\n";
  std::lock_guard<std::mutex> lock(g_mutex);
  for (const auto& t : g_threads) {
    for (std::size_t i = 0; i < t->records.size(); ++i) {
      const span_record& r = t->records[i];
      out << t->id << ',' << i << ',' << r.parent << ',' << site_name(r.s) << ','
          << layer_name(site_layer(r.s)) << ',' << r.run << ',' << r.start_ns << ','
          << r.end_ns << '\n';
    }
  }
}

}  // namespace perfbench
