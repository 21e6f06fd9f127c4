// perfbench: the repository benchmark's measuring program.
//
//   perfbench --mode setup|run|trace --workload <name> --seed <n>
//             --seconds <s> --trace-file <cellular.trace> --cache-dir <dir>
//
// Every mode prints one JSON object on stdout.  perfbench/run.py builds
// this program, runs it and assembles the benchmark's result line; see
// perfbench/README.md for the workloads and the metrics.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/result_cache.h"
#include "exp/runner.h"
#include "exp/spec_canon.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace exp = nimbus::exp;
using Clock = std::chrono::steady_clock;

constexpr int kJobs = 2;  // closed loop of two sweep workers

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string mode, workload, trace_file, cache_dir;
  std::uint64_t seed = 0;
  double seconds = 0;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--mode") a.mode = v;
    else if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace-file") a.trace_file = v;
    else if (k == "--cache-dir") a.cache_dir = v;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.mode.empty() || a.workload.empty() || a.trace_file.empty()) {
    throw std::invalid_argument("--mode, --workload and --trace-file needed");
  }
  return a;
}

// --- result line ----------------------------------------------------------

struct Metric {
  std::string name, unit;
  double value;
  bool missing = false;
};

struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> failed_checks;
  long attempted = 0, failed = 0, sweeps = 0;
  std::uint64_t digest = 0;

  void add(const std::string& n, const std::string& u, double v) {
    metrics.push_back({n, u, v, !std::isfinite(v)});
  }
  void add_missing(const std::string& n, const std::string& u) {
    metrics.push_back({n, u, 0.0, true});
  }
  void check(bool ok, const std::string& what) {
    if (!ok && std::find(failed_checks.begin(), failed_checks.end(), what) ==
                   failed_checks.end()) {
      failed_checks.push_back(what);
    }
  }
  void print() const {
    std::printf("{\"attempted\": %ld, \"failed\": %ld, \"sweeps\": %ld, "
                "\"digest\": \"%016" PRIx64 "\", \"failed_checks\": [",
                attempted, failed, sweeps, digest);
    for (std::size_t i = 0; i < failed_checks.size(); ++i) {
      std::printf("%s\"%s\"", i ? ", " : "", failed_checks[i].c_str());
    }
    std::printf("], \"metrics\": {");
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const Metric& m = metrics[i];
      std::printf("%s\"%s\": {\"value\": ", i ? ", " : "", m.name.c_str());
      if (m.missing) {
        std::printf("null");
      } else {
        std::printf("%.17g", m.value);
      }
      std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
    }
    std::printf("}}\n");
  }
};

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- sweeps ---------------------------------------------------------------

/// One call of the program's sweep entry point, with every input pinned.
struct Sweep {
  std::vector<exp::CellResult> results;
  double wall_s = 0;
  double cell_s = 0;      // per-cell wall time, summed (computed cells)
  double cell_cpu_s = 0;  // per-cell worker CPU time, summed
  double collect_s = 0;  // time inside collect, summed
  double sim_s = 0;      // simulated seconds of computed cells
  std::uint64_t digest = 0;
  long failed = 0;
};

Sweep run_sweep(const Workload& w, exp::ResultCache* cache,
                int jobs = kJobs) {
  std::vector<exp::ScenarioSpec> specs;
  specs.reserve(w.cells.size());
  for (const Cell& c : w.cells) specs.push_back(c.spec);
  const exp::ShardConfig no_shard{1, 1};
  const exp::RunBudget budget = cell_budget();

  // A worker's cell time runs from the end of its previous cell (or the
  // sweep's start) to the end of this cell's collect.  The CPU clock is the
  // worker thread's own, which starts at zero: ParallelRunner starts fresh
  // workers for each sweep of two or more cells.
  Sweep s;
  std::mutex mu;
  std::map<std::thread::id, Clock::time_point> last;
  std::map<std::thread::id, double> last_cpu;
  const Clock::time_point start = Clock::now();
  const exp::CellCollect collect = [&](const exp::ScenarioSpec& spec,
                                       exp::ScenarioRun& run) {
    const Cell& cell = cell_for(w, spec);
    const auto c0 = Clock::now();
    exp::CellResult r = collect_cell(cell, run);
    const auto end = Clock::now();
    std::lock_guard<std::mutex> lock(mu);
    const double cpu = thread_cpu_s();
    s.cell_cpu_s += cpu - last_cpu[std::this_thread::get_id()];
    last_cpu[std::this_thread::get_id()] = cpu;
    const auto it = last.find(std::this_thread::get_id());
    const Clock::time_point from = it == last.end() ? start : it->second;
    s.cell_s += std::chrono::duration<double>(end - from).count();
    s.collect_s += std::chrono::duration<double>(end - c0).count();
    s.sim_s += nimbus::to_sec(spec.duration);
    last[std::this_thread::get_id()] = end;
    return r;
  };
  s.results = exp::run_scenarios_cached(specs, collect,
                                        exp::ParallelRunner::Options{jobs},
                                        nullptr, cache, &no_shard, &budget);
  s.wall_s = since(start);
  s.digest = sweep_digest(w, s.results);
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    if (cell_failed(w.cells[i], s.results[i])) ++s.failed;
  }
  return s;
}

std::vector<std::string> failed_cell_names(const Workload& w, const Sweep& s) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    if (cell_failed(w.cells[i], s.results[i])) {
      out.push_back("cell failed: " + w.cells[i].spec.name);
    }
  }
  return out;
}

// --- modes ----------------------------------------------------------------

/// Set-up a workload pays before its first cell: the build fingerprint
/// (cached workloads; computed once per process, so this runs in a fresh
/// one), then building the cell list (which loads the µ(t) trace) and
/// exp::build_network over every spec — repeated, reporting the median.
/// Timed in thread CPU time, which leaves out time the host took the CPU
/// away (set-up is single-threaded and never blocks on anything but the
/// page cache).
void mode_setup(const Args& a) {
  double fingerprint_s = 0;
  if (a.workload == "sweep_warm") {
    const double f0 = thread_cpu_s();
    exp::code_fingerprint();
    fingerprint_s = thread_cpu_s() - f0;
  }
  constexpr int kRepeats = 9;
  std::vector<double> samples;
  long cells = 0;
  for (int r = 0; r < kRepeats; ++r) {
    double s = 0;
    double t0 = thread_cpu_s();
    const Workload w =
        make_workload(a.workload, a.seed, a.trace_file);
    s += thread_cpu_s() - t0;
    for (const Cell& c : w.cells) {
      t0 = thread_cpu_s();
      exp::BuiltScenario built = exp::build_network(c.spec);
      s += thread_cpu_s() - t0;
    }
    samples.push_back(s);
    cells = static_cast<long>(w.cells.size());
  }
  std::nth_element(samples.begin(), samples.begin() + kRepeats / 2,
                   samples.end());
  Report r;
  r.attempted = cells;
  r.add("setup_s", "s", fingerprint_s + samples[kRepeats / 2]);
  r.print();
}

/// The untraced measurement: repeat the workload's sweep for `seconds`.
void mode_run(const Args& a) {
  const Workload w = make_workload(a.workload, a.seed, a.trace_file);
  Report rep;
  exp::ResultCache off("", exp::ResultCache::Mode::kOff);
  exp::ResultCache* cache = &off;
  std::unique_ptr<exp::ResultCache> read_cache;
  std::uint64_t expect_digest = 0;
  if (w.cached) {
    // Untimed preparation: fill the private cache.
    exp::ResultCache fill(a.cache_dir, exp::ResultCache::Mode::kReadWrite);
    const Sweep pop = run_sweep(w, &fill);
    rep.attempted += static_cast<long>(w.cells.size());
    rep.failed += pop.failed;
    for (auto& f : failed_cell_names(w, pop)) rep.check(false, f);
    rep.check(fill.stats().stores == static_cast<long>(w.cells.size()),
              "populate stored every cell");
    expect_digest = pop.digest;
    read_cache = std::make_unique<exp::ResultCache>(
        a.cache_dir, exp::ResultCache::Mode::kRead);
    cache = read_cache.get();
  }

  // Whole sweeps until the next one would end further past `seconds`
  // than stopping now.  Only the first sweep's results are kept: holding
  // every sweep's would grow the process with the sweep count.
  Sweep first;
  long cells = 0;
  double sim_s = 0, cpu_s = 0;
  std::vector<double> rates;  // cells per second, per sweep
  const auto t0 = Clock::now();
  do {
    Sweep s = run_sweep(w, cache);
    cells += static_cast<long>(s.results.size());
    rep.failed += s.failed;
    sim_s += s.sim_s;
    cpu_s += s.cell_cpu_s;
    rates.push_back(static_cast<double>(s.results.size()) / s.wall_s);
    for (std::size_t i = 0; w.cached && i < s.results.size(); ++i) {
      rep.check(s.results[i].from_cache, "every sweep_warm cell is a hit");
    }
    if (rates.size() == 1) {
      first = std::move(s);
    } else {
      rep.check(s.digest == first.digest, "sweep digests agree");
    }
  } while (since(t0) * (1.0 + 0.5 / static_cast<double>(rates.size())) <
           a.seconds);
  for (auto& f : failed_cell_names(w, first)) rep.check(false, f);
  if (w.cached) rep.check(first.digest == expect_digest,
                          "cache serves the populated values");
  rep.attempted += cells;
  rep.digest = first.digest;
  rep.sweeps = static_cast<long>(rates.size());

  std::sort(rates.begin(), rates.end());
  const double cells_per_s = rates[rates.size() / 2];
  double mean_duration_s = 0;
  for (const Cell& c : w.cells) {
    mean_duration_s += nimbus::to_sec(c.spec.duration);
  }
  mean_duration_s /= static_cast<double>(w.cells.size());
  rep.add("cells_per_s", "cells/s", cells_per_s);
  // Simulated seconds per second of worker CPU time.  Cached cells are
  // served, not simulated: there it is the simulated time served per
  // second of worker wall time.
  rep.add("sim_s_per_wall_s", "sim-s/host-s",
          w.cached ? cells_per_s * mean_duration_s / kJobs : sim_s / cpu_s);
  rep.add("peak_rss_mb", "MB", peak_rss_mb());
  rep.add("cell_ok_frac", "fraction",
          1.0 - static_cast<double>(rep.failed) /
                    static_cast<double>(rep.attempted));
  rep.add("detect_accuracy", "fraction", detect_accuracy(first.results));
  rep.print();
}

/// The traced run: per-layer work and host time.
void mode_trace(const Args& a) {
  Report rep;
  double fingerprint_s = 0;
  const Workload w = make_workload(a.workload, a.seed, a.trace_file);
  const std::size_t n = w.cells.size();
  if (w.cached) {
    const auto f0 = Clock::now();
    exp::code_fingerprint();
    fingerprint_s = since(f0);
  }

  // exp: assembly, over the same specs setup_s times.
  double assembly_s = 0;
  for (const Cell& c : w.cells) {
    const auto b0 = Clock::now();
    exp::BuiltScenario built = exp::build_network(c.spec);
    assembly_s += since(b0);
  }
  // exp: spec hashing, the per-cell key cost of any cached sweep.
  double hash_s = 0;
  std::vector<exp::Hash128> hashes(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto h0 = Clock::now();
    hashes[i] = exp::spec_hash(w.cells[i].spec);
    hash_s += since(h0);
  }

  exp::ResultCache off("", exp::ResultCache::Mode::kOff);
  exp::ResultCache* cache = &off;
  std::unique_ptr<exp::ResultCache> read_cache;
  double store_s = 0, load_s = 0;
  long hits = 0;
  if (w.cached) {
    exp::ResultCache fill(a.cache_dir, exp::ResultCache::Mode::kReadWrite);
    const Sweep pop = run_sweep(w, &fill);
    rep.attempted += static_cast<long>(n);
    rep.failed += pop.failed;
    // ResultCache::store spans, into a second private directory.
    exp::ResultCache again(a.cache_dir + "/store-timing",
                           exp::ResultCache::Mode::kReadWrite);
    for (std::size_t i = 0; i < n; ++i) {
      const auto s0 = Clock::now();
      again.store(hashes[i], w.cells[i].spec.seed, pop.results[i]);
      store_s += since(s0);
    }
    read_cache = std::make_unique<exp::ResultCache>(
        a.cache_dir, exp::ResultCache::Mode::kRead);
    cache = read_cache.get();
    // ResultCache::load spans over the timed phase's keys.
    for (std::size_t i = 0; i < n; ++i) {
      const auto l0 = Clock::now();
      if (read_cache->load(hashes[i], w.cells[i].spec.seed)) ++hits;
      load_s += since(l0);
    }
  }

  // Untraced and traced sweeps through the program's own entry point,
  // after one untimed serial (jobs = 1) sweep that warms the process up.
  // Untraced/traced pairs repeat for a few seconds; the overhead compares
  // their median walls.
  setenv("NIMBUS_OBS", "off", 1);
  const Sweep serial = run_sweep(w, cache, 1);
  rep.attempted += static_cast<long>(n);
  rep.failed += serial.failed;
  std::vector<Sweep> plains, traceds;
  const auto pairs0 = Clock::now();
  do {
    setenv("NIMBUS_OBS", "off", 1);
    plains.push_back(run_sweep(w, cache));
    setenv("NIMBUS_OBS", "counters", 1);
    traceds.push_back(run_sweep(w, cache));
    setenv("NIMBUS_OBS", "off", 1);
    for (const Sweep* s : {&plains.back(), &traceds.back()}) {
      rep.attempted += static_cast<long>(n);
      rep.failed += s->failed;
      rep.check(s->digest == serial.digest,
                "jobs=2 digest == jobs=1 digest, traced and untraced");
    }
  } while (since(pairs0) < 4.0);
  const Sweep& plain = plains[0];
  const Sweep& traced = traceds[0];
  for (auto& f : failed_cell_names(w, plain)) rep.check(false, f);
  rep.digest = plain.digest;
  const auto median_wall = [](const std::vector<Sweep>& v) {
    std::vector<double> walls;
    for (const Sweep& s : v) walls.push_back(s.wall_s);
    std::sort(walls.begin(), walls.end());
    return walls[walls.size() / 2];
  };

  std::uint64_t events = 0;
  for (const exp::CellResult& r : traced.results) {
    events += static_cast<std::uint64_t>(
        counter(r.obs_counters, "run.events_processed"));
  }

  // Replicas (computed workloads): plain and decorated, two workers.
  std::vector<Replica> plain_reps, deco_reps;
  bool deco_ok = true;
  if (!w.cached) {
    exp::ParallelRunner pool(exp::ParallelRunner::Options{kJobs});
    plain_reps = pool.map<Replica>(
        n, [&](std::size_t i) { return run_plain_replica(w.cells[i]); });
    deco_reps = pool.map<Replica>(
        n, [&](std::size_t i) {
          return run_decorated_replica(w.cells[i]);
        });
    std::vector<exp::CellResult> replica_results;
    for (std::size_t i = 0; i < n; ++i) {
      const auto& want = traced.results[i].obs_counters;
      rep.check(plain_reps[i].counters == want,
                "plain replica reproduces counters: " + w.cells[i].spec.name);
      const bool same = deco_reps[i].counters == want;
      rep.check(same, "decorated replica reproduces counters: " +
                          w.cells[i].spec.name);
      deco_ok = deco_ok && same;
      replica_results.push_back(plain_reps[i].result);
      rep.check(deco_reps[i].result.values == plain_reps[i].result.values,
                "decorated replica reproduces values: " + w.cells[i].spec.name);
    }
    rep.check(sweep_digest(w, replica_results) == plain.digest,
              "replica digest == sweep digest");
  }

  const auto sum = [&](const std::vector<Replica>& rs,
                       auto field) {
    double t = 0;
    for (const auto& r : rs) t += field(r);
    return t;
  };
  const auto sum_counter = [&](const std::string& name) {
    double t = 0;
    for (const exp::CellResult& r : traced.results) {
      t += counter(r.obs_counters, name);
    }
    return t;
  };
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };

  const double nd = static_cast<double>(n);
  rep.add("exp.assembly_s", "s", assembly_s);
  rep.add("exp.fingerprint_s", "s", fingerprint_s);
  rep.add("exp.spec_hash_us_per_cell", "us", 1e6 * hash_s / nd);
  rep.add("exp.cache.load_us_per_cell", "us", w.cached ? 1e6 * load_s / nd : 0);
  rep.add("exp.cache.hit_frac", "fraction",
          w.cached ? static_cast<double>(hits) / nd : 0);
  rep.add("exp.cache.store_us_per_cell", "us",
          w.cached ? 1e6 * store_s / nd : 0);
  rep.add("exp.runner.idle_frac", "fraction",
          1.0 - plain.cell_s / (kJobs * plain.wall_s));
  rep.add("exp.collect_s", "s", plain.collect_s);

  const double run_s = sum(plain_reps, [](auto& r) { return r.run_s; });
  const double fired = sum_counter("loop.events_fired");
  rep.add("sim.event_loop.events", "count", static_cast<double>(events));
  rep.add("sim.event_loop.ns_per_event", "ns", ratio(1e9 * run_s, events));
  rep.add("sim.event_loop.far_heap_inserts_per_event", "ratio",
          ratio(sum_counter("loop.far_heap_inserts"), fired));
  rep.add("sim.event_loop.wheel_inserts_per_event", "ratio",
          ratio(sum_counter("loop.wheel_inserts"), fired));
  rep.add("sim.event_loop.mean_batch", "events",
          ratio(fired, sum_counter("loop.batch_size.count")));

  const double enq = sum_counter("link.enqueues");
  const double drops = sum_counter("link.drops.impairment") +
                       sum_counter("link.drops.random_loss") +
                       sum_counter("link.drops.policer") +
                       sum_counter("link.drops.queue");
  rep.add("sim.link.enqueues", "count", enq);
  rep.add("sim.link.drop_frac", "fraction", ratio(drops, enq));
  rep.add("sim.link.impairment_decisions", "count",
          sum_counter("link.impairment_decisions"));

  const double acks = sum_counter("transport.acks");
  const double retx = sum_counter("transport.retransmits");
  const double sent = sum(plain_reps, [](auto& r) {
    return static_cast<double>(r.sent_packets);
  });
  rep.add("sim.transport.acks", "count", acks);
  rep.add("sim.transport.retransmits", "count", retx);
  rep.add("sim.transport.rto_backoffs", "count",
          sum_counter("transport.rto_backoffs"));
  rep.add("sim.transport.spurious_rx", "count",
          sum_counter("transport.spurious_rx"));
  rep.add("sim.transport.useful_frac", "fraction",
          sent > 0 ? 1.0 - retx / sent : 0.0);

  const double deco_run_s = sum(deco_reps, [](auto& r) { return r.run_s; });
  const auto deco = [&](auto field) {
    return sum(deco_reps, [&](auto& r) { return field(r.times); });
  };
  const double cc_s = deco([](auto& t) { return t.cc_s(); });
  const double qdisc_s = deco([](auto& t) { return t.qdisc_s; });
  const auto add_deco = [&](const std::string& name, const std::string& unit,
                            double v) {
    if (deco_ok) {
      rep.add(name, unit, v);
    } else {
      rep.add_missing(name, unit);
    }
  };
  add_deco("sim.link.qdisc_s", "s", qdisc_s);
  add_deco("sim.transport.residual_ns_per_ack", "ns",
           ratio(1e9 * (deco_run_s - cc_s - qdisc_s), acks));
  add_deco("cc.on_ack.calls", "count",
           deco([](auto& t) { return static_cast<double>(t.on_ack_calls); }));
  add_deco("cc.on_ack_s", "s", deco([](auto& t) { return t.on_ack_s; }));
  add_deco("cc.on_loss_s", "s", deco([](auto& t) { return t.on_loss_s; }));
  add_deco("cc.on_report.calls", "count", deco([](auto& t) {
             return static_cast<double>(t.on_report_calls);
           }));
  add_deco("cc.on_report_s", "s", deco([](auto& t) { return t.on_report_s; }));
  add_deco("cc.share", "fraction", ratio(cc_s, deco_run_s));

  const double det_samples =
      sum(plain_reps, [](auto& r) { return double(r.detector_samples); });
  rep.add("core.elasticity.samples", "count", det_samples);
  rep.add("core.elasticity.evaluations", "count",
          sum(plain_reps, [](auto& r) { return double(r.detector_evaluations); }));
  rep.add("core.elasticity.ns_per_report", "ns",
          ratio(1e9 * sum(plain_reps, [](auto& r) { return r.detector_s; }),
                det_samples));

  const double plain_wall = median_wall(plains);
  rep.add("obs.trace_overhead_frac", "fraction",
          (median_wall(traceds) - plain_wall) / plain_wall);
  rep.print();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    using namespace perfbench;
    const Args a = parse_args(argc, argv);
    // Ambient knobs must not change what is measured: telemetry is set
    // per phase below, and every other input is passed explicitly.
    setenv("NIMBUS_OBS", "off", 1);
    unsetenv("NIMBUS_OBS_DIR");
    if (a.mode == "setup") {
      mode_setup(a);
    } else if (a.mode == "run") {
      mode_run(a);
    } else if (a.mode == "trace") {
      mode_trace(a);
    } else {
      throw std::invalid_argument("unknown mode " + a.mode);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  return 0;
}
