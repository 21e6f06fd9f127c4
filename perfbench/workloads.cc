#include "workloads.h"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "exp/spec_canon.h"
#include "util/time.h"

namespace perfbench {

using nimbus::TimeNs;
using nimbus::from_ms;
using nimbus::from_sec;
namespace exp = nimbus::exp;

namespace {

// Scoring skips one FFT window plus smoothing (exp::score_accuracy).
const TimeNs kWarmup = from_sec(10);

// Indices into collect_cell's values.
constexpr std::size_t kAccuracy = 0;
constexpr std::size_t kElasticFrac = 1;

exp::ScenarioSpec nimbus_spec(const std::string& name, std::uint64_t seed,
                              double mu_bps, TimeNs duration) {
  exp::ScenarioSpec spec;
  spec.name = name;
  spec.seed = seed;
  spec.mu_bps = mu_bps;
  spec.duration = duration;
  spec.protagonist.use_nimbus_config = true;
  return spec;
}

std::string cell_name(const std::string& workload, std::size_t i,
                      const std::string& what) {
  char idx[16];
  std::snprintf(idx, sizeof(idx), "%03zu", i);
  return workload + "/" + idx + "/" + what;
}

// Gilbert–Elliott chain with the given stationary loss rate and a mean
// burst of 8 packets (the bench_impairment parameterization).
nimbus::sim::ImpairmentConfig ge_loss(double rate) {
  nimbus::sim::ImpairmentConfig c;
  c.ge_enabled = true;
  c.ge_q = 1.0 / 8.0;
  c.ge_p = rate * c.ge_q / (1.0 - rate);
  return c;
}

// clean_mix: a Nimbus protagonist on the paper's 96 Mbit/s, 50 ms, 2-BDP
// DropTail link against every Table 1 class with a strict expectation,
// plus two cells on the cellular µ(t) trace.
void add_clean_mix(Workload& w, std::uint64_t seed,
                   const std::string& trace_path) {
  const TimeNs d = from_sec(40);
  struct Row {
    const char* klass;
    Verdict verdict;
  };
  const Row rows[] = {
      {"cubic", Verdict::kElastic},        {"newreno", Verdict::kElastic},
      {"copa", Verdict::kElastic},         {"fixed-window", Verdict::kElastic},
      {"cbr", Verdict::kInelastic},        {"poisson", Verdict::kInelastic},
      {"app-limited", Verdict::kInelastic},
  };
  for (const Row& row : rows) {
    const std::size_t i = w.cells.size();
    Cell c;
    c.spec = nimbus_spec(cell_name(w.name, i, row.klass),
                         exp::derive_seed(seed, i), 96e6, d);
    const std::string k = row.klass;
    if (k == "fixed-window") {
      exp::CrossSpec x;
      x.kind = exp::CrossSpec::Kind::kConstWindow;
      x.id = 2;
      x.window_pkts = 400;
      c.spec.cross.push_back(x);
    } else if (k == "cbr") {
      c.spec.cross.push_back(exp::CrossSpec::cbr(48e6, 2));
    } else if (k == "poisson") {
      c.spec.cross.push_back(exp::CrossSpec::poisson(48e6, 2));
    } else if (k == "app-limited") {
      exp::CrossSpec x;
      x.kind = exp::CrossSpec::Kind::kVideo;
      x.id = 2;
      x.rate_bps = 12e6;  // far below fair share: app-limited
      c.spec.cross.push_back(x);
    } else {
      c.spec.cross.push_back(exp::CrossSpec::flow(k, 2));
    }
    c.elastic_truth = row.verdict == Verdict::kElastic;
    c.strict = row.verdict;
    w.cells.push_back(std::move(c));
  }
  // µ(t) cells: the trace replaces µ; buffers and known-µ are sized off
  // the trace's mean rate (exp::trace_mean_rate_bps).
  const double trace_mu = exp::trace_mean_rate_bps(trace_path);
  for (const char* cross : {"poisson", "cubic"}) {
    const std::size_t i = w.cells.size();
    Cell c;
    c.spec = nimbus_spec(cell_name(w.name, i, std::string("cellular-") + cross),
                         exp::derive_seed(seed, i), trace_mu, d);
    c.spec.link = exp::LinkSpec::trace(trace_path);
    if (std::strcmp(cross, "poisson") == 0) {
      c.spec.cross.push_back(exp::CrossSpec::poisson(0.4 * trace_mu, 2));
    } else {
      c.spec.cross.push_back(exp::CrossSpec::flow(cross, 2));
    }
    c.elastic_truth = std::strcmp(cross, "cubic") == 0;
    w.cells.push_back(std::move(c));
  }
}

// lossy_mix: the same protagonist against Vivace and BBR, and against
// Cubic over three impaired paths at 96 Mbit/s.  The Vivace cells run long
// enough for Vivace's window blow-up (after ~20 s) and the retransmit storm
// it brings; they dominate the sweep's time and memory, and four of them
// average out host noise (the Vivace outcome does not depend on the seed).
// BBR runs 60 s at 48 Mbit/s so its scored accuracy averages over a long
// window.  Vivace and BBR are scored against their Table 1 verdicts
// (inelastic* and elastic*), the Cubic cells as elastic; none is strict.
void add_lossy_mix(Workload& w, std::uint64_t seed) {
  const auto add = [&](const std::string& what, const std::string& scheme,
                       TimeNs d, bool elastic,
                       const exp::ImpairmentSpec& imp, double mu = 96e6) {
    const std::size_t i = w.cells.size();
    Cell c;
    c.spec = nimbus_spec(cell_name(w.name, i, what), exp::derive_seed(seed, i),
                         mu, d);
    c.spec.cross.push_back(exp::CrossSpec::flow(scheme, 2));
    c.spec.impairment = imp;
    c.elastic_truth = elastic;
    w.cells.push_back(std::move(c));
  };
  exp::ImpairmentSpec burst;
  burst.forward = ge_loss(0.02);
  exp::ImpairmentSpec reorder;
  reorder.forward.jitter = from_ms(10);
  reorder.forward.reorder = true;
  exp::ImpairmentSpec ackloss;
  ackloss.reverse = ge_loss(0.10);
  const TimeNs d = from_sec(30);
  for (int k = 0; k < 2; ++k) {
    add("bbr", "bbr", from_sec(60), true, {}, 48e6);
    add("cubic-ge2", "cubic", d, true, burst);
    add("cubic-reorder10ms", "cubic", d, true, reorder);
    add("cubic-ackloss10", "cubic", d, true, ackloss);
  }
  for (int k = 0; k < 4; ++k) {
    add("vivace", "vivace", from_sec(30), /*elastic=*/false, {});
  }
}

// multiflow_lowrate: 16 staggered Nimbus flows (section 6 coordination)
// on low-rate links, the first of them the protagonist: four rates in
// 12–24 Mbit/s, twelve seeds each (the protagonist's mode varies from seed
// to seed, so its accuracy needs many cells to average).
void add_multiflow_lowrate(Workload& w, std::uint64_t seed) {
  const TimeNs d = from_sec(60);
  const int kFlows = 16;
  for (int rep = 0; rep < 12; ++rep) {
    for (double mu : {12e6, 16e6, 20e6, 24e6}) {
      const std::size_t i = w.cells.size();
      Cell c;
      char what[32];
      std::snprintf(what, sizeof(what), "nimbus16-%.0fmbps", mu / 1e6);
      c.spec = nimbus_spec(cell_name(w.name, i, what),
                           exp::derive_seed(seed, i), mu, d);
      c.spec.protagonist.nimbus.multiflow = true;
      for (int f = 1; f < kFlows; ++f) {
        nimbus::core::Nimbus::Config cfg;
        cfg.known_mu_bps = mu;
        cfg.multiflow = true;
        c.spec.cross.push_back(exp::CrossSpec::nimbus_flow(
            cfg, static_cast<nimbus::sim::FlowId>(f + 1), /*seed=*/0,
            from_ms(250) * f));
      }
      // Concurrent Nimbus flows coordinate into delay mode (section 6):
      // the other flows are no elastic threat, so the truth is
      // "inelastic".
      c.elastic_truth = false;
        w.cells.push_back(std::move(c));
    }
  }
}

// sweep_warm: a grid of short, varied cells; the timed phase serves them
// from a private result cache.
void add_sweep_warm(Workload& w, std::uint64_t seed) {
  const TimeNs d = from_sec(12);
  for (const char* cross : {"cubic", "newreno", "poisson", "cbr"}) {
    for (double mu : {12e6, 24e6}) {
      for (int rtt_ms : {20, 40, 60}) {
        for (double bdp : {1.0, 2.0}) {
          for (int rep = 0; rep < 5; ++rep) {
            const std::size_t i = w.cells.size();
            char what[64];
            std::snprintf(what, sizeof(what), "%s-%.0fmbps-%dms-%.0fbdp-r%d",
                          cross, mu / 1e6, rtt_ms, bdp, rep);
            Cell c;
            c.spec = nimbus_spec(cell_name(w.name, i, what),
                                 exp::derive_seed(seed, i), mu, d);
            c.spec.rtt = from_ms(rtt_ms);
            c.spec.buffer_bdp = bdp;
            const std::string k = cross;
            if (k == "poisson") {
              c.spec.cross.push_back(exp::CrossSpec::poisson(0.5 * mu, 2));
            } else if (k == "cbr") {
              c.spec.cross.push_back(exp::CrossSpec::cbr(0.5 * mu, 2));
            } else {
              c.spec.cross.push_back(exp::CrossSpec::flow(k, 2));
            }
            c.elastic_truth = exp::spec_cross_is_elastic(c.spec);
                    w.cells.push_back(std::move(c));
          }
        }
      }
    }
  }
  w.cached = true;
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return exp::mix_seed(h ^ exp::mix_seed(v));
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::string& trace_path) {
  Workload w;
  w.name = name;
  if (name == "clean_mix") {
    add_clean_mix(w, seed, trace_path);
  } else if (name == "lossy_mix") {
    add_lossy_mix(w, seed);
  } else if (name == "multiflow_lowrate") {
    add_multiflow_lowrate(w, seed);
  } else if (name == "sweep_warm") {
    add_sweep_warm(w, seed);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  for (const Cell& c : w.cells) {
    // kDefaultBaseSeed selects the legacy seeding family (exp/scenario.h).
    if (c.spec.seed == exp::kDefaultBaseSeed) {
      throw std::invalid_argument("cell seed collides with kDefaultBaseSeed");
    }
  }
  return w;
}

const Cell& cell_for(const Workload& w, const exp::ScenarioSpec& s) {
  // Names embed the cell index right after "<workload>/".
  const std::size_t i = std::stoul(s.name.substr(w.name.size() + 1, 3));
  if (i >= w.cells.size() || w.cells[i].spec.name != s.name) {
    throw std::logic_error("spec does not belong to workload: " + s.name);
  }
  return w.cells[i];
}

exp::CellResult collect_cell(const Cell& cell, exp::ScenarioRun& run) {
  const exp::ScenarioSpec& spec = cell.spec;
  nimbus::sim::Recorder& rec = run.built.net->recorder();
  const double accuracy = exp::score_accuracy(run, spec, cell.elastic_truth);
  const double elastic = run.mode_log->fraction_competitive(kWarmup,
                                                             spec.duration);
  const double mbps =
      rec.delivered(spec.protagonist.id).rate_bps(kWarmup, spec.duration) /
      1e6;
  const double qdelay_ms =
      rec.probed_queue_delay().mean_in(kWarmup, spec.duration).value_or(0.0);
  return exp::CellResult::vec({accuracy, elastic, mbps, qdelay_ms});
}

bool cell_failed(const Cell& cell, const exp::CellResult& r) {
  if (!r.valid || r.values.empty()) return true;
  for (double v : r.values) {
    if (!std::isfinite(v)) return true;
  }
  switch (cell.strict) {
    case Verdict::kNone:
      return false;
    case Verdict::kElastic:
      return !(r.values[kElasticFrac] > 0.5);
    case Verdict::kInelastic:
      return !(r.values[kElasticFrac] < 0.5);
  }
  return true;
}

double detect_accuracy(const std::vector<exp::CellResult>& rs) {
  double sum = 0;
  for (const exp::CellResult& r : rs) sum += r.value(kAccuracy);
  return sum / static_cast<double>(rs.size());
}

std::uint64_t sweep_digest(const Workload& w,
                           const std::vector<exp::CellResult>& rs) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const exp::Hash128 h = exp::spec_hash(w.cells[i].spec);
    std::uint64_t d = mix(mix(h.hi, h.lo), w.cells[i].spec.seed);
    d = mix(d, rs[i].valid ? 1 : 0);
    for (double v : rs[i].values) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof(bits));
      d = mix(d, bits);
    }
    sum += d;  // wraps: unsigned, order-independent
  }
  return sum;
}

exp::RunBudget cell_budget() {
  // A hang guard, far above what any cell needs: the heaviest, lossy_mix's
  // Vivace cell, processes a few million events in a few seconds.
  return exp::RunBudget{200'000'000ULL, 150.0};
}

}  // namespace perfbench
