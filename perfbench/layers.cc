#include "layers.h"

#include <chrono>
#include <memory>
#include <stdexcept>

#include "cc/const_window.h"
#include "core/elasticity.h"
#include "exp/ground_truth.h"
#include "exp/schemes.h"
#include "obs/telemetry.h"
#include "sim/queue_disc.h"
#include "traffic/raw_sources.h"
#include "traffic/video_source.h"

namespace perfbench {

namespace exp = nimbus::exp;
namespace sim = nimbus::sim;
namespace core = nimbus::core;
using Clock = std::chrono::steady_clock;

namespace {

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Pass-through decorator: forwards every call, timing the per-event ones.
class TimedCc final : public sim::CcAlgorithm {
 public:
  TimedCc(std::unique_ptr<sim::CcAlgorithm> inner, DecoratorTimes* t)
      : inner_(std::move(inner)), t_(t) {}

  std::string name() const override { return inner_->name(); }
  void init(sim::CcContext& ctx) override {
    const auto t0 = Clock::now();
    inner_->init(ctx);
    t_->other_s += since(t0);
  }
  void on_ack(sim::CcContext& ctx, const sim::AckInfo& ack) override {
    const auto t0 = Clock::now();
    inner_->on_ack(ctx, ack);
    t_->on_ack_s += since(t0);
    ++t_->on_ack_calls;
  }
  void on_loss(sim::CcContext& ctx, const sim::LossInfo& loss) override {
    const auto t0 = Clock::now();
    inner_->on_loss(ctx, loss);
    t_->on_loss_s += since(t0);
  }
  void on_rto(sim::CcContext& ctx) override {
    const auto t0 = Clock::now();
    inner_->on_rto(ctx);
    t_->other_s += since(t0);
  }
  void on_report(sim::CcContext& ctx, const sim::CcReport& report) override {
    const auto t0 = Clock::now();
    inner_->on_report(ctx, report);
    t_->on_report_s += since(t0);
    ++t_->on_report_calls;
  }

 private:
  std::unique_ptr<sim::CcAlgorithm> inner_;
  DecoratorTimes* t_;
};

// Pass-through decorator of the bottleneck queue; enqueue/dequeue timed.
class TimedQueue final : public sim::QueueDisc {
 public:
  TimedQueue(std::unique_ptr<sim::QueueDisc> inner, DecoratorTimes* t)
      : inner_(std::move(inner)), t_(t) {}

  bool enqueue(const sim::Packet& p, nimbus::TimeNs now) override {
    const auto t0 = Clock::now();
    const bool ok = inner_->enqueue(p, now);
    t_->qdisc_s += since(t0);
    return ok;
  }
  std::optional<sim::Packet> dequeue(nimbus::TimeNs now) override {
    const auto t0 = Clock::now();
    std::optional<sim::Packet> p = inner_->dequeue(now);
    t_->qdisc_s += since(t0);
    return p;
  }
  std::int64_t bytes() const override { return inner_->bytes(); }
  std::size_t packets() const override { return inner_->packets(); }

 private:
  std::unique_ptr<sim::QueueDisc> inner_;
  DecoratorTimes* t_;
};

// exp/scenario.cc's seed derivation for const-window and video flows,
// rebuilt from the exported mix_seed.
std::uint64_t derived_seed_with_id(std::uint64_t base, std::uint64_t legacy,
                                   std::uint64_t id) {
  if (base == exp::kDefaultBaseSeed) return legacy;
  return exp::mix_seed(base ^ exp::mix_seed(legacy) ^
                       exp::mix_seed(id << 32));
}

// exp::build_network, re-assembled from the exported primitives with the
// queue and every transport flow's controller decorated.  Supports the
// spec features the workloads use and rejects the rest.
exp::BuiltScenario build_decorated(const exp::ScenarioSpec& spec,
                                   DecoratorTimes* t) {
  if (spec.queue != exp::QueueKind::kDropTail || spec.random_loss > 0 ||
      spec.policer.enabled || spec.workload_enabled || spec.log_copa_mode ||
      !spec.protagonist.enabled || !spec.protagonist.use_nimbus_config) {
    throw std::invalid_argument("decorated assembly: unsupported spec " +
                                spec.name);
  }
  const auto wrap = [t](std::unique_ptr<sim::CcAlgorithm> cc) {
    return std::make_unique<TimedCc>(std::move(cc), t);
  };
  exp::BuiltScenario out;
  const std::int64_t buf =
      spec.buffer_bytes > 0
          ? spec.buffer_bytes
          : sim::buffer_bytes_for_bdp(spec.mu_bps, spec.rtt, spec.buffer_bdp);
  out.net = std::make_unique<sim::Network>(
      spec.mu_bps,
      std::make_unique<TimedQueue>(std::make_unique<sim::DropTailQueue>(buf),
                                   t));
  sim::Network& net = *out.net;
  if (spec.impairment.forward.any()) {
    sim::ImpairmentConfig c = spec.impairment.forward;
    if (c.seed == 0) c.seed = exp::flow_seed(spec.seed, 211);
    net.link().set_impairment(std::make_unique<sim::ImpairmentStage>(c));
  }
  if (spec.impairment.reverse.any()) {
    sim::ImpairmentConfig c = spec.impairment.reverse;
    if (c.seed == 0) c.seed = exp::flow_seed(spec.seed, 223);
    net.set_ack_impairment(std::make_unique<sim::ImpairmentStage>(c));
  }
  if (spec.link.kind != exp::LinkSpec::Kind::kConstant) {
    net.link().set_schedule(exp::make_link_schedule(spec));
  }

  // Protagonist: the add_nimbus path.
  const exp::ProtagonistSpec& p = spec.protagonist;
  {
    core::Nimbus::Config cfg = p.nimbus;
    if (cfg.known_mu_bps == 0.0 && p.known_mu) cfg.known_mu_bps = spec.mu_bps;
    auto algo = std::make_unique<core::Nimbus>(cfg);
    out.nimbus = algo.get();
    sim::TransportFlow::Config fc;
    fc.id = p.id;
    fc.rtt_prop = p.rtt > 0 ? p.rtt : spec.rtt;
    fc.start_time = p.start;
    fc.seed = p.seed != 0 ? p.seed : exp::flow_seed(spec.seed, p.id * 7 + 1);
    net.recorder().track_flow(p.id);
    out.protagonist = net.add_flow(fc, wrap(std::move(algo)));
  }

  for (const exp::CrossSpec& c : spec.cross) {
    for (int k = 0; k < c.count; ++k) {
      const sim::FlowId id = c.id != 0 ? c.id + k : net.next_flow_id();
      const nimbus::TimeNs rtt = c.rtt > 0 ? c.rtt : spec.rtt;
      sim::TransportFlow::Config fc;
      fc.id = id;
      fc.rtt_prop = rtt;
      fc.start_time = c.start;
      fc.stop_time = c.stop;
      switch (c.kind) {
        case exp::CrossSpec::Kind::kScheme:
          fc.seed = c.seed != 0 ? c.seed + k
                                : exp::flow_seed(spec.seed, id * 13 + 5);
          net.add_flow(fc, wrap(exp::make_scheme(c.scheme)));
          break;
        case exp::CrossSpec::Kind::kConstWindow:
          fc.seed = c.seed != 0
                        ? c.seed + k
                        : derived_seed_with_id(spec.seed, fc.seed + k, id);
          net.add_flow(fc,
                       wrap(std::make_unique<nimbus::cc::ConstWindow>(
                           c.window_pkts)));
          break;
        case exp::CrossSpec::Kind::kNimbus: {
          auto algo = std::make_unique<core::Nimbus>(c.nimbus);
          out.nimbus_cross.push_back(algo.get());
          out.nimbus_cross_ids.push_back(id);
          fc.seed = c.seed != 0 ? c.seed + k
                                : exp::flow_seed(spec.seed, id * 7 + 1);
          net.add_flow(fc, wrap(std::move(algo)));
          break;
        }
        case exp::CrossSpec::Kind::kPoisson: {
          nimbus::traffic::PoissonSource::Config pc;
          pc.id = id;
          pc.mean_rate_bps = c.rate_bps;
          pc.start_time = c.start;
          pc.stop_time = c.stop;
          pc.seed = c.seed != 0 ? c.seed + k
                                : exp::flow_seed(spec.seed, id * 31 + 3);
          net.reserve_flow_id(id);
          net.add_source(std::make_unique<nimbus::traffic::PoissonSource>(
              &net.loop(), &net.link(), pc));
          break;
        }
        case exp::CrossSpec::Kind::kCbr: {
          nimbus::traffic::CbrSource::Config cc;
          cc.id = id;
          cc.rate_bps = c.rate_bps;
          cc.start_time = c.start;
          cc.stop_time = c.stop;
          net.reserve_flow_id(id);
          net.add_source(std::make_unique<nimbus::traffic::CbrSource>(
              &net.loop(), &net.link(), cc));
          break;
        }
        case exp::CrossSpec::Kind::kVideo: {
          // The video client builds its own (undecorated) Cubic flow; its
          // controller time stays in the residual.
          nimbus::traffic::VideoSource::Config vc;
          vc.id = id;
          vc.bitrate_bps = c.rate_bps;
          vc.rtt_prop = rtt;
          vc.start_time = c.start;
          vc.stop_time = c.stop;
          vc.seed = c.seed != 0
                        ? c.seed + k
                        : derived_seed_with_id(spec.seed, vc.seed + k, id);
          net.add_source(
              std::make_unique<nimbus::traffic::VideoSource>(&net, vc));
          break;
        }
      }
    }
  }
  return out;
}

// What exp::run_scenario does between assembly and the event loop, with
// counters telemetry on; then the timed run and the cell's roll-up.
void run_built(const Cell& cell, exp::ScenarioRun& run, Replica& rep) {
  const exp::ScenarioSpec& spec = cell.spec;
  run.telemetry = std::make_unique<nimbus::obs::Telemetry>(
      nimbus::obs::Mode::kCounters);
  run.built.net->attach_telemetry(run.telemetry.get());
  const nimbus::obs::Trace tr = run.telemetry->trace();
  run.built.nimbus->set_trace(tr,
                              static_cast<std::uint16_t>(spec.protagonist.id));
  for (std::size_t i = 0; i < run.built.nimbus_cross.size(); ++i) {
    run.built.nimbus_cross[i]->set_trace(
        tr, static_cast<std::uint16_t>(run.built.nimbus_cross_ids[i]));
  }
  run.mode_log = std::make_unique<exp::ModeLog>();
  run.eta_log = std::make_unique<nimbus::util::TimeSeries>();
  run.eta_raw_log = std::make_unique<nimbus::util::TimeSeries>();
  run.z_log = std::make_unique<nimbus::util::TimeSeries>();
  exp::attach_nimbus_logger(run.built.nimbus, run.mode_log.get(),
                            run.eta_log.get(), run.z_log.get(),
                            run.eta_raw_log.get());
  const exp::RunBudget b = cell_budget();
  run.built.net->loop().set_run_budget(b.max_events, b.max_wall_seconds);

  const auto t0 = Clock::now();
  run.built.net->run_until(spec.duration);
  rep.run_s = since(t0);

  if (run.budget_stop() != nimbus::sim::EventLoop::BudgetStop::kNone) {
    rep.result = exp::CellResult::failed(exp::CellResult::Fail::kEventBudget);
  } else {
    rep.result = collect_cell(cell, run);
  }
  // exp::run_scenarios_cached's roll-up order (attach_cell_obs).
  const sim::EventLoop& loop = run.built.net->loop();
  rep.counters.emplace_back("run.events_processed",
                            static_cast<double>(loop.processed_events()));
  rep.counters.emplace_back("run.sim_now_sec", nimbus::to_sec(loop.now()));
  rep.counters.emplace_back("run.event_budget_frac",
                            static_cast<double>(loop.processed_events()) /
                                static_cast<double>(b.max_events));
  for (auto& kv : run.telemetry->metrics.snapshot()) {
    rep.counters.emplace_back(std::move(kv));
  }
  for (const auto& f : run.built.net->flows()) {
    rep.sent_packets += f->sent_packets();
  }
}

// Replays the protagonist's z log through a fresh detector with the same
// config: one add_sample per report, evaluate at both tracked frequencies.
void replay_detector(const exp::ScenarioRun& run, Replica& rep) {
  const core::DetectorConfig cfg = run.built.nimbus->detector().config();
  core::ElasticityDetector det(cfg);
  const auto t0 = Clock::now();
  for (double z : run.z_log->values()) {
    det.add_sample(z);
    for (double f : cfg.tracked_freqs_hz) {
      det.evaluate(f);
      ++rep.detector_evaluations;
    }
    ++rep.detector_samples;
  }
  rep.detector_s = since(t0);
}

}  // namespace

Replica run_plain_replica(const Cell& cell) {
  Replica rep;
  exp::ScenarioRun run;
  run.built = exp::build_network(cell.spec);
  run_built(cell, run, rep);
  replay_detector(run, rep);
  return rep;
}

Replica run_decorated_replica(const Cell& cell) {
  Replica rep;
  exp::ScenarioRun run;
  run.built = build_decorated(cell.spec, &rep.times);
  run_built(cell, run, rep);
  return rep;
}

double counter(const Counters& c, const std::string& name) {
  for (const auto& kv : c) {
    if (kv.first == name) return kv.second;
  }
  return 0.0;
}

}  // namespace perfbench
