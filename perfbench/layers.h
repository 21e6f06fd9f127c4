// Per-layer measurement for the traced run, from outside the program.
//
// A cell is re-run twice on the calling thread, outside the sweep runner:
//   * a plain replica: exp::build_network, the telemetry and logs that
//     exp::run_scenario attaches, then Network::run_until — timed as
//     spans around those public calls;
//   * a decorated replica: the same network assembled from the
//     exp/scenario.h and sim::Network primitives, with every congestion
//     controller and the bottleneck queue wrapped in pass-through timing
//     decorators of the public sim::CcAlgorithm / sim::QueueDisc
//     interfaces.
// Both must reproduce the sweep cell's event count and registry counters
// exactly; a replica that does not is reported, never used.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "exp/result_cache.h"
#include "workloads.h"

namespace perfbench {

using Counters = std::vector<std::pair<std::string, double>>;

/// Self times measured by the decorators (seconds) and their call counts.
struct DecoratorTimes {
  double on_ack_s = 0, on_loss_s = 0, on_report_s = 0, other_s = 0;
  std::uint64_t on_ack_calls = 0, on_report_calls = 0;
  double qdisc_s = 0;

  double cc_s() const { return on_ack_s + on_loss_s + on_report_s + other_s; }
};

struct Replica {
  double run_s = 0;  // Network::run_until
  /// The cell's roll-up in exp::run_scenarios_cached's obs_counters form.
  Counters counters;
  std::uint64_t sent_packets = 0;  // data packets sent, all transport flows
  nimbus::exp::CellResult result;  // collect_cell on the replica
  DecoratorTimes times;            // decorated replica only
  // Detector replay over the protagonist's z log (plain replica only).
  std::uint64_t detector_samples = 0, detector_evaluations = 0;
  double detector_s = 0;
};

/// Re-runs one cell under NIMBUS_OBS=counters semantics (telemetry is
/// attached explicitly, whatever the environment says).
Replica run_plain_replica(const Cell& cell);
Replica run_decorated_replica(const Cell& cell);

/// The value of `name` in a roll-up, or 0 when absent.
double counter(const Counters& c, const std::string& name);

}  // namespace perfbench
