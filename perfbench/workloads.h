// The benchmark's four sweep workloads: their cells, how a finished cell
// is reduced to scored values, and the per-cell correctness checks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/result_cache.h"
#include "exp/runner.h"
#include "exp/scenario.h"

namespace perfbench {

/// What a cell's Table 1 class says the detector must conclude.
enum class Verdict { kNone, kElastic, kInelastic };

struct Cell {
  nimbus::exp::ScenarioSpec spec;  // spec.name is unique in its workload
  /// Ground truth for score_accuracy (the library's own scorer).
  bool elastic_truth = false;
  /// Strict Table 1 expectation; a flip fails the cell.
  Verdict strict = Verdict::kNone;
};

struct Workload {
  std::string name;
  std::vector<Cell> cells;
  /// sweep_warm: the timed phase serves every cell from a private cache.
  bool cached = false;
};

/// Builds the workload's cells.  Cell seeds are exp::derive_seed(seed, i).
/// `trace_path` is the absolute path of data/traces/cellular.trace.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::string& trace_path);

/// The cell a spec belongs to (collect callbacks see only the spec).
const Cell& cell_for(const Workload& w, const nimbus::exp::ScenarioSpec& s);

/// Scored values of a finished cell: {accuracy, elastic fraction,
/// protagonist throughput (Mbit/s), mean queueing delay (ms)}, all over
/// the post-warmup window.
nimbus::exp::CellResult collect_cell(const Cell& cell,
                                     nimbus::exp::ScenarioRun& run);

/// True if the cell failed: a watchdog trip or other invalid result, a
/// non-finite value, or a strict verdict that flipped.
bool cell_failed(const Cell& cell, const nimbus::exp::CellResult& r);

/// Mean scored accuracy over a sweep's cells (detect_accuracy).
double detect_accuracy(const std::vector<nimbus::exp::CellResult>& rs);

/// Order-independent digest of every cell's scored values (a sum of
/// per-cell hashes), so sweeps compare equal whatever order cells finish.
std::uint64_t sweep_digest(const Workload& w,
                           const std::vector<nimbus::exp::CellResult>& rs);

/// The watchdog every cell runs under.
nimbus::exp::RunBudget cell_budget();

}  // namespace perfbench
