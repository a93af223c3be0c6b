// Metrics of a benchmark run: the end-to-end figures of untraced
// campaigns, and the per-layer ledger of a traced run, taken from
// outside the library (timed public calls, run_stats timestamps,
// ExploreResult / PoolStats / DistResult fields, registry deltas).
#pragma once

#include <string>
#include <vector>

#include "campaign.hpp"
#include "workloads.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Side loops of a traced run, each sample one timed library call.
struct SideLedger {
  std::vector<double> build_us;     ///< mpism::Runtime constructor
  std::vector<double> run_us;       ///< Runtime::run, native (no tools)
  std::vector<double> teardown_us;  ///< Runtime destructor
  std::vector<double> native_us;    ///< the three together
  std::vector<double> guided_us;    ///< core::run_guided_once, discovery
  std::vector<double> split_ms;     ///< core::split_frontier (distributed)
  std::vector<double> save_ms;      ///< core::save_checkpoint (journalled)
  std::vector<double> load_ms;      ///< core::load_checkpoint (journalled)
  int attempted = 0;
  std::vector<std::string> failures;
};

/// Alternates native runs of the workload's program with guided
/// discovery replays until `budget_s` has passed (at least a few of
/// each), then times split_frontier of the discovery frontier for
/// distributed workloads.
SideLedger measure_side_loops(const Workload& workload, double budget_s);

/// Re-loads and re-saves the campaign's final journal `reps` times.
void measure_journal(const Workload& workload, const std::string& path,
                     int reps, SideLedger& side);

/// Largest resident set of this process and of its waited-for children.
double peak_rss_mb();

/// From untraced campaigns, each run in a process of its own;
/// `peak_rss` is the largest peak any of those processes reported.
std::vector<Metric> end_to_end_metrics(const std::vector<Campaign>& campaigns,
                                       double peak_rss);

std::vector<Metric> per_layer_metrics(const SideLedger& side,
                                      const std::vector<Campaign>& campaigns);

}  // namespace perfbench
