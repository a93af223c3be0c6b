// One whole verification campaign, timed from outside the library: the
// wall clock runs on the calling thread around the public entry point
// (core::Explorer::explore or dist::run_distributed), and every replay
// is seen through ExplorerOptions::run_stats.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/explorer.hpp"
#include "dist/coordinator.hpp"
#include "workloads.hpp"

namespace perfbench {

/// One run_stats callback of a traced campaign.
struct RunSample {
  double end_s = 0.0;   ///< callback time, seconds since the campaign call
  double wall_s = 0.0;  ///< RunStats::wall_seconds; 0 when a finished
                        ///< speculative run is re-announced on consumption
  std::size_t in_flight = 0;  ///< RunStats::runs_in_flight
};

/// Registry counters a traced campaign takes before/after deltas of.
const std::vector<std::string>& traced_counters();

struct Campaign {
  bool wide = false;    ///< full host width (else jobs 1, one process)
  bool traced = false;  ///< per-run samples and counter deltas recorded
  double wall_s = 0.0;   ///< campaign call to return
  double setup_s = 0.0;  ///< campaign call to the first completed run
  dampi::core::ExploreResult result;
  /// Empty when the result matched the workload's known answer.
  std::string mismatch;
  std::string verdict;  ///< perfbench::verdict of the result

  // Traced campaigns only.
  std::vector<RunSample> runs;
  std::map<std::string, std::uint64_t> counter_deltas;
  std::uint64_t journal_bytes = 0;  ///< final checkpoint file size
  dampi::dist::DistStats dist;
  std::vector<std::pair<int, std::string>> worker_metrics;
};

struct CampaignSetup {
  const Workload* workload = nullptr;
  int width = 1;  ///< jobs (in-process) or workers (distributed)
  /// Base argv of a distributed worker: this binary in worker mode.
  std::vector<std::string> worker_argv;
  /// Frontier journal of checkpointed workloads (inside the checkout).
  std::string journal_path;
};

Campaign run_campaign(const CampaignSetup& setup, bool wide, bool traced);

}  // namespace perfbench
