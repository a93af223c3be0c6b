// Verifier: the user-facing facade of DAMPI.
//
//   core::VerifyOptions options;
//   options.explorer.nprocs = 16;
//   core::Verifier verifier(options);
//   core::VerifyResult result = verifier.verify(program);
//
// Runs the program natively (for the overhead baseline), then explores
// the space of non-deterministic matches with the Explorer, and reports
// bugs (deadlocks, program failures) with reproducing schedules, local
// resource leaks (unfreed communicators, unfinished requests), R*, the
// instrumentation slowdown, and §V unsafe-pattern alerts.
#pragma once

#include <functional>

#include "core/explorer.hpp"
#include "core/options.hpp"

namespace dampi::core {

struct VerifyOptions {
  ExplorerOptions explorer;
  /// Run once without instrumentation to compute the slowdown (Table II).
  bool measure_native = true;
};

struct VerifyResult {
  ExploreResult exploration;

  /// Overhead of the instrumented first run vs the native run (virtual
  /// time), the paper's Table II "Slowdown" column.
  double native_vtime_us = 0.0;
  double instrumented_vtime_us = 0.0;
  double slowdown = 1.0;

  /// Leak findings from the first completed execution (Table II C-Leak /
  /// R-Leak columns).
  int comm_leaks = 0;
  std::uint64_t request_leaks = 0;

  bool deadlock_found = false;
  bool error_found = false;
  /// A run exceeded its per-run watchdog budget (possible livelock).
  bool hang_found = false;

  bool clean() const {
    return !deadlock_found && !error_found && !hang_found && comm_leaks == 0 &&
           request_leaks == 0;
  }
};

/// A campaign over the (already adjusted) exploration options: the
/// in-process Explorer walk, or a sharded one (dist::run_distributed).
using Campaign = std::function<ExploreResult(const ExplorerOptions&)>;

/// The one verify path of every front end (in-process, distributed,
/// ISP): the native baseline run when `options.measure_native`, then
/// `campaign`, summarized into slowdown, leak counts and verdict flags.
VerifyResult verify_campaign(const VerifyOptions& options,
                             const mpism::ProgramFn& program,
                             const Campaign& campaign);

class Verifier {
 public:
  explicit Verifier(VerifyOptions options) : options_(std::move(options)) {}

  VerifyResult verify(const mpism::ProgramFn& program,
                      const Explorer::RunObserver& observer = {});

 private:
  VerifyOptions options_;
};

}  // namespace dampi::core
