#include "core/verifier.hpp"

namespace dampi::core {

VerifyResult verify_campaign(const VerifyOptions& options,
                             const mpism::ProgramFn& program,
                             const Campaign& campaign) {
  VerifyResult result;

  if (options.measure_native) {
    // run_options_for carries the watchdog budgets and cancellation too:
    // a program that livelocks natively must not wedge the verifier
    // before exploration even starts.
    mpism::Runtime runtime(run_options_for(options.explorer));
    result.native_vtime_us = runtime.run(program).vtime_us;
  }

  result.exploration = campaign(options.explorer);

  result.instrumented_vtime_us = result.exploration.first_run_vtime_us;
  if (result.native_vtime_us > 0.0) {
    result.slowdown = result.instrumented_vtime_us / result.native_vtime_us;
  }
  result.comm_leaks = result.exploration.first_report.comm_leaks;
  result.request_leaks = result.exploration.first_report.request_leaks;
  for (const BugRecord& bug : result.exploration.bugs) {
    if (bug.kind == BugRecord::Kind::kDeadlock) result.deadlock_found = true;
    if (bug.kind == BugRecord::Kind::kError) result.error_found = true;
    if (bug.kind == BugRecord::Kind::kHang) result.hang_found = true;
  }
  return result;
}

VerifyResult Verifier::verify(const mpism::ProgramFn& program,
                              const Explorer::RunObserver& observer) {
  return verify_campaign(options_, program,
                         [&](const ExplorerOptions& explorer_options) {
                           return Explorer(explorer_options)
                               .explore(program, observer);
                         });
}

}  // namespace dampi::core
