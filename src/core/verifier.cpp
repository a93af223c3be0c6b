#include "core/verifier.hpp"

namespace dampi::core {

VerifyResult Verifier::verify(const mpism::ProgramFn& program,
                              const Explorer::RunObserver& observer) {
  VerifyResult result;

  if (options_.measure_native) {
    mpism::RunOptions native;
    native.nprocs = options_.explorer.nprocs;
    native.cost = options_.explorer.cost;
    native.policy = options_.explorer.policy;
    native.policy_seed = options_.explorer.policy_seed;
    native.sched = options_.explorer.sched;
    // Watchdog budgets and external cancellation also guard the native
    // measurement run: a program that livelocks natively must not wedge
    // the verifier before exploration even starts.
    native.max_run_wall_seconds = options_.explorer.run_deadline_seconds;
    native.max_run_vtime_us = options_.explorer.max_run_vtime_us;
    native.max_ops = options_.explorer.max_run_ops;
    native.cancel = options_.explorer.cancel;
    mpism::Runtime runtime(std::move(native));
    const mpism::RunReport report = runtime.run(program);
    result.native_vtime_us = report.vtime_us;
  }

  Explorer explorer(options_.explorer);
  result.exploration = explorer.explore(program, observer);

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

}  // namespace dampi::core
