// Helpers for verifier-level tests: run a single DAMPI-instrumented
// execution under an explicit schedule (bypassing the explorer) and
// convenient option builders.
#pragma once

#include <utility>

#include "core/dampi_layer.hpp"
#include "core/explorer.hpp"
#include "core/verifier.hpp"
#include "piggyback/telepathic.hpp"

namespace dampi::test {

struct SingleRunResult {
  mpism::RunReport report;
  core::RunTrace trace;
};

/// Execute one instrumented run under `schedule` and return its trace.
inline SingleRunResult run_dampi_once(const core::ExplorerOptions& options,
                                      core::Schedule schedule,
                                      const mpism::ProgramFn& program) {
  auto sink = std::make_shared<core::TraceSink>();
  auto shared = std::make_shared<core::DampiShared>(options,
                                                    std::move(schedule), sink);
  std::shared_ptr<piggyback::TelepathicBoard> board;
  if (options.transport == piggyback::TransportKind::kTelepathic) {
    board = std::make_shared<piggyback::TelepathicBoard>();
  }
  mpism::RunOptions run_options;
  run_options.nprocs = options.nprocs;
  run_options.cost = options.cost;
  run_options.policy = options.policy;
  run_options.policy_seed = options.policy_seed;
  run_options.sched = options.sched;
  run_options.tools = core::make_dampi_setup(shared, board);
  SingleRunResult out;
  {
    mpism::Runtime runtime(std::move(run_options));
    out.report = runtime.run(program);
  }
  out.trace = sink->take();
  return out;
}

inline core::ExplorerOptions explorer_options(int nprocs) {
  core::ExplorerOptions options;
  options.nprocs = nprocs;
  return options;
}

/// Find the epoch with the given key; nullptr if absent.
inline const core::EpochRecord* find_epoch(const core::RunTrace& trace,
                                           int rank, std::uint64_t nd) {
  for (const auto& e : trace.epochs) {
    if (e.key.rank == rank && e.key.nd_index == nd) return &e;
  }
  return nullptr;
}

}  // namespace dampi::test
