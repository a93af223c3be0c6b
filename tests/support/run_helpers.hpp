// Shared helpers for tests: compact ways to run a program on N ranks.
#pragma once

#include <functional>

#include "mpism/engine.hpp"
#include "mpism/runtime.hpp"

namespace dampi::test {

using mpism::Proc;
using mpism::RunOptions;
using mpism::RunReport;
using mpism::Runtime;

/// Run `program` on `nprocs` ranks with default options.
inline RunReport run_program(int nprocs, const mpism::ProgramFn& program) {
  RunOptions opts;
  opts.nprocs = nprocs;
  Runtime runtime(opts);
  return runtime.run(program);
}

/// Run with explicit options.
inline RunReport run_program(RunOptions opts, const mpism::ProgramFn& program) {
  Runtime runtime(std::move(opts));
  return runtime.run(program);
}

}  // namespace dampi::test
