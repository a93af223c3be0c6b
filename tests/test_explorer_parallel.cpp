// Replay-worker pool determinism: explore() with jobs=N must produce
// results bit-identical to jobs=1 — same interleaving count, same bugs at
// the same indices with the same reproducer schedules, same alerts —
// because outcomes are merged on the exploring thread in sequential DFS
// order regardless of which thread executed each replay. These tests run
// under ThreadSanitizer via the `concurrency` ctest label.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/decision_io.hpp"
#include "core/explorer.hpp"
#include "support/reference_enumerator.hpp"
#include "support/verify_helpers.hpp"
#include "workloads/matmult.hpp"
#include "workloads/patterns.hpp"

namespace dampi::test {
namespace {

using core::BugRecord;
using core::ClockMode;
using core::Explorer;
using core::ExplorerOptions;
using core::Schedule;
using mpism::Proc;

/// Everything the walk decides, in a comparable form. Deliberately
/// includes per-bug reproducer schedules (serialized as decision files)
/// and the dedup'd alert list in first-seen order.
struct ExploreFingerprint {
  std::uint64_t interleavings = 0;
  std::vector<std::string> bugs;
  std::vector<std::string> alerts;
  std::uint64_t prefix_mismatches = 0;

  friend bool operator==(const ExploreFingerprint&,
                         const ExploreFingerprint&) = default;
};

ExploreFingerprint fingerprint(const core::ExploreResult& result) {
  ExploreFingerprint fp;
  fp.interleavings = result.interleavings;
  for (const BugRecord& bug : result.bugs) {
    fp.bugs.push_back(
        std::to_string(static_cast<int>(bug.kind)) + "@" +
        std::to_string(bug.interleaving) + "\n" +
        core::serialize_schedule(bug.schedule));
  }
  fp.alerts = result.unsafe_alerts;
  fp.prefix_mismatches = result.prefix_mismatches;
  return fp;
}

ExploreFingerprint explore_with_jobs(ExplorerOptions options, int jobs,
                                     const mpism::ProgramFn& program,
                                     core::ExploreResult* out = nullptr) {
  options.jobs = jobs;
  Explorer explorer(options);
  auto result = explorer.explore(program);
  if (out != nullptr) *out = std::move(result);
  return out != nullptr ? fingerprint(*out) : fingerprint(result);
}

void expect_jobs_invariant(const ExplorerOptions& options,
                           const mpism::ProgramFn& program,
                           const char* what) {
  core::ExploreResult sequential;
  const auto base = explore_with_jobs(options, 1, program, &sequential);
  for (const int jobs : {2, 4}) {
    core::ExploreResult parallel;
    const auto fp = explore_with_jobs(options, jobs, program, &parallel);
    EXPECT_EQ(fp.interleavings, base.interleavings)
        << what << " jobs=" << jobs;
    EXPECT_EQ(fp.bugs, base.bugs) << what << " jobs=" << jobs;
    EXPECT_EQ(fp.alerts, base.alerts) << what << " jobs=" << jobs;
    EXPECT_EQ(fp.prefix_mismatches, base.prefix_mismatches)
        << what << " jobs=" << jobs;
    // Accounting closes: every run was executed exactly once, inline or
    // by a worker, and consumed runs match the interleaving count.
    const core::PoolStats& pool = parallel.pool;
    EXPECT_EQ(pool.jobs, jobs);
    EXPECT_EQ(pool.inline_runs + pool.speculative_hits,
              parallel.interleavings);
    EXPECT_EQ(pool.worker_runs, pool.speculative_hits +
                                    pool.speculative_waste);
    EXPECT_EQ(pool.run_wall_seconds.count(),
              pool.inline_runs + pool.worker_runs);
  }
  EXPECT_EQ(sequential.pool.jobs, 1);
  EXPECT_EQ(sequential.pool.worker_runs, 0u);
  EXPECT_EQ(sequential.pool.inline_runs, sequential.interleavings);
}

/// fig3 with the native race removed: rank 1's wildcard match depends on
/// which sender's eager message arrives before the receive posts, so a
/// bare fig3 exploration is not reproducible run to run (the bug is
/// sometimes hit natively in run 1). Holding the *receiver* back until
/// both sends are queued — named iprobes are not wildcard decisions —
/// hands the match to the deterministic lowest-source policy, giving the
/// byte-exact baseline the jobs comparison needs.
mpism::ProgramFn fig3_bug_determinized() {
  return [](Proc& p) {
    if (p.rank() == 1) {
      while (!(p.iprobe(0, 0) && p.iprobe(2, 0))) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    workloads::fig3_wildcard_bug(p);
  };
}

/// Deterministic buggy fan-in (3 ranks): both sends are queued before the
/// barrier, so the root's first wildcard receive always sees two
/// candidates and the lowest-source policy pins the self-run. The require
/// fires only when rank 2's message is matched first — reachable solely
/// through a replayed flip, at a byte-stable interleaving index.
mpism::ProgramFn ordered_fan_in_bug() {
  return [](Proc& p) {
    if (p.rank() == 0) {
      p.barrier();
      mpism::Bytes data;
      mpism::RequestId r1 = p.irecv(mpism::kAnySource, 0);
      p.wait(r1, &data);
      const int first = mpism::unpack<int>(data);
      mpism::RequestId r2 = p.irecv(mpism::kAnySource, 0);
      p.wait(r2, &data);
      p.require(first != 2, "fan-in: first == 2");
    } else if (p.rank() <= 2) {
      p.send(0, 0, mpism::pack<int>(p.rank()));
      p.barrier();
    } else {
      p.barrier();
    }
  };
}

TEST(ExplorerParallel, Fig3BuggyIsJobsInvariant) {
  expect_jobs_invariant(explorer_options(3), fig3_bug_determinized(),
                        "fig3-bug");
}

// The raw (natively racy) fig3 bug under several coop-random seeds, so
// the self-run's match varies: whatever it matched, every jobs value
// must find the bug, the reproducer must replay it, and the set of
// visited outcomes must match the sequential walk's guarantee. (Exact
// fingerprints are compared on the determinized variant above.)
TEST(ExplorerParallel, Fig3RawBugFoundAtEveryJobsValue) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    ExplorerOptions options = explorer_options(3);
    options.sched.pick = mpism::SchedPolicy::kRandomSeeded;
    options.sched.seed = seed;
    for (const int jobs : {1, 2, 4}) {
      ExplorerOptions opt = options;
      opt.jobs = jobs;
      std::set<OutcomeSignature> outcomes;
      Explorer explorer(opt);
      const auto result = explorer.explore(
          workloads::fig3_wildcard_bug,
          [&outcomes](const core::RunTrace& trace,
                      const mpism::RunReport& report, const Schedule&) {
            outcomes.insert(signature_of(trace, report));
          });
      ASSERT_TRUE(result.found_bug()) << "jobs=" << jobs;
      EXPECT_LE(result.interleavings, 2u) << "jobs=" << jobs;
      // Both reachable outcomes were visited regardless of jobs.
      EXPECT_EQ(outcomes.size(), result.interleavings) << "jobs=" << jobs;
      const auto rerun = run_dampi_once(options, result.bugs.back().schedule,
                                        workloads::fig3_wildcard_bug);
      ASSERT_FALSE(rerun.report.errors.empty()) << "jobs=" << jobs;
      EXPECT_NE(rerun.report.errors[0].message.find("x == 33"),
                std::string::npos)
          << "jobs=" << jobs;
    }
  }
}

TEST(ExplorerParallel, Fig3BenignIsJobsInvariant) {
  expect_jobs_invariant(explorer_options(3), workloads::fig3_benign,
                        "fig3-benign");
}

TEST(ExplorerParallel, Fig4CrossCoupledIsJobsInvariant) {
  ExplorerOptions options = explorer_options(4);
  options.clock_mode = ClockMode::kVector;  // richer interleaving space
  expect_jobs_invariant(options, workloads::fig4_cross_coupled, "fig4");
}

TEST(ExplorerParallel, MatmultIsJobsInvariant) {
  ExplorerOptions options = explorer_options(3);
  options.max_interleavings = 64;
  workloads::MatmultConfig config;
  config.n = 4;
  config.chunk_rows = 2;
  expect_jobs_invariant(
      options, [config](Proc& p) { workloads::matmult(p, config); },
      "matmult");
}

TEST(ExplorerParallel, MatmultWithMixingBoundIsJobsInvariant) {
  ExplorerOptions options = explorer_options(4);
  options.mixing_bound = 1;
  options.max_interleavings = 256;
  workloads::MatmultConfig config;
  config.n = 6;
  config.chunk_rows = 2;
  expect_jobs_invariant(
      options, [config](Proc& p) { workloads::matmult(p, config); },
      "matmult-k1");
}

TEST(ExplorerParallel, FanInWithMixingBoundIsJobsInvariant) {
  ExplorerOptions options = explorer_options(4);
  options.mixing_bound = 2;
  options.max_interleavings = 1u << 14;
  expect_jobs_invariant(
      options, [](Proc& p) { workloads::fan_in_rounds(p, 2); }, "fan-in-k2");
}

TEST(ExplorerParallel, StopOnFirstErrorIsJobsInvariant) {
  ExplorerOptions options = explorer_options(3);
  options.stop_on_first_error = true;
  expect_jobs_invariant(options, fig3_bug_determinized(),
                        "fig3-stop-first");

  // A bug reachable only through a replayed flip: the walk must cross
  // the deterministic self-run, flip, and stop at the same index no
  // matter how many workers were speculating ahead.
  ExplorerOptions fan = explorer_options(3);
  fan.stop_on_first_error = true;
  expect_jobs_invariant(fan, ordered_fan_in_bug(), "fan-in-stop-first");
}

// The raw buggy matmult under stop_on_first_error, under several
// coop-random seeds: the master's wildcard matches differ from seed to
// seed in the self-run, but every jobs value must still find the order
// bug and hand back a replaying reproducer.
TEST(ExplorerParallel, StopOnFirstErrorFindsRacyMatmultBug) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    ExplorerOptions options = explorer_options(3);
    options.sched.pick = mpism::SchedPolicy::kRandomSeeded;
    options.sched.seed = seed;
    options.stop_on_first_error = true;
    options.max_interleavings = 64;
    workloads::MatmultConfig config;
    config.n = 4;
    config.chunk_rows = 2;
    config.inject_order_bug = true;
    const auto program = [config](Proc& p) { workloads::matmult(p, config); };
    for (const int jobs : {1, 2, 4}) {
      ExplorerOptions opt = options;
      opt.jobs = jobs;
      Explorer explorer(opt);
      const auto result = explorer.explore(program);
      ASSERT_TRUE(result.found_bug()) << "jobs=" << jobs;
      const auto rerun =
          run_dampi_once(options, result.bugs.back().schedule, program);
      ASSERT_FALSE(rerun.report.errors.empty()) << "jobs=" << jobs;
      EXPECT_NE(rerun.report.errors[0].message.find("matmult:"),
                std::string::npos)
          << "jobs=" << jobs;
    }
  }
}

TEST(ExplorerParallel, InterleavingBudgetIsJobsInvariant) {
  ExplorerOptions options = explorer_options(4);
  options.max_interleavings = 5;
  workloads::MatmultConfig config;
  config.n = 4;
  config.chunk_rows = 1;
  const auto program = [config](Proc& p) { workloads::matmult(p, config); };
  for (const int jobs : {1, 4}) {
    core::ExploreResult result;
    explore_with_jobs(options, jobs, program, &result);
    EXPECT_EQ(result.interleavings, 5u) << "jobs=" << jobs;
    EXPECT_TRUE(result.interleaving_budget_exhausted) << "jobs=" << jobs;
    // The budget bounds *consumed* runs exactly; speculative overshoot is
    // only the in-flight work stranded by the early stop, which the
    // backlog cap keeps small.
    EXPECT_EQ(result.pool.inline_runs + result.pool.speculative_hits,
              result.interleavings);
    EXPECT_LE(result.pool.speculative_waste, 12u);  // backlog cap at jobs=4
  }
}

TEST(ExplorerParallel, RunStatsCallbackSeesEveryRun) {
  ExplorerOptions options = explorer_options(3);
  options.max_interleavings = 64;
  options.jobs = 4;
  std::atomic<std::uint64_t> callbacks{0};
  std::atomic<std::uint64_t> consumed{0};
  std::atomic<std::uint64_t> speculative{0};
  options.run_stats = [&](const core::RunStats& rs) {
    ++callbacks;
    if (rs.speculative) {
      ++speculative;
      EXPECT_EQ(rs.interleaving, 0u);
    } else if (rs.interleaving > 0) {
      ++consumed;
    }
  };
  workloads::MatmultConfig config;
  config.n = 4;
  config.chunk_rows = 2;
  Explorer explorer(options);
  const auto result = explorer.explore(
      [config](Proc& p) { workloads::matmult(p, config); });
  // Every consumed interleaving is announced under its deterministic
  // index; worker runs are additionally announced at completion.
  EXPECT_EQ(consumed.load(), result.interleavings);
  EXPECT_EQ(speculative.load(), result.pool.worker_runs);
  EXPECT_EQ(callbacks.load(),
            result.interleavings + result.pool.worker_runs);
}

// The exploring thread steals a queued speculation it needs immediately,
// so tiny pools never deadlock and saturated backlogs self-correct.
TEST(ExplorerParallel, DeepFanInWithTwoJobs) {
  ExplorerOptions options = explorer_options(4);
  options.max_interleavings = 1u << 12;
  const auto program = [](Proc& p) { workloads::fan_in_rounds(p, 2); };
  core::ExploreResult seq;
  explore_with_jobs(options, 1, program, &seq);
  core::ExploreResult par;
  explore_with_jobs(options, 2, program, &par);
  EXPECT_EQ(par.interleavings, seq.interleavings);
  EXPECT_GT(par.interleavings, 8u);  // a genuinely multi-run space
}

}  // namespace
}  // namespace dampi::test
