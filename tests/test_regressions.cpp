// Regression tests for concurrency bugs found and fixed during
// development. Each of these was originally a sub-1% flake between
// racing OS-thread ranks, so every test hammers its scenario in a loop,
// each iteration under its own coop-random dispatch seed (the
// round-robin default would make each loop one deterministic run
// repeated) — the native match order still varies from run to run.
#include <gtest/gtest.h>

#include <optional>
#include <set>

#include "isp/isp_verifier.hpp"
#include "support/reference_enumerator.hpp"
#include "support/run_helpers.hpp"
#include "support/verify_helpers.hpp"
#include "workloads/patterns.hpp"

namespace dampi::test {
namespace {

using mpism::pack;

core::ExplorerOptions seeded_explorer_options(int nprocs, int seed) {
  core::ExplorerOptions options = explorer_options(nprocs);
  options.sched.pick = mpism::SchedPolicy::kRandomSeeded;
  options.sched.seed = static_cast<std::uint64_t>(seed);
  return options;
}

// Regression: the telepathic transport once raced — a receiver could
// complete and look up the sender's clock before the sender's
// post-injection hook deposited it, silently losing the potential match
// (ISP then missed the wildcard-dependent deadlock ~1 run in 50). The
// fix deposits before the sender can yield, and take() checks it.
TEST(Regression, TelepathicTransportNeverLosesClocks) {
  for (int i = 0; i < 120; ++i) {
    isp::IspOptions options;
    options.explorer = seeded_explorer_options(3, i);
    options.measure_native = false;
    isp::IspVerifier verifier(options);
    const auto result = verifier.verify(workloads::wildcard_dependent_deadlock);
    ASSERT_TRUE(result.deadlock_found) << "iteration " << i;
  }
}

// Regression: alternatives discovered for a prefix epoch in later runs
// were once dropped, so when the initial self-run happened to take the
// "other" outcome first, part of the reachable space became unreachable.
// The fix merges newly revealed prefix alternatives (unbounded mode).
TEST(Regression, PrefixAlternativesMergedAcrossRuns) {
  // fig4 under vector clocks must reach all three outcomes from *either*
  // initial outcome; repeat to cover both initial timings.
  for (int i = 0; i < 60; ++i) {
    core::ExplorerOptions options = seeded_explorer_options(4, i);
    options.clock_mode = core::ClockMode::kVector;
    std::set<OutcomeSignature> seen;
    core::Explorer explorer(options);
    explorer.explore(workloads::fig4_cross_coupled,
                     [&seen](const core::RunTrace& trace,
                             const mpism::RunReport& report,
                             const core::Schedule&) {
                       seen.insert(signature_of(trace, report));
                     });
    ASSERT_EQ(seen.size(), 3u) << "iteration " << i;
  }
}

// Regression: an unreceived competitor's piggyback never impinged, so
// fig3's bug escaped whenever the benign match came first. The
// finalize-time drain (barrier + probe/receive leftovers) feeds the
// analysis.
TEST(Regression, UnreceivedCompetitorAlwaysAnalyzed) {
  for (int i = 0; i < 120; ++i) {
    core::ExplorerOptions options = seeded_explorer_options(3, i);
    core::Explorer explorer(options);
    const auto result = explorer.explore(workloads::fig3_wildcard_bug);
    ASSERT_TRUE(result.found_bug()) << "iteration " << i;
  }
}

// Regression: Explorer.Fig4LamportIncompleteVectorComplete flaked ~2%:
// it asserted the Lamport explorer misses an outcome on fig4, but what
// the Lamport explorer reaches depends on which matching the initial
// *native* self-run happens to observe (TSan-clean OS-scheduling
// nondeterminism: unpinned, 200 explorations produce outcome sets of
// size 1, 2, *or* 3). When the scheduler delivered a rare ordering the
// late-message analysis saw every alternative and the "incomplete"
// assertion failed. ExplorerOptions::initial_schedule now pins the
// discovery run; from the pinned canonical root the Lamport exploration
// is bit-identical on every repetition and strictly incomplete, while
// vector clocks reach every outcome from the same root.
TEST(Regression, Fig4ExplorationDeterministicFromPinnedRoot) {
  core::ExplorerOptions vec_options = explorer_options(4);
  vec_options.clock_mode = core::ClockMode::kVector;
  ReferenceEnumerator oracle(vec_options, workloads::fig4_cross_coupled);
  const auto reachable = oracle.enumerate();
  ASSERT_EQ(reachable.size(), 3u);

  core::Schedule canonical_first_run;
  canonical_first_run.forced[core::EpochKey{1, 0}] = 0;
  canonical_first_run.forced[core::EpochKey{2, 0}] = 3;

  std::optional<std::set<OutcomeSignature>> lam_first;
  for (int i = 0; i < 60; ++i) {
    core::ExplorerOptions options = seeded_explorer_options(4, i);
    options.clock_mode = core::ClockMode::kLamport;
    options.initial_schedule = canonical_first_run;
    const auto explored =
        explored_outcomes(options, workloads::fig4_cross_coupled);
    // The formerly flaky assertion, now expected on every repetition.
    ASSERT_LT(explored.size(), reachable.size()) << "iteration " << i;
    if (!lam_first.has_value()) {
      lam_first = explored;
    } else {
      ASSERT_EQ(explored, *lam_first) << "iteration " << i;
    }
    core::ExplorerOptions vec_pinned = seeded_explorer_options(4, i);
    vec_pinned.clock_mode = core::ClockMode::kVector;
    vec_pinned.initial_schedule = canonical_first_run;
    ASSERT_EQ(explored_outcomes(vec_pinned, workloads::fig4_cross_coupled),
              reachable)
        << "iteration " << i;
  }
}

// Regression: a deterministic program must always be exactly one
// interleaving, whatever the dispatch order (checks that raw tool traffic
// and the finalize barrier never masquerade as ND events).
TEST(Regression, DeterministicProgramsStayDeterministic) {
  for (int i = 0; i < 100; ++i) {
    core::ExplorerOptions options = seeded_explorer_options(4, i);
    core::Explorer explorer(options);
    const auto result = explorer.explore([](Proc& p) {
      const int next = (p.rank() + 1) % p.size();
      const int prev = (p.rank() + p.size() - 1) % p.size();
      mpism::RequestId r = p.irecv(prev, 1);
      p.send(next, 1, pack<int>(p.rank()));
      p.wait(r);
      p.barrier();
    });
    ASSERT_EQ(result.interleavings, 1u) << "iteration " << i;
    ASSERT_FALSE(result.found_bug());
  }
}

}  // namespace
}  // namespace dampi::test
