// Fault-sweep campaigns: inventory discovery, deterministic plan
// enumeration under a budget, per-plan verdict classification, the
// crash-safe journal, and the two acceptance contracts — report
// byte-identity at any worker count and kill-at-K + --resume
// reproducing the uninterrupted sweep without re-running finished
// plans.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "mpism/cancel.hpp"
#include "mpism/fault.hpp"
#include "support/run_helpers.hpp"
#include "support/verify_helpers.hpp"
#include "sweep/inventory.hpp"
#include "sweep/journal.hpp"
#include "sweep/sweep.hpp"
#include "sweep/types.hpp"
#include "workloads/patterns.hpp"

namespace dampi::test {
namespace {

using core::BugRecord;
using core::ExploreResult;
using sweep::OpInventory;
using sweep::PlanRecord;
using sweep::SweepJournal;
using sweep::SweepKinds;
using sweep::SweepOptions;
using sweep::SweepResult;
using sweep::Verdict;

mpism::SchedOptions sched_named(const char* spec) {
  mpism::SchedOptions sched;
  EXPECT_TRUE(mpism::parse_sched_spec(spec, &sched)) << spec;
  return sched;
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "dampi_sweep_" + name;
}

/// Sweep options pinned to the deterministic coop scheduler with tiny
/// budgets — the fixtures here explore in milliseconds.
SweepOptions sweep_options(int nprocs, const char* program_name) {
  SweepOptions options;
  options.explorer = explorer_options(nprocs);
  options.explorer.sched = sched_named("coop");
  options.program_name = program_name;
  options.plan_max_interleavings = 16;
  options.plan_wall_seconds = 60.0;
  return options;
}

// --- Verdict / kinds vocabulary --------------------------------------------

TEST(SweepTypes, VerdictNamesRoundTrip) {
  for (int v = 0; v < 6; ++v) {
    const Verdict verdict = static_cast<Verdict>(v);
    Verdict parsed;
    ASSERT_TRUE(sweep::parse_verdict(sweep::verdict_name(verdict), &parsed))
        << sweep::verdict_name(verdict);
    EXPECT_EQ(parsed, verdict);
  }
  Verdict parsed;
  EXPECT_FALSE(sweep::parse_verdict("nonsense", &parsed));
}

TEST(SweepTypes, KindsParseAndFormatCanonically) {
  SweepKinds kinds;
  std::string error;
  ASSERT_TRUE(sweep::parse_sweep_kinds("all", &kinds, &error)) << error;
  EXPECT_EQ(sweep::sweep_kinds_spec(kinds), "abort,delay,error,flaky");

  // Spelling order does not matter; the canonical spec is fixed-order.
  ASSERT_TRUE(sweep::parse_sweep_kinds("flaky,abort", &kinds, &error)) << error;
  EXPECT_TRUE(kinds.abort_);
  EXPECT_FALSE(kinds.error_);
  EXPECT_FALSE(kinds.delay_);
  EXPECT_TRUE(kinds.flaky_);
  EXPECT_EQ(sweep::sweep_kinds_spec(kinds), "abort,flaky");

  EXPECT_FALSE(sweep::parse_sweep_kinds("abort,explode", &kinds, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(sweep::parse_sweep_kinds("", &kinds, &error));
}

// --- Inventory harvest -----------------------------------------------------

TEST(SweepInventory, HarvestIsDeterministicUnderCoop) {
  core::ExplorerOptions options = explorer_options(3);
  options.sched = sched_named("coop");
  const OpInventory a = sweep::harvest_inventory(options, workloads::fig3_benign);
  const OpInventory b = sweep::harvest_inventory(options, workloads::fig3_benign);
  ASSERT_TRUE(a.error.empty()) << a.error;
  ASSERT_EQ(a.ops.size(), 3u);
  EXPECT_GT(a.total_ops(), 0u);
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_FALSE(a.baseline_deadlocked);
  EXPECT_FALSE(a.baseline_errored);
  // Every harvested op is one of the five hook kinds, and every rank
  // made at least one call in this fixture.
  for (const std::string& rank_ops : a.ops) {
    EXPECT_FALSE(rank_ops.empty());
    for (const char kind : rank_ops) {
      EXPECT_NE(std::string("srwpc").find(kind), std::string::npos)
          << rank_ops;
    }
  }
}

TEST(SweepInventory, DeadlockedBaselineIsReportedNotFatal) {
  // A program that is already buggy fault-free still yields the ops
  // counted up to the stop — valid injection coordinates — with the
  // baseline verdict flagged so the sweep does not attribute the
  // deadlock to every plan.
  core::ExplorerOptions options = explorer_options(2);
  const OpInventory inv =
      sweep::harvest_inventory(options, workloads::simple_deadlock);
  ASSERT_TRUE(inv.error.empty()) << inv.error;
  EXPECT_TRUE(inv.baseline_deadlocked);
  EXPECT_GT(inv.total_ops(), 0u);
}

TEST(SweepInventory, FaultAndResilienceHooksAreStrippedFromTheHarvest) {
  // The harvest must be fault-free even when the base options carry a
  // plan (the CLI rejects that combination, but the library API must
  // not silently inject during discovery).
  core::ExplorerOptions options = explorer_options(3);
  std::string error;
  options.fault = mpism::parse_fault_plan("abort@0:1", &error);
  ASSERT_NE(options.fault, nullptr) << error;
  const OpInventory inv =
      sweep::harvest_inventory(options, workloads::fig3_benign);
  ASSERT_TRUE(inv.error.empty()) << inv.error;
  EXPECT_FALSE(inv.baseline_errored);
  EXPECT_EQ(options.fault->total_fires(), 0u);
}

// --- Plan enumeration ------------------------------------------------------

OpInventory small_inventory() {
  OpInventory inv;
  inv.ops = {"sw", "rrw", "s"};  // 2 + 3 + 1 = 6 coordinates
  return inv;
}

TEST(SweepEnumerate, ExhaustiveFamiliesAreOpMajorAndComplete) {
  SweepOptions options;
  options.budget = 1000;
  options.kinds = SweepKinds{true, true, false, false};  // abort + error
  std::uint64_t planned = 0;
  const auto specs = sweep::enumerate_plans(small_inventory(), options, &planned);
  // Every coordinate appears once per family.
  EXPECT_EQ(planned, 12u);
  EXPECT_EQ(specs.size(), 12u);
  // Op-major: all op-1 points (across the three ranks) precede any op-2
  // point, so a small budget probes every rank's early calls first.
  EXPECT_EQ(specs[0], "abort@0:1");
  EXPECT_EQ(specs[1], "error@0:1");
  EXPECT_EQ(specs[2], "abort@1:1");
  EXPECT_EQ(specs[3], "error@1:1");
  EXPECT_EQ(specs[4], "abort@2:1");
  EXPECT_EQ(specs[5], "error@2:1");
  EXPECT_EQ(specs[6], "abort@0:2");
  // Rank 1 is the only rank with a third op.
  EXPECT_EQ(specs[10], "abort@1:3");
  EXPECT_EQ(specs[11], "error@1:3");
}

TEST(SweepEnumerate, SameSeedSameSpecsDifferentSeedUsuallyDiffers) {
  SweepOptions options;
  options.budget = 1000;
  options.seed = 42;
  const auto a = sweep::enumerate_plans(small_inventory(), options, nullptr);
  const auto b = sweep::enumerate_plans(small_inventory(), options, nullptr);
  EXPECT_EQ(a, b);
  options.seed = 43;
  const auto c = sweep::enumerate_plans(small_inventory(), options, nullptr);
  EXPECT_NE(a, c);  // 8 delay + 8 flaky draws over 6 coordinates
}

TEST(SweepEnumerate, BudgetTruncatesAndReportsPlannedCount) {
  SweepOptions options;
  options.budget = 5;
  std::uint64_t planned = 0;
  const auto specs = sweep::enumerate_plans(small_inventory(), options, &planned);
  EXPECT_EQ(specs.size(), 5u);
  EXPECT_GT(planned, 5u);
}

TEST(SweepEnumerate, KindsFilterAndDedupHold) {
  SweepOptions options;
  options.budget = 1000;
  options.kinds = SweepKinds{false, false, true, true};  // delay + flaky
  options.delay_samples = 64;
  options.flaky_samples = 64;
  const auto specs = sweep::enumerate_plans(small_inventory(), options, nullptr);
  ASSERT_FALSE(specs.empty());
  std::set<std::string> coords;
  for (const std::string& spec : specs) {
    const bool delay = spec.rfind("delay@", 0) == 0;
    const bool flaky = spec.rfind("flaky@", 0) == 0;
    EXPECT_TRUE(delay || flaky) << spec;
    // Dedup is by (kind, rank, op) — the coordinate without the
    // parameter value.
    const std::string coord = spec.substr(0, spec.rfind(':'));
    EXPECT_TRUE(coords.insert(coord).second) << "duplicate point " << spec;
  }
  // 64 draws over 6 coordinates saturate both families.
  EXPECT_EQ(specs.size(), 12u);
}

TEST(SweepEnumerate, EverySpecIsParseable) {
  SweepOptions options;
  options.budget = 1000;
  const auto specs = sweep::enumerate_plans(small_inventory(), options, nullptr);
  for (const std::string& spec : specs) {
    std::string error;
    EXPECT_NE(mpism::parse_fault_plan(spec, &error), nullptr)
        << spec << ": " << error;
  }
}

// --- Verdict classification ------------------------------------------------

ExploreResult result_with(BugRecord::Kind kind, const char* message) {
  ExploreResult result;
  result.interleavings = 3;
  BugRecord bug;
  bug.kind = kind;
  if (message != nullptr) bug.errors.push_back({0, message});
  result.bugs.push_back(bug);
  return result;
}

TEST(SweepClassify, VerdictPriorityAndLatentErrorDetection) {
  // Deadlock outranks everything.
  ExploreResult mixed = result_with(BugRecord::Kind::kDeadlock, nullptr);
  mixed.bugs.push_back(
      result_with(BugRecord::Kind::kError, "fault injected: abort").bugs[0]);
  EXPECT_EQ(sweep::classify_campaign(0, "abort@0:1", mixed, 1).verdict,
            Verdict::kDeadlock);

  EXPECT_EQ(sweep::classify_campaign(
                0, "abort@0:1", result_with(BugRecord::Kind::kHang, nullptr), 1)
                .verdict,
            Verdict::kHang);

  // An error that IS the injection: propagated, no latent bug.
  const PlanRecord propagated = sweep::classify_campaign(
      1, "abort@0:1",
      result_with(BugRecord::Kind::kError, "fault injected: abort@0:1"), 1);
  EXPECT_EQ(propagated.verdict, Verdict::kErrorPropagated);
  EXPECT_TRUE(propagated.latent_error.empty());

  // An error that is NOT the injection: the latent bug travels.
  const PlanRecord latent = sweep::classify_campaign(
      2, "delay@1:2:100",
      result_with(BugRecord::Kind::kError, "assertion failed: sum mismatch"),
      1);
  EXPECT_EQ(latent.verdict, Verdict::kErrorPropagated);
  EXPECT_EQ(latent.latent_error, "assertion failed: sum mismatch");

  // No bugs + fires: masked. No bugs + no fires: clean.
  ExploreResult quiet;
  quiet.interleavings = 4;
  EXPECT_EQ(sweep::classify_campaign(3, "flaky@0:1:2", quiet, 2).verdict,
            Verdict::kMasked);
  EXPECT_EQ(sweep::classify_campaign(4, "abort@2:9", quiet, 0).verdict,
            Verdict::kClean);

  // Budget exhaustion marks the campaign partial.
  quiet.interleaving_budget_exhausted = true;
  EXPECT_TRUE(sweep::classify_campaign(5, "abort@0:1", quiet, 0).partial);
}

TEST(SweepRespawn, TransientSpawnFailuresAreRetriedWithBackoff) {
  int calls = 0;
  std::uint64_t respawns = 0;
  std::string error;
  const ExploreResult result = sweep::run_plan_with_respawn(
      [&calls]() -> ExploreResult {
        if (++calls < 3) throw std::runtime_error("spawn failed");
        ExploreResult ok;
        ok.interleavings = 7;
        return ok;
      },
      3, 0.1, &respawns, &error);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(respawns, 2u);
  EXPECT_TRUE(error.empty()) << error;
  EXPECT_EQ(result.interleavings, 7u);
}

TEST(SweepRespawn, ExhaustedRespawnsFillTheErrorInsteadOfThrowing) {
  std::uint64_t respawns = 0;
  std::string error;
  const ExploreResult result = sweep::run_plan_with_respawn(
      []() -> ExploreResult { throw std::runtime_error("always down"); }, 1,
      0.1, &respawns, &error);
  EXPECT_EQ(respawns, 1u);
  EXPECT_EQ(error, "always down");
  EXPECT_EQ(result.interleavings, 0u);
}

// --- Journal ---------------------------------------------------------------

SweepJournal sample_journal() {
  SweepJournal journal;
  journal.fingerprint = "fp sweep budget=4";
  PlanRecord a;
  a.index = 0;
  a.spec = "abort@0:1";
  a.verdict = Verdict::kErrorPropagated;
  a.interleavings = 3;
  a.fires = 1;
  a.bugs = 1;
  journal.records[0] = a;
  PlanRecord b;
  b.index = 2;
  b.spec = "delay@1:2:100";
  b.verdict = Verdict::kErrorPropagated;
  b.interleavings = 5;
  b.fires = 1;
  b.bugs = 2;
  b.partial = true;
  b.latent_error = "assertion failed:\nsum mismatch";
  journal.records[2] = b;
  return journal;
}

TEST(SweepJournalTest, SerializeParseRoundTrip) {
  const SweepJournal journal = sample_journal();
  std::string error;
  const auto parsed = sweep::parse_sweep_journal(
      sweep::serialize_sweep_journal(journal), journal.fingerprint, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->fingerprint, journal.fingerprint);
  ASSERT_EQ(parsed->records.size(), 2u);
  const PlanRecord& a = parsed->records.at(0);
  EXPECT_EQ(a.spec, "abort@0:1");
  EXPECT_EQ(a.verdict, Verdict::kErrorPropagated);
  EXPECT_EQ(a.interleavings, 3u);
  EXPECT_EQ(a.fires, 1u);
  EXPECT_EQ(a.bugs, 1u);
  EXPECT_FALSE(a.partial);
  EXPECT_TRUE(a.latent_error.empty());
  EXPECT_TRUE(a.from_journal);
  const PlanRecord& b = parsed->records.at(2);
  EXPECT_EQ(b.spec, "delay@1:2:100");
  EXPECT_TRUE(b.partial);
  EXPECT_EQ(b.latent_error, "assertion failed:\nsum mismatch");
}

TEST(SweepJournalTest, LoadRefusesCorruptOrForeignFiles) {
  const std::string good = sweep::serialize_sweep_journal(sample_journal());
  std::string error;

  // Fingerprint from a different sweep configuration.
  EXPECT_FALSE(
      sweep::parse_sweep_journal(good, "other fingerprint", &error).has_value());
  EXPECT_NE(error.find("mismatch"), std::string::npos) << error;

  // Not a sweep journal at all.
  EXPECT_FALSE(sweep::parse_sweep_journal("# some other file\nend\n", "", &error)
                   .has_value());

  // Truncated (missing `end` trailer).
  const std::string truncated = good.substr(0, good.size() - 4);
  EXPECT_FALSE(sweep::parse_sweep_journal(truncated, "", &error).has_value());
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;

  // Duplicate plan index.
  std::string dup = good;
  const auto plan_at = dup.find("plan 0 ");
  ASSERT_NE(plan_at, std::string::npos);
  const auto line_end = dup.find('\n', plan_at);
  dup.insert(line_end + 1, dup.substr(plan_at, line_end + 1 - plan_at));
  EXPECT_FALSE(sweep::parse_sweep_journal(dup, "", &error).has_value());
  EXPECT_NE(error.find("duplicate"), std::string::npos) << error;

  // `latent` with no preceding plan line.
  EXPECT_FALSE(sweep::parse_sweep_journal(
                   std::string(sweep::kSweepJournalHeader) +
                       "\noptions fp\nlatent 0 boom\nend\n",
                   "", &error)
                   .has_value());
}

TEST(SweepJournalTest, SaveAndLoadThroughTheFilesystem) {
  const std::string path = temp_path("journal");
  std::remove(path.c_str());
  const SweepJournal journal = sample_journal();
  ASSERT_TRUE(sweep::save_sweep_journal(journal, path));
  std::string error;
  const auto loaded =
      sweep::load_sweep_journal(path, journal.fingerprint, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->records.size(), 2u);
  std::remove(path.c_str());
}

// --- Fingerprint -----------------------------------------------------------

TEST(SweepFingerprint, CoversPlanShapingKnobsAndIgnoresExecutionKnobs) {
  SweepOptions base = sweep_options(3, "fig3-benign");
  const std::string fp = sweep::sweep_fingerprint(base);

  SweepOptions changed = base;
  changed.budget = 7;
  EXPECT_NE(sweep::sweep_fingerprint(changed), fp);
  changed = base;
  changed.seed = 9;
  EXPECT_NE(sweep::sweep_fingerprint(changed), fp);
  changed = base;
  changed.kinds = SweepKinds{true, false, false, false};
  EXPECT_NE(sweep::sweep_fingerprint(changed), fp);
  changed = base;
  changed.plan_max_interleavings = 99;
  EXPECT_NE(sweep::sweep_fingerprint(changed), fp);
  changed = base;
  changed.program_name = "other";
  EXPECT_NE(sweep::sweep_fingerprint(changed), fp);

  // Worker count, journal knobs and respawn policy may change across a
  // resume without invalidating the journal.
  changed = base;
  changed.workers = 8;
  changed.journal_path = "/tmp/elsewhere";
  changed.resume = true;
  changed.max_plan_respawns = 9;
  changed.plan_wall_seconds = 1.0;
  EXPECT_EQ(sweep::sweep_fingerprint(changed), fp);
}

// --- Whole-sweep contracts -------------------------------------------------

TEST(Sweep, RejectsAPreInstalledFaultPlanAndBadResume) {
  SweepOptions options = sweep_options(3, "fig3-benign");
  std::string error;
  options.explorer.fault = mpism::parse_fault_plan("abort@0:1", &error);
  ASSERT_NE(options.explorer.fault, nullptr) << error;
  SweepResult result = sweep::run_sweep(options, workloads::fig3_benign);
  EXPECT_FALSE(result.error.empty());
  EXPECT_EQ(sweep::sweep_exit_code(result), 3);

  SweepOptions bad_resume = sweep_options(3, "fig3-benign");
  bad_resume.resume = true;  // no journal path
  result = sweep::run_sweep(bad_resume, workloads::fig3_benign);
  EXPECT_FALSE(result.error.empty());
  EXPECT_EQ(sweep::sweep_exit_code(result), 3);
}

TEST(Sweep, AbortPointsSurfaceAndDelayPointsAreMasked) {
  SweepOptions options = sweep_options(3, "fig3-benign");
  options.budget = 64;
  options.kinds = SweepKinds{true, false, true, false};  // abort + delay
  const SweepResult result = sweep::run_sweep(options, workloads::fig3_benign);
  ASSERT_TRUE(result.error.empty()) << result.error;
  ASSERT_FALSE(result.records.empty());
  EXPECT_EQ(result.executed, result.records.size());
  EXPECT_FALSE(result.interrupted);

  std::uint64_t aborts_surfaced = 0;
  for (const PlanRecord& record : result.records) {
    if (record.spec.rfind("abort@", 0) == 0) {
      // Killing an op either surfaces as an error or wedges the peers.
      EXPECT_TRUE(record.verdict == Verdict::kErrorPropagated ||
                  record.verdict == Verdict::kDeadlock)
          << record.spec << " -> " << sweep::verdict_name(record.verdict);
      EXPECT_GE(record.fires, 1u) << record.spec;
      ++aborts_surfaced;
    } else {
      // fig3-benign tolerates pure timing perturbation.
      EXPECT_EQ(record.verdict, Verdict::kMasked)
          << record.spec << " -> " << sweep::verdict_name(record.verdict);
    }
  }
  EXPECT_GT(aborts_surfaced, 0u);
  // Exit 1 is reserved for crash-tolerance BUGS (deadlock, hang, latent
  // error). A fault that merely propagates is the tolerant outcome, so
  // the code is 1 exactly when some peer wedged on the dead rank.
  bool any_deadlock = false;
  for (const PlanRecord& record : result.records) {
    any_deadlock = any_deadlock || record.verdict == Verdict::kDeadlock;
  }
  EXPECT_EQ(sweep::sweep_exit_code(result), any_deadlock ? 1 : 0);
}

TEST(Sweep, DeadlockVerdictsRaiseTheBugExitCode) {
  // The fixture deadlocks only under one wildcard outcome; campaigns
  // replay the full interleaving space, so the deadlock surfaces in the
  // matrix and the sweep exits 1 (crash-tolerance bug found).
  SweepOptions options = sweep_options(3, "wildcard-deadlock");
  options.budget = 8;
  options.kinds = SweepKinds{false, false, true, false};  // delay only
  options.delay_samples = 16;
  const SweepResult result =
      sweep::run_sweep(options, workloads::wildcard_dependent_deadlock);
  ASSERT_TRUE(result.error.empty()) << result.error;
  ASSERT_FALSE(result.records.empty());
  bool any_deadlock = false;
  for (const PlanRecord& record : result.records) {
    any_deadlock = any_deadlock || record.verdict == Verdict::kDeadlock;
  }
  EXPECT_TRUE(any_deadlock);
  EXPECT_EQ(sweep::sweep_exit_code(result), 1);
}

TEST(Sweep, FlakyPointsAreHealedByTheRetryPath) {
  SweepOptions options = sweep_options(3, "fig3-benign");
  options.kinds = SweepKinds{false, false, false, true};  // flaky only
  options.flaky_samples = 4;
  const SweepResult result = sweep::run_sweep(options, workloads::fig3_benign);
  ASSERT_TRUE(result.error.empty()) << result.error;
  ASSERT_FALSE(result.records.empty());
  for (const PlanRecord& record : result.records) {
    // The campaign is granted enough retries to burn the flaky cap, so
    // the fault fires and is then masked by the retry machinery.
    EXPECT_EQ(record.verdict, Verdict::kMasked)
        << record.spec << " -> " << sweep::verdict_name(record.verdict);
    EXPECT_GE(record.fires, 1u) << record.spec;
  }
  EXPECT_EQ(sweep::sweep_exit_code(result), 0);
}

TEST(Sweep, ReportIsByteIdenticalAtAnyWorkerCount) {
  SweepOptions options = sweep_options(3, "fig3-benign");
  options.budget = 24;
  options.seed = 7;
  const SweepResult one = sweep::run_sweep(options, workloads::fig3_benign);
  ASSERT_TRUE(one.error.empty()) << one.error;
  const std::string reference = sweep::format_sweep_report_json(options, one);
  EXPECT_NE(reference.find("\"plans\""), std::string::npos);

  for (const int workers : {2, 4}) {
    SweepOptions parallel = options;
    parallel.workers = workers;
    const SweepResult result =
        sweep::run_sweep(parallel, workloads::fig3_benign);
    ASSERT_TRUE(result.error.empty()) << result.error;
    EXPECT_EQ(sweep::format_sweep_report_json(parallel, result), reference)
        << "workers=" << workers;
  }
}

TEST(Sweep, KillAtKThenResumeReproducesTheUninterruptedReport) {
  const std::string journal_path = temp_path("kill_resume");
  std::remove(journal_path.c_str());

  SweepOptions options = sweep_options(3, "fig3-benign");
  options.budget = 12;
  options.seed = 3;

  // Reference: the uninterrupted sweep (no journal involved).
  const SweepResult reference = sweep::run_sweep(options, workloads::fig3_benign);
  ASSERT_TRUE(reference.error.empty()) << reference.error;
  const std::string reference_report =
      sweep::format_sweep_report_json(options, reference);
  ASSERT_GT(reference.records.size(), 3u);

  // Kill at K: cancel fires after the third completed plan, exactly as
  // the SIGINT bridge would.
  constexpr std::uint64_t kKill = 3;
  SweepOptions killed = options;
  killed.journal_path = journal_path;
  killed.cancel = std::make_shared<mpism::CancelSource>();
  std::uint64_t completed = 0;
  auto cancel = killed.cancel;
  killed.on_plan_done = [&completed, cancel](const PlanRecord&) {
    if (++completed == kKill) cancel->cancel("test kill");
  };
  const SweepResult interrupted =
      sweep::run_sweep(killed, workloads::fig3_benign);
  ASSERT_TRUE(interrupted.error.empty()) << interrupted.error;
  EXPECT_TRUE(interrupted.interrupted);
  EXPECT_EQ(interrupted.records.size(), kKill);
  EXPECT_EQ(sweep::sweep_exit_code(interrupted), 2);

  // Resume: completed plans come from the journal (provably not
  // re-executed — the executed/resumed counters split exactly) and the
  // final report is byte-identical to the uninterrupted run.
  SweepOptions resumed = options;
  resumed.journal_path = journal_path;
  resumed.resume = true;
  resumed.workers = 2;  // resume may change execution knobs freely
  const SweepResult finished = sweep::run_sweep(resumed, workloads::fig3_benign);
  ASSERT_TRUE(finished.error.empty()) << finished.error;
  EXPECT_FALSE(finished.interrupted);
  EXPECT_EQ(finished.resumed, kKill);
  EXPECT_EQ(finished.executed, reference.records.size() - kKill);
  EXPECT_EQ(finished.records.size(), reference.records.size());
  EXPECT_EQ(sweep::format_sweep_report_json(resumed, finished),
            reference_report);

  // Resuming a finished sweep re-runs nothing at all.
  const SweepResult idempotent =
      sweep::run_sweep(resumed, workloads::fig3_benign);
  ASSERT_TRUE(idempotent.error.empty()) << idempotent.error;
  EXPECT_EQ(idempotent.executed, 0u);
  EXPECT_EQ(idempotent.resumed, reference.records.size());
  EXPECT_EQ(sweep::format_sweep_report_json(resumed, idempotent),
            reference_report);
  std::remove(journal_path.c_str());
}

TEST(Sweep, ResumeRefusesAJournalFromADifferentSweep) {
  const std::string journal_path = temp_path("foreign");
  std::remove(journal_path.c_str());

  SweepOptions options = sweep_options(3, "fig3-benign");
  options.budget = 4;
  options.journal_path = journal_path;
  const SweepResult first = sweep::run_sweep(options, workloads::fig3_benign);
  ASSERT_TRUE(first.error.empty()) << first.error;

  SweepOptions other = options;
  other.seed = 99;  // different enumeration → different fingerprint
  other.resume = true;
  const SweepResult refused = sweep::run_sweep(other, workloads::fig3_benign);
  EXPECT_FALSE(refused.error.empty());
  EXPECT_NE(refused.error.find("mismatch"), std::string::npos) << refused.error;
  EXPECT_EQ(sweep::sweep_exit_code(refused), 3);
  std::remove(journal_path.c_str());
}

TEST(Sweep, SummaryCarriesTheMatrixAndTheResumeAccounting) {
  SweepOptions options = sweep_options(3, "fig3-benign");
  options.budget = 8;
  const SweepResult result = sweep::run_sweep(options, workloads::fig3_benign);
  ASSERT_TRUE(result.error.empty()) << result.error;
  const std::string summary = sweep::format_sweep_summary(options, result);
  EXPECT_NE(summary.find("fault sweep: fig3-benign"), std::string::npos)
      << summary;
  EXPECT_NE(summary.find("plans: 8 completed"), std::string::npos) << summary;
  EXPECT_NE(summary.find("8 executed, 0 resumed"), std::string::npos)
      << summary;
  EXPECT_EQ(summary.find("INTERRUPTED"), std::string::npos) << summary;
}

}  // namespace
}  // namespace dampi::test
