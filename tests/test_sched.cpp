// The cooperative run-to-block scheduler (ctest label `sched`):
//
//  - determinism: the RunReport and the full exploration result are
//    bit-identical across repetitions and across every replay-pool
//    width, with no initial_schedule pinning;
//  - differential: every coop policy (round-robin, seeded-random,
//    seeded-priority) visits the same *outcome set* on the paper's
//    Fig. 3 / Fig. 4 patterns, equal to the brute-force reachability
//    oracle;
//  - deadlock: the scheduler's stall scan reports genuine deadlocks and
//    never flags a runnable-but-unscheduled rank at large nprocs;
//  - scale: a 512-rank wavefront verification completes on one host
//    thread (ranks are fibers, not OS threads).
//
// Fingerprints deliberately exclude wall-clock fields (wall_seconds,
// total_wall_seconds) and the replay-pool counters: speculation timing
// is host-dependent by design while everything else must not be.
// Doubles print as %a so "bit-identical" means bit-identical.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <thread>

#include "common/strutil.hpp"
#include "core/explorer.hpp"
#include "obs/metrics.hpp"
#include "support/reference_enumerator.hpp"
#include "support/run_helpers.hpp"
#include "support/verify_helpers.hpp"
#include "workloads/patterns.hpp"
#include "workloads/wavefront.hpp"

namespace dampi::test {
namespace {

using dampi::strfmt;
using mpism::Bytes;
using mpism::pack;
using mpism::unpack;

mpism::SchedOptions coop(
    mpism::SchedPolicy pick = mpism::SchedPolicy::kRoundRobin,
    std::uint64_t seed = 1) {
  mpism::SchedOptions sched;
  sched.pick = pick;
  sched.seed = seed;
  return sched;
}

mpism::RunOptions run_options(int nprocs, const mpism::SchedOptions& sched) {
  mpism::RunOptions options;
  options.nprocs = nprocs;
  options.sched = sched;
  return options;
}

/// Every deterministic field of a RunReport, doubles in %a hex form.
/// wall_seconds is the one field that is *supposed* to vary.
std::string fingerprint(const mpism::RunReport& r) {
  std::string s = strfmt(
      "completed=%d deadlocked=%d vtime=%a comm_leaks=%d req_leaks=%llu "
      "msgs=%llu tool_msgs=%llu",
      r.completed ? 1 : 0, r.deadlocked ? 1 : 0, r.vtime_us, r.comm_leaks,
      static_cast<unsigned long long>(r.request_leaks),
      static_cast<unsigned long long>(r.messages_sent),
      static_cast<unsigned long long>(r.stats.tool_messages));
  s += "\ndeadlock_detail=" + r.deadlock_detail;
  for (const auto& e : r.errors) {
    s += strfmt("\nerror rank=%d ", e.rank) + e.message;
  }
  for (std::size_t c = 0; c < mpism::OpStats::kNumCategories; ++c) {
    s += strfmt("\ncat%zu:", c);
    for (const auto v : r.stats.counts[c]) {
      s += strfmt(" %llu", static_cast<unsigned long long>(v));
    }
  }
  return s;
}

std::string fingerprint(const core::Schedule& schedule) {
  std::string s;
  for (const auto& [key, src] : schedule.forced) {
    s += strfmt("(%d,%llu)->%d ", key.rank,
                static_cast<unsigned long long>(key.nd_index), src);
  }
  return s;
}

/// Everything an exploration decides, excluding wall time and pool
/// scheduling counters (both timing-dependent by design).
std::string fingerprint(const core::ExploreResult& r) {
  std::string s = strfmt(
      "interleavings=%llu recv_epochs=%llu probe_epochs=%llu pm=%llu "
      "first_vtime=%a total_vtime=%a div=%llu prefix=%llu budget=%d%d",
      static_cast<unsigned long long>(r.interleavings),
      static_cast<unsigned long long>(r.wildcard_recv_epochs),
      static_cast<unsigned long long>(r.wildcard_probe_epochs),
      static_cast<unsigned long long>(r.potential_matches_first_run),
      r.first_run_vtime_us, r.total_vtime_us,
      static_cast<unsigned long long>(r.divergences),
      static_cast<unsigned long long>(r.prefix_mismatches),
      r.interleaving_budget_exhausted ? 1 : 0,
      r.time_budget_exhausted ? 1 : 0);
  s += "\nfirst: " + fingerprint(r.first_report);
  for (const auto& b : r.bugs) {
    s += strfmt("\nbug kind=%d run=%llu sched=", static_cast<int>(b.kind),
                static_cast<unsigned long long>(b.interleaving));
    s += fingerprint(b.schedule);
    s += " detail=" + b.deadlock_detail;
    for (const auto& e : b.errors) {
      s += strfmt(" [rank=%d %s]", e.rank, e.message.c_str());
    }
  }
  for (const auto& a : r.unsafe_alerts) s += "\nalert: " + a;
  return s;
}

/// 64-bit FNV-1a over a fingerprint stream, printed as 16 hex digits:
/// a compact pin for fingerprints too long to spell out in a test.
class Digest {
 public:
  Digest& bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ull;
    }
    return *this;
  }
  Digest& text(const std::string& s) { return bytes(s.data(), s.size()); }
  Digest& num(std::uint64_t v) { return bytes(&v, sizeof(v)); }
  std::string hex() const {
    return strfmt("%016llx", static_cast<unsigned long long>(h_));
  }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// Everything the explorer reads from a discovery trace, in canonical
/// trace order: key, clocks, the matched send, and every alternative.
std::string trace_digest(const core::RunTrace& trace) {
  Digest d;
  for (const core::EpochRecord* e : trace.sorted()) {
    d.num(static_cast<std::uint64_t>(e->key.rank))
        .num(e->key.nd_index)
        .num(e->lc)
        .num(static_cast<std::uint64_t>(e->matched_src_world))
        .num(e->matched_seq)
        .num(e->alternatives.size());
    for (const auto& [src, match] : e->alternatives) {
      d.num(static_cast<std::uint64_t>(src))
          .num(match.seq)
          .num(static_cast<std::uint64_t>(match.tag));
    }
    d.num(e->vc.size());
    for (const auto v : e->vc) d.num(v);
  }
  return d.hex();
}

TEST(SchedSpec, ParseAndFormatRoundTrip) {
  for (const char* spec :
       {"coop", "coop-rr", "coop-random", "coop-priority"}) {
    mpism::SchedOptions options;
    ASSERT_TRUE(mpism::parse_sched_spec(spec, &options)) << spec;
    // "coop" is shorthand for round-robin; it formats canonically.
    const std::string canonical =
        std::string(spec) == "coop" ? "coop-rr" : spec;
    EXPECT_EQ(mpism::sched_spec(options), canonical);
    // Round trip: parse(format(x)) == x.
    mpism::SchedOptions reparsed;
    ASSERT_TRUE(mpism::parse_sched_spec(mpism::sched_spec(options), &reparsed));
    EXPECT_EQ(reparsed.pick, options.pick);
  }
  mpism::SchedOptions untouched;
  untouched.seed = 99;
  EXPECT_FALSE(mpism::parse_sched_spec("fifo", &untouched));
  // The thread-per-rank scheduler is gone; its spec is a parse error.
  EXPECT_FALSE(mpism::parse_sched_spec("thread", &untouched));
  EXPECT_FALSE(mpism::parse_sched_spec("", &untouched));
  EXPECT_EQ(untouched.seed, 99u);  // failed parse leaves *out alone
}

// Acceptance bar: same seed => bit-identical RunReport, 100/100, with
// no initial_schedule pinning anywhere. The wavefront's wildcard
// receives make this genuinely scheduling-sensitive — under preemptive
// threads the match order (and hence message/stat details) would vary
// run to run; under coop it must not.
TEST(SchedDeterminism, RunReportBitIdentical100x) {
  const auto program = [](Proc& p) {
    workloads::WavefrontConfig config;
    config.sweeps = 2;
    workloads::wavefront(p, config);
  };
  for (const auto& sched :
       {coop(mpism::SchedPolicy::kRoundRobin),
        coop(mpism::SchedPolicy::kRandomSeeded, 42),
        coop(mpism::SchedPolicy::kPriority, 7)}) {
    std::optional<std::string> first;
    for (int i = 0; i < 100; ++i) {
      const auto report = run_program(run_options(8, sched), program);
      ASSERT_TRUE(report.ok()) << report.deadlock_detail;
      const std::string fp = fingerprint(report);
      if (!first.has_value()) {
        first = fp;
      } else {
        ASSERT_EQ(fp, *first)
            << mpism::sched_spec(sched) << " diverged at repetition " << i;
      }
    }
  }
}

// Different seeds must be *able* to produce different interleavings —
// otherwise the seeded policies are decoration and the explorer's
// diversity claim is hollow. (Round-robin ignores the seed by design.)
// Observed through a wildcard fan-in: whichever sender the seeded pick
// order lets arrive first is the one rank 0's first wildcard matches.
TEST(SchedDeterminism, SeedActuallySteersRandomPolicy) {
  std::set<int> first_sources;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    int first_src = -1;
    const auto report = run_program(
        run_options(8, coop(mpism::SchedPolicy::kRandomSeeded, seed)),
        [&first_src](Proc& p) {
          if (p.rank() == 0) {
            Bytes data;
            p.recv(mpism::kAnySource, 5, &data);
            first_src = unpack<int>(data);
            for (int i = 0; i < p.size() - 2; ++i) {
              p.recv(mpism::kAnySource, 5);
            }
          } else {
            p.send(0, 5, pack<int>(p.rank()));
          }
        });
    ASSERT_TRUE(report.ok());
    // And per seed the pick is stable: a second run must reproduce it.
    int again = -1;
    run_program(run_options(8, coop(mpism::SchedPolicy::kRandomSeeded, seed)),
                [&again](Proc& p) {
                  if (p.rank() == 0) {
                    Bytes data;
                    p.recv(mpism::kAnySource, 5, &data);
                    again = unpack<int>(data);
                    for (int i = 0; i < p.size() - 2; ++i) {
                      p.recv(mpism::kAnySource, 5);
                    }
                  } else {
                    p.send(0, 5, pack<int>(p.rank()));
                  }
                });
    ASSERT_EQ(again, first_src) << "seed " << seed;
    first_sources.insert(first_src);
  }
  EXPECT_GT(first_sources.size(), 1u);
}

// Full exploration (discovery run + DFS + replay pool) is bit-identical
// across repetitions and across every --jobs width under coop, with no
// pinning. 100 repetitions total, split across pool widths.
TEST(SchedDeterminism, ExplorationBitIdenticalAcrossJobs100x) {
  std::optional<std::string> first;
  for (const int jobs : {1, 4}) {
    for (int i = 0; i < 50; ++i) {
      core::ExplorerOptions options = explorer_options(3);
      options.sched = coop();
      options.jobs = jobs;
      core::Explorer explorer(options);
      const auto result = explorer.explore(workloads::fig3_wildcard_bug);
      ASSERT_TRUE(result.found_bug());
      const std::string fp = fingerprint(result);
      if (!first.has_value()) {
        first = fp;
      } else {
        ASSERT_EQ(fp, *first)
            << "jobs=" << jobs << " diverged at repetition " << i;
      }
    }
  }
}

// Differential: the coop policies drive different native match orders
// but must visit the same outcome *set*, and that set must equal the
// brute-force reachability oracle (which forces every epoch, so it is
// scheduler-independent). The seeded policies draw from the whole
// eligible candidate set, a dispatch path round-robin (which walks
// cyclically from its cursor) never takes.
void expect_every_scheduler_reaches(const core::ExplorerOptions& options,
                                    const mpism::ProgramFn& program,
                                    std::size_t reachable_count) {
  const auto reachable = ReferenceEnumerator(options, program).enumerate();
  ASSERT_EQ(reachable.size(), reachable_count);
  for (const auto& sched :
       {coop(), coop(mpism::SchedPolicy::kRandomSeeded, 42),
        coop(mpism::SchedPolicy::kPriority, 7),
        coop(mpism::SchedPolicy::kRandomSeeded, 5)}) {
    core::ExplorerOptions sched_options = options;
    sched_options.sched = sched;
    EXPECT_EQ(explored_outcomes(sched_options, program), reachable)
        << mpism::sched_spec(sched);
  }
}

TEST(SchedDifferential, DispatchPoliciesMatchOracleOnFig3) {
  expect_every_scheduler_reaches(explorer_options(3), workloads::fig3_benign,
                                 2);
}

TEST(SchedDifferential, DispatchPoliciesMatchOracleOnFig4VectorClocks) {
  core::ExplorerOptions options = explorer_options(4);
  options.clock_mode = core::ClockMode::kVector;
  expect_every_scheduler_reaches(options, workloads::fig4_cross_coupled, 3);
}

// The initial_schedule pin was introduced for preemptively scheduled
// discovery runs, which raced (see
// Regression.Fig4ExplorationDeterministicFromPinnedRoot). Under coop
// the pin is optional: pinned and unpinned explorations must agree on
// the outcome set, and the pin must still be honored exactly when
// supplied.
TEST(SchedPin, Fig4PinOptionalUnderCoop) {
  core::Schedule canonical_first_run;
  canonical_first_run.forced[core::EpochKey{1, 0}] = 0;
  canonical_first_run.forced[core::EpochKey{2, 0}] = 3;

  core::ExplorerOptions unpinned = explorer_options(4);
  unpinned.clock_mode = core::ClockMode::kVector;
  unpinned.sched = coop();
  std::optional<std::set<OutcomeSignature>> baseline;
  for (int i = 0; i < 10; ++i) {
    const auto outcomes =
        explored_outcomes(unpinned, workloads::fig4_cross_coupled);
    if (!baseline.has_value()) {
      baseline = outcomes;
    } else {
      ASSERT_EQ(outcomes, *baseline) << "unpinned coop run " << i;
    }
  }
  ASSERT_EQ(baseline->size(), 3u);

  core::ExplorerOptions pinned = unpinned;
  pinned.initial_schedule = canonical_first_run;
  EXPECT_EQ(explored_outcomes(pinned, workloads::fig4_cross_coupled),
            *baseline);

  // The pin is honored exactly: the forced decisions appear verbatim in
  // the discovery run's trace.
  const auto single = run_dampi_once(pinned, canonical_first_run,
                                     workloads::fig4_cross_coupled);
  for (const auto& [key, src] : canonical_first_run.forced) {
    const auto* epoch = find_epoch(single.trace, key.rank, key.nd_index);
    ASSERT_NE(epoch, nullptr);
    EXPECT_EQ(epoch->matched_src_world, src);
  }
}

// The deadlock-detector satellite: a runnable-but-unscheduled fiber is
// neither blocked nor finished, so the engine's count-based criterion
// ("blocked + finished == nprocs") would fire falsely the moment the
// running rank blocks while hundreds of peers wait for their first
// dispatch. The scheduler's stall scan must not.
TEST(SchedDeadlock, NoFalseDeadlockAtLargeNprocs) {
  // Root blocks in its first wildcard receive while most of the other
  // 127 ranks have not run at all — the false-positive shape.
  const auto report = run_program(
      run_options(128, coop()),
      [](Proc& p) { workloads::fan_in_rounds(p, 2); });
  EXPECT_TRUE(report.ok()) << report.deadlock_detail;
}

TEST(SchedDeadlock, GenuineDeadlocksStillDetected) {
  for (const auto& sched :
       {coop(mpism::SchedPolicy::kRoundRobin),
        coop(mpism::SchedPolicy::kRandomSeeded, 3)}) {
    const auto report =
        run_program(run_options(2, sched), workloads::simple_deadlock);
    EXPECT_TRUE(report.deadlocked) << mpism::sched_spec(sched);
    EXPECT_FALSE(report.deadlock_detail.empty());
    EXPECT_FALSE(report.completed);
  }
  // And through the full verification stack: the wildcard-dependent
  // deadlock is still found by exploration under coop.
  core::ExplorerOptions options = explorer_options(3);
  options.sched = coop();
  core::Explorer explorer(options);
  const auto result = explorer.explore(workloads::wildcard_dependent_deadlock);
  ASSERT_TRUE(result.found_bug());
  EXPECT_EQ(result.bugs.back().kind, core::BugRecord::Kind::kDeadlock);
}

// Non-blocking polls are yield points: a rank spinning on test() must
// cede the host or the sender it is waiting for never runs.
TEST(SchedYield, TestPollLoopCompletesUnderCoop) {
  const auto report = run_program(run_options(2, coop()), [](Proc& p) {
    if (p.rank() == 0) {
      const auto req = p.irecv(1, 7);
      Bytes data;
      int polls = 0;
      while (!p.test(req, nullptr, &data)) {
        p.require(++polls < 1000000, "poll cap hit: sender starved");
      }
      p.require(unpack<int>(data) == 42, "payload mangled");
      // iprobe misses must yield too (empty queue: nothing sent on tag 9).
      p.require(!p.iprobe(1, 9), "phantom message");
    } else {
      p.compute(50.0);
      p.send(0, 7, pack<int>(42));
    }
  });
  EXPECT_TRUE(report.ok()) << report.deadlock_detail;
}

// Acceptance bar: a 512-rank wavefront completes a verification run
// under --sched=coop. All 512 ranks are fibers on the exploring thread
// (jobs=1), so this exercises single-core scheduling at a rank count a
// thread-per-rank engine would need 512 OS threads for.
TEST(SchedScale, Wavefront512RankVerificationCompletes) {
  core::ExplorerOptions options = explorer_options(512);
  options.sched = coop();
  options.max_interleavings = 2;  // discovery + one guided replay
  core::Explorer explorer(options);
  const auto result = explorer.explore([](Proc& p) {
    workloads::WavefrontConfig config;
    config.sweeps = 1;
    workloads::wavefront(p, config);
  });
  EXPECT_TRUE(result.first_report.completed)
      << result.first_report.deadlock_detail;
  EXPECT_TRUE(result.bugs.empty());
  EXPECT_GE(result.interleavings, 1u);
  EXPECT_GT(result.wildcard_recv_epochs, 0u);
}

// Golden pins for the coop round-robin dispatch order. Any change to
// how the dispatcher picks the next rank — even one that still passes
// every determinism test above — shifts these digests: each fingerprint
// records the exact match order a 100+-rank native run produced. A
// change to the dispatcher's *cost* must leave them untouched.
TEST(SchedGolden, FanInRounds128RankReport) {
  const auto report =
      run_program(run_options(128, coop()),
                  [](Proc& p) { workloads::fan_in_rounds(p, 2); });
  ASSERT_TRUE(report.ok()) << report.deadlock_detail;
  EXPECT_EQ(Digest().text(fingerprint(report)).hex(), "206af6f4b6177695");
}

// The seeded policies draw from the whole eligible set rather than
// walking from a cursor; their picks are pinned the same way.
TEST(SchedGolden, Wavefront64RankReportSeededPolicies) {
  const struct {
    mpism::SchedOptions sched;
    const char* digest;
  } cases[] = {
      {coop(mpism::SchedPolicy::kRandomSeeded, 42), "eae7a512d6b53a6b"},
      {coop(mpism::SchedPolicy::kPriority, 7), "f4ef1e3b56736cf5"},
  };
  for (const auto& c : cases) {
    const auto report = run_program(run_options(64, c.sched), [](Proc& p) {
      workloads::wavefront(p, workloads::WavefrontConfig{});
    });
    ASSERT_TRUE(report.ok()) << report.deadlock_detail;
    EXPECT_EQ(Digest().text(fingerprint(report)).hex(), c.digest)
        << mpism::sched_spec(c.sched);
  }
}

/// Collective-heavy native program: per round an allreduce, a bcast, a
/// comm_split into four strided groups, a barrier, an allgather and a
/// wildcard fan-in inside each group, then a comm_free. The group root
/// charges virtual time by matched source, so the report's vtime
/// records the order the dispatcher let the senders in.
void collective_rounds(Proc& p) {
  for (int round = 0; round < 3; ++round) {
    const std::uint64_t sum = p.allreduce_u64(
        static_cast<std::uint64_t>(p.rank() + round), mpism::ReduceOp::kSumU64);
    Bytes word = p.rank() == round ? pack<std::uint64_t>(sum) : Bytes{};
    p.bcast(&word, round);
    p.require(unpack<std::uint64_t>(word) == sum, "bcast mangled");
    const mpism::CommId group = p.comm_split(p.rank() % 4, p.size() - p.rank());
    p.barrier(group);
    const auto members = p.allgather(pack<int>(p.rank()), group);
    p.require(static_cast<int>(members.size()) == p.comm_size(group),
              "allgather size");
    if (p.comm_rank(group) == 0) {
      for (int i = 1; i < p.comm_size(group); ++i) {
        const mpism::Status st =
            p.recv(mpism::kAnySource, round, nullptr, group);
        p.compute(static_cast<double>(i * (st.source + 1)));
      }
    } else {
      p.send(0, round, pack<int>(p.rank()), group);
    }
    p.comm_free(group);
  }
  p.barrier();
}

TEST(SchedGolden, CollectiveRounds64RankReport) {
  const auto report = run_program(run_options(64, coop()), collective_rounds);
  ASSERT_TRUE(report.ok()) << report.deadlock_detail;
  EXPECT_EQ(Digest().text(fingerprint(report)).hex(), "2dfed77da7c8dda3");
}

// The discovery run of a 512-rank one-sweep wavefront under vector
// clocks: every epoch's key, clocks, outcome and alternatives.
TEST(SchedGolden, Wavefront512DiscoveryTrace) {
  core::ExplorerOptions options = explorer_options(512);
  options.sched = coop();
  options.clock_mode = core::ClockMode::kVector;
  const auto single = run_dampi_once(options, {}, [](Proc& p) {
    workloads::WavefrontConfig config;
    config.sweeps = 1;
    workloads::wavefront(p, config);
  });
  ASSERT_TRUE(single.report.ok()) << single.report.deadlock_detail;
  ASSERT_FALSE(single.trace.epochs.empty());
  EXPECT_EQ(trace_digest(single.trace), "3c955bb05d78022d");
}

// Dispatch cost: round-robin walks from its cursor and stops at the
// first runnable rank, so across a whole DAMPI-instrumented 512-rank
// replay the dispatcher evaluates fewer wake predicates than it makes
// switches (a full scan per dispatch costs hundreds per switch here:
// the init comm_dup and the finalize barriers wake every rank at once).
TEST(SchedCost, WakeProbesBoundedBySwitchesAt512Ranks) {
  auto& registry = obs::Registry::instance();
  obs::Counter& switches = registry.counter("scheduler.switches");
  obs::Counter& probes = registry.counter("scheduler.wake_probes");
  const std::uint64_t switches_before = switches.value();
  const std::uint64_t probes_before = probes.value();

  core::ExplorerOptions options = explorer_options(512);
  options.sched = coop();
  options.clock_mode = core::ClockMode::kVector;
  const auto single = run_dampi_once(options, {}, [](Proc& p) {
    workloads::wavefront(p, workloads::WavefrontConfig{});
  });
  ASSERT_TRUE(single.report.ok()) << single.report.deadlock_detail;

  const std::uint64_t run_switches = switches.value() - switches_before;
  const std::uint64_t run_probes = probes.value() - probes_before;
  EXPECT_GE(run_switches, 512u);
  EXPECT_LE(run_probes, run_switches);
}

// Fiber stacks outlive the scheduler that used them: a 512-rank run on
// a fresh thread allocates one stack per rank, and a second run on the
// same thread takes all of them from that thread's cache.
TEST(SchedCost, SecondRunOnAThreadAllocatesNoFiberStacks) {
  obs::Counter& stacks =
      obs::Registry::instance().counter("scheduler.stacks_allocated");
  RunOptions opts;
  opts.nprocs = 512;
  opts.sched = coop();
  const auto program = [](Proc& p) {
    workloads::wavefront(p, workloads::WavefrontConfig{});
  };
  std::uint64_t first = 0;
  std::uint64_t second = 0;
  std::thread runner([&] {
    const std::uint64_t before_first = stacks.value();
    const RunReport first_report = run_program(opts, program);
    first = stacks.value() - before_first;
    const std::uint64_t before_second = stacks.value();
    const RunReport second_report = run_program(opts, program);
    second = stacks.value() - before_second;
    EXPECT_TRUE(first_report.ok()) << first_report.deadlock_detail;
    EXPECT_TRUE(second_report.ok()) << second_report.deadlock_detail;
  });
  runner.join();
  EXPECT_EQ(first, 512u);
  EXPECT_EQ(second, 0u);
}

// The request pool starts small: on a DAMPI-instrumented wavefront-64
// replay no rank holds more than a couple of requests at once, so each
// rank's pool stays at one or two small slabs rather than a 64-record
// slab per rank.
TEST(PoolCost, RequestSlabsPerRankStaySmallOnWavefront64) {
  auto& registry = obs::Registry::instance();
  obs::Counter& slabs = registry.counter("engine.pool.req_slabs");
  obs::Counter& capacity = registry.counter("engine.pool.req_capacity");
  const std::uint64_t slabs_before = slabs.value();
  const std::uint64_t capacity_before = capacity.value();

  core::ExplorerOptions options = explorer_options(64);
  options.clock_mode = core::ClockMode::kVector;
  options.sched = coop();
  const auto single = run_dampi_once(options, {}, [](Proc& p) {
    workloads::wavefront(p, workloads::WavefrontConfig{});
  });
  ASSERT_TRUE(single.report.ok()) << single.report.deadlock_detail;

  const std::uint64_t run_slabs = slabs.value() - slabs_before;
  const std::uint64_t run_capacity = capacity.value() - capacity_before;
  EXPECT_GE(run_slabs, 64u);  // every rank posts requests
  EXPECT_LE(run_slabs, 2u * 64u) << run_slabs << " slabs";
  EXPECT_LE(run_capacity, 8u * 64u) << run_capacity << " records";
}

}  // namespace
}  // namespace dampi::test
