// Engine stress suite (ctest label `concurrency`, so it also runs under
// ThreadSanitizer):
//
//  - randomized programs: small message soups under seeded coop-random
//    dispatch keep their schedule-independent invariants (and give the
//    matcher's candidate queries and lanes a workout through the whole
//    engine; tests/test_match_index.cpp fuzzes the structure itself);
//  - fiber stress: wildcard fan-ins and all-pairs cross-rank churn over
//    many coop-random seeds — the sanitizers' workout for the fiber
//    switches, the reused fiber stacks, and the rendezvous completion
//    handshake;
//  - deadlock verdicts on the deadlock patterns, reproducible bit for
//    bit;
//  - observability: a run accounts envelope inline hits in the metrics
//    registry.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/strutil.hpp"
#include "obs/metrics.hpp"
#include "support/run_helpers.hpp"
#include "workloads/patterns.hpp"

namespace dampi::test {
namespace {

using dampi::strfmt;
using mpism::Bytes;
using mpism::kAnySource;
using mpism::kAnyTag;
using mpism::RequestId;

/// Every deterministic field of a RunReport, doubles in %a hex form
/// (wall_seconds is excluded by design — it is the one
/// non-deterministic field).
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

// ---------------------------------------------------------------------
// Randomized program generator: valid-by-construction message soup
// (receives posted before sends per phase) with wildcard phases, sync
// sends (the rendezvous path), probes, and collectives.

struct ProgramCase {
  std::uint64_t seed;
  int nprocs;
  int phases;
  int messages_per_phase;
};

struct ScriptMessage {
  int src;
  int dst;
  int tag;
  bool synchronous;
  int bytes;  // payload size: straddles the 64-byte inline threshold
};

std::vector<std::vector<ScriptMessage>> build_script(const ProgramCase& c) {
  Rng rng(c.seed);
  std::vector<std::vector<ScriptMessage>> phases(
      static_cast<std::size_t>(c.phases));
  for (auto& phase : phases) {
    const int count =
        1 + static_cast<int>(rng.next_below(
                static_cast<std::uint64_t>(c.messages_per_phase)));
    for (int m = 0; m < count; ++m) {
      ScriptMessage msg;
      msg.src = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(c.nprocs)));
      do {
        msg.dst = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(c.nprocs)));
      } while (msg.dst == msg.src);
      msg.tag = static_cast<int>(rng.next_below(3));
      msg.synchronous = rng.next_bool(0.3);
      // ~1/4 of payloads spill past the 64-byte small-buffer arm.
      msg.bytes = rng.next_bool(0.25)
                      ? 64 + static_cast<int>(rng.next_below(192))
                      : 1 + static_cast<int>(rng.next_below(64));
      phase.push_back(msg);
    }
  }
  return phases;
}

void run_script(mpism::Proc& p,
                const std::vector<std::vector<ScriptMessage>>& script,
                std::uint64_t seed) {
  Rng rng(seed ^ 0xabcdef);
  int phase_index = 0;
  for (const auto& phase : script) {
    const bool wildcard_phase = rng.next_bool(0.5);
    std::vector<RequestId> recvs;
    for (const ScriptMessage& m : phase) {
      if (m.dst != p.rank()) continue;
      recvs.push_back(p.irecv(wildcard_phase ? kAnySource : m.src, kAnyTag));
    }
    std::vector<RequestId> sends;
    for (const ScriptMessage& m : phase) {
      if (m.src != p.rank()) continue;
      Bytes payload(static_cast<std::size_t>(m.bytes),
                    static_cast<std::byte>(m.tag + 1));
      sends.push_back(m.synchronous
                          ? p.issend(m.dst, m.tag, std::move(payload))
                          : p.isend(m.dst, m.tag, std::move(payload)));
    }
    if (rng.next_bool(0.5)) p.iprobe(kAnySource, kAnyTag);
    p.waitall(recvs);
    p.waitall(sends);
    if (phase_index % 2 == 0) {
      p.barrier();
    } else {
      p.allreduce_u64(1, mpism::ReduceOp::kSumU64);
    }
    ++phase_index;
  }
}

mpism::RunOptions coop_random(int nprocs, std::uint64_t seed) {
  mpism::RunOptions options;
  options.nprocs = nprocs;
  options.sched.pick = mpism::SchedPolicy::kRandomSeeded;
  options.sched.seed = seed;
  return options;
}

// Randomized programs, each under two coop-random dispatch seeds: match
// order depends on the seed, so only schedule-independent invariants
// are checked — every run completes cleanly and sends exactly the
// scripted messages. `programs` scripts are drawn as i * `multiplier`.
void expect_invariants_under_coop_random(std::uint64_t programs,
                                         std::uint64_t multiplier) {
  for (std::uint64_t i = 1; i <= programs; ++i) {
    ProgramCase c;
    c.seed = i * multiplier;
    c.nprocs = 2 + static_cast<int>(i % 4);  // 2..5
    c.phases = 2;
    c.messages_per_phase = 2 * c.nprocs;
    const auto script = build_script(c);
    std::uint64_t expected_messages = 0;
    for (const auto& phase : script) expected_messages += phase.size();
    const auto program = [&script, &c](mpism::Proc& p) {
      run_script(p, script, c.seed + static_cast<std::uint64_t>(p.rank()));
    };
    for (const std::uint64_t dispatch_seed : {c.seed, c.seed + 1}) {
      const std::string where = strfmt(
          "program %llu, dispatch seed %llu",
          static_cast<unsigned long long>(c.seed),
          static_cast<unsigned long long>(dispatch_seed));
      const auto report =
          run_program(coop_random(c.nprocs, dispatch_seed), program);
      ASSERT_TRUE(report.completed) << where << ": "
                                    << report.deadlock_detail;
      ASSERT_TRUE(report.errors.empty())
          << where << ": " << report.errors[0].message;
      EXPECT_EQ(report.messages_sent, expected_messages) << where;
      EXPECT_EQ(report.comm_leaks, 0) << where;
      EXPECT_EQ(report.request_leaks, 0u) << where;
    }
  }
}

// The two seed families keep the suite names they had when threads and
// coop fibers were compared; every run is a coop fiber run now.
TEST(EngineLockDifferential, ThreadSchedulerInvariantsAgree) {
  expect_invariants_under_coop_random(40, 1315423911u);
}

TEST(MatchDifferentialPrograms, ThreadSchedulerInvariantsAgree) {
  expect_invariants_under_coop_random(60, 2654435761u);
}

// ---------------------------------------------------------------------
// Fiber stress — the sanitizer target. Two traffic shapes switch fibers
// constantly, each run under a fresh coop-random seed so the dispatch
// order varies the way an OS scheduler's would:
//
//  - wildcard fan-in: every rank floods rank 0, which drains the pile
//    through ANY_SOURCE receives, parking in blocking_wait between
//    arrivals;
//  - all-pairs churn: every rank posts a receive from and sends to
//    every other rank each round, with sync sends mixed in so the
//    rendezvous completion handshake runs constantly.

void wildcard_fanin(mpism::Proc& p, int rounds, int senders_per_round) {
  const int n = p.size();
  for (int round = 0; round < rounds; ++round) {
    if (p.rank() == 0) {
      std::vector<RequestId> recvs;
      for (int i = 0; i < (n - 1) * senders_per_round; ++i) {
        recvs.push_back(p.irecv(kAnySource, kAnyTag));
      }
      p.waitall(recvs);
    } else {
      std::vector<RequestId> sends;
      for (int i = 0; i < senders_per_round; ++i) {
        // Alternate inline-fit and heap-spill payload sizes.
        const std::size_t bytes = (i % 2 == 0) ? 16 : 96;
        Bytes payload(bytes, static_cast<std::byte>(p.rank()));
        sends.push_back(i % 3 == 0 ? p.issend(0, round, std::move(payload))
                                   : p.isend(0, round, std::move(payload)));
      }
      p.waitall(sends);
    }
    p.barrier();
  }
}

void all_pairs_churn(mpism::Proc& p, int rounds) {
  const int n = p.size();
  for (int round = 0; round < rounds; ++round) {
    std::vector<RequestId> recvs;
    for (int peer = 0; peer < n; ++peer) {
      if (peer == p.rank()) continue;
      recvs.push_back(p.irecv(peer, kAnyTag));
    }
    std::vector<RequestId> sends;
    for (int peer = 0; peer < n; ++peer) {
      if (peer == p.rank()) continue;
      Bytes payload(static_cast<std::size_t>(8 + 8 * ((p.rank() + round) % 12)),
                    static_cast<std::byte>(round));
      sends.push_back(((p.rank() + peer + round) % 4 == 0)
                          ? p.issend(peer, round % 3, std::move(payload))
                          : p.isend(peer, round % 3, std::move(payload)));
    }
    p.iprobe(kAnySource, kAnyTag);
    p.waitall(recvs);
    p.waitall(sends);
    if (round % 2 == 0) p.allreduce_u64(1, mpism::ReduceOp::kSumU64);
  }
}

TEST(FiberStress, WildcardFanInUnderCoopRandomSeeds) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto report =
        run_program(coop_random(6, seed), [](mpism::Proc& p) {
          wildcard_fanin(p, /*rounds=*/6, /*senders_per_round=*/8);
        });
    ASSERT_TRUE(report.ok()) << "seed " << seed << ": "
                             << report.deadlock_detail;
    EXPECT_EQ(report.messages_sent, 6u * 5u * 8u) << "seed " << seed;
  }
}

TEST(FiberStress, AllPairsChurnUnderCoopRandomSeeds) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto report =
        run_program(coop_random(5, seed), [](mpism::Proc& p) {
          all_pairs_churn(p, /*rounds=*/10);
        });
    ASSERT_TRUE(report.ok()) << "seed " << seed << ": "
                             << report.deadlock_detail;
    EXPECT_EQ(report.messages_sent, 10u * 5u * 4u) << "seed " << seed;
    EXPECT_EQ(report.request_leaks, 0u) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------
// Deadlock verdicts: simple_deadlock deadlocks under every dispatch
// policy in `dispatches` (the scheduler's stall detection), and a rerun
// reproduces the whole report (detail text included) bit for bit.
mpism::SchedOptions dispatch(mpism::SchedPolicy pick, std::uint64_t seed) {
  mpism::SchedOptions sched;
  sched.pick = pick;
  sched.seed = seed;
  return sched;
}

void expect_deadlock_verdict_parity(
    const std::vector<mpism::SchedOptions>& dispatches) {
  struct Pattern {
    const char* name;
    mpism::ProgramFn fn;
    int nprocs;
  };
  const Pattern patterns[] = {
      {"simple_deadlock", workloads::simple_deadlock, 2},
      {"wildcard_dependent_deadlock",
       workloads::wildcard_dependent_deadlock, 3},
  };
  for (const auto& pat : patterns) {
    for (const mpism::SchedOptions& sched : dispatches) {
      const std::string where =
          strfmt("%s under %s seed %llu", pat.name,
                 mpism::sched_spec(sched).c_str(),
                 static_cast<unsigned long long>(sched.seed));
      std::optional<std::string> first_fp;
      for (int attempt = 0; attempt < 2; ++attempt) {
        mpism::RunOptions options;
        options.nprocs = pat.nprocs;
        options.sched = sched;
        const auto report = run_program(options, pat.fn);
        if (std::string(pat.name) == "simple_deadlock") {
          EXPECT_TRUE(report.deadlocked) << where << " run " << attempt;
        }
        const std::string fp = fingerprint(report);
        if (!first_fp.has_value()) {
          first_fp = fp;
        } else {
          EXPECT_EQ(fp, *first_fp) << where << ": rerun diverged";
        }
      }
    }
  }
}

// Every dispatch policy, random seeded at 1.
TEST(EngineLockDifferential, DeadlockVerdictParity) {
  expect_deadlock_verdict_parity({
      dispatch(mpism::SchedPolicy::kRoundRobin, 1),
      dispatch(mpism::SchedPolicy::kRandomSeeded, 1),
      dispatch(mpism::SchedPolicy::kPriority, 1),
  });
}

// The default RunOptions dispatch, and a second random seed.
TEST(MatchDifferentialPrograms, DeadlockVerdictParity) {
  expect_deadlock_verdict_parity({
      mpism::RunOptions().sched,
      dispatch(mpism::SchedPolicy::kRandomSeeded, 7),
  });
}

// A run publishes envelope accounting: small payloads land in the inline
// arm.
TEST(EngineObs, RunAccountsInlineEnvelopeTraffic) {
  auto& reg = obs::Registry::instance();
  reg.reset();
  mpism::RunOptions options;
  options.nprocs = 4;
  const auto report = run_program(options, [](mpism::Proc& p) {
    all_pairs_churn(p, /*rounds=*/4);
  });
  ASSERT_TRUE(report.ok()) << report.deadlock_detail;
  EXPECT_GT(reg.counter("engine.envelope.inline_hits").value(), 0u);
  EXPECT_EQ(reg.counter("engine.runs").value(), 1u);
  reg.reset();
}

}  // namespace
}  // namespace dampi::test
