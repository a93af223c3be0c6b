// Rank scheduling for the mpism engine: cooperative run-to-block fibers.
//
// Every rank is a ucontext fiber on the thread that called run(). A rank
// runs until it blocks in an MPI operation, then yields to the
// dispatcher, which deterministically picks the next runnable rank
// (round-robin, seeded-random, or seeded-priority). Native runs are
// bit-reproducible by construction, and rank counts in the hundreds cost
// fibers instead of OS threads — the run-to-block discipline of
// centralized-scheduler verifiers (ISP, MPI-SV) applied to the paper's
// eager-matching simulator.
//
// Contract: `block`/`yield` are called by the running rank and return
// once `wake_ready(rank)` or `stop()` is true (block) or once the rank is
// dispatched again (yield). `wake`/`wake_all` may be called from any
// thread — external cancellation calls wake_all from its own — and are
// hints: the dispatcher re-validates every candidate against its wake
// predicate. A stall (no runnable rank, not all finished) is reported
// through `on_stall`; with eager matching that is an exact deadlock
// criterion.
//
// Every fiber switch goes through one helper that tells AddressSanitizer
// and ThreadSanitizer about the stack change, so sanitized builds run the
// same fibers as every other build.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "mpism/types.hpp"

namespace dampi::mpism {

/// The rank execution model. Coop fibers are the only one; the enum
/// stays for callers that still name it.
enum class SchedulerKind { kCoop };

/// How the coop scheduler picks among runnable ranks. All three are
/// deterministic functions of (seed, pick history), so a given
/// (policy, seed) pair replays the same interleaving every time.
enum class SchedPolicy { kRoundRobin, kRandomSeeded, kPriority };

struct SchedOptions {
  SchedulerKind kind = SchedulerKind::kCoop;
  SchedPolicy pick = SchedPolicy::kRoundRobin;
  std::uint64_t seed = 1;
  /// Per-fiber stack size; allocated lazily on first dispatch, so
  /// unstarted ranks cost nothing, and reused by the next run on the
  /// same thread (`scheduler.stacks_allocated` counts the stacks that
  /// were not).
  std::size_t stack_bytes = 256 * 1024;
};

class CoopScheduler {
 public:
  /// Engine-provided hooks. wake_ready(r) and on_stall are only ever
  /// called on the dispatch thread; stop() reads only atomics.
  struct Callbacks {
    /// Runs one rank's program instance to completion; must not throw
    /// (the engine catches everything inside).
    std::function<void(Rank)> body;
    /// True when the blocked rank's wake predicate holds.
    std::function<bool(Rank)> wake_ready;
    /// True once the run is aborting or deadlocked: every parked rank
    /// must be released so it can unwind.
    std::function<bool()> stop;
    /// No rank is runnable and not all have finished. Must make stop()
    /// true.
    std::function<void()> on_stall;
    /// Wall-clock deadline for the whole run; the epoch time_point (the
    /// default) means unarmed. Checked in the dispatch loop (amortized
    /// over 64 dispatches) — that is what catches a yield-looping
    /// spinner, whose yields never pass through the engine's blocking
    /// paths.
    std::chrono::steady_clock::time_point deadline{};
    /// Invoked when `deadline` has passed and the run has not stopped.
    /// Must be idempotent and must make stop() true.
    std::function<void()> on_deadline;
  };

  CoopScheduler(const SchedOptions& options, int nprocs);
  ~CoopScheduler();
  CoopScheduler(const CoopScheduler&) = delete;
  CoopScheduler& operator=(const CoopScheduler&) = delete;

  /// Executes `body` for ranks 0..nprocs-1; returns when all finished.
  void run(const Callbacks& cb);
  /// Parks the running rank r until wake_ready(r) or stop().
  void block(Rank r);
  /// Cedes the host without blocking: the rank stays runnable and is
  /// rescheduled per policy. Called when a non-blocking poll
  /// (test*/iprobe) observes "not ready" — under run-to-block execution
  /// a busy-poll loop would otherwise starve every other rank forever.
  void yield(Rank r);
  /// Hints that r's wake predicate may have flipped. Callable from any
  /// thread.
  void wake(Rank r);
  void wake_all();

 private:
  /// One execution context (a fiber, or the host stack run() is called
  /// on) with its sanitizer bookkeeping; defined in scheduler.cpp.
  struct Context;
  struct Fiber;

  static void switch_context(Context& from, Context& to, bool exiting = false);
  Rank pick();
  bool probe(Rank r);
  template <typename Eligible>
  Rank select(Eligible eligible);
  void dispatch(Rank r);
  void prepare_fiber(Fiber& f);
  static void tramp(int hi, int lo);
  void fiber_main();

  SchedOptions opts_;
  int nprocs_;
  Rng rng_;
  std::vector<Fiber> fibers_;
  std::vector<std::uint64_t> priorities_;
  std::vector<Rank> candidates_;
  /// The host context; lives on run()'s stack for the run's duration.
  Context* host_ = nullptr;
  const Callbacks* cb_ = nullptr;
  Rank current_ = -1;
  Rank rr_cursor_ = 0;
  int finished_ = 0;
  std::uint64_t wake_probes_ = 0;
  std::uint64_t stalls_ = 0;
  std::uint64_t stacks_allocated_ = 0;
};

/// Always true: fibers run in every build, sanitized ones included.
bool coop_supported();

/// Parse a CLI scheduler spec: "coop" (round-robin), "coop-rr",
/// "coop-random", "coop-priority". Returns false (leaving `out`
/// untouched) on anything else.
bool parse_sched_spec(const std::string& spec, SchedOptions* out);

/// Canonical spec string for the given options (inverse of parse).
std::string sched_spec(const SchedOptions& options);

}  // namespace dampi::mpism
