#include "mpism/scheduler.hpp"

#include <ucontext.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <new>

#include "common/check.hpp"
#include "common/logging.hpp"
#include "common/strutil.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

// Sanitizers track one stack per thread; a fiber switch must tell them
// which stack runs next (see switch_context).
#if defined(__SANITIZE_ADDRESS__)
#define DAMPI_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DAMPI_FIBER_ASAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define DAMPI_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DAMPI_FIBER_TSAN 1
#endif
#endif
#if defined(DAMPI_FIBER_ASAN)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(DAMPI_FIBER_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

namespace dampi::mpism {

struct CoopScheduler::Context {
  ucontext_t* uc = nullptr;
#if defined(DAMPI_FIBER_ASAN)
  /// ASan's fake frames of this context while it is switched out.
  void* fake_stack = nullptr;
  const void* stack_bottom = nullptr;
  std::size_t stack_size = 0;
#endif
#if defined(DAMPI_FIBER_TSAN)
  void* tsan_fiber = nullptr;
#endif
};

enum class FiberState { kUnstarted, kRunning, kBlocked, kYielded, kFinished };

struct CoopScheduler::Fiber {
  FiberState state = FiberState::kUnstarted;
  /// Wake-hint: a wake() targeted this rank since it last ran. Purely an
  /// optimization — candidates are re-validated against the wake
  /// predicate, and an empty hinted set triggers a full scan. Atomic
  /// because external cancellation calls wake_all from its own thread.
  std::atomic<bool> hint{false};
  std::unique_ptr<char[]> stack;
  /// `ctx.uc` lives at the base of `stack` (see prepare_fiber), which
  /// keeps this struct small: 512 ranks' contexts inline would make
  /// fibers_ a half-megabyte allocation per run.
  Context ctx;
  obs::Lane* lane = nullptr;
};

namespace {

// ---------------------------------------------------------------------------
// Fiber stack cache. Every replay builds a fresh CoopScheduler, so
// without it each replay of a 512-rank program would allocate and free
// 512 stacks. Stacks go back to the cache of the thread that ran the
// scheduler once every fiber has finished, and the next scheduler run on
// that thread takes them first. Thread-local, because a scheduler
// dispatches only on the thread that called run(); bounded, so an idle
// thread keeps at most kMaxStacks.
// ---------------------------------------------------------------------------

/// Per-fiber stack size. A stack is allocated lazily on first dispatch,
/// so unstarted ranks cost nothing, and reused by the next run on the
/// same thread (`scheduler.stacks_allocated` counts the stacks that were
/// not).
constexpr std::size_t kStackBytes = 256 * 1024;

class StackCache {
 public:
  using Stack = std::unique_ptr<char[]>;
  static constexpr std::size_t kMaxStacks = 1024;

  static StackCache& local() {
    static thread_local StackCache cache;
    return cache;
  }

  /// A cached stack, or null when none is.
  Stack take() {
    if (free_.empty()) return nullptr;
    Stack stack = std::move(free_.back());
    free_.pop_back();
    return stack;
  }

  void give(Stack stack) {
    if (stack == nullptr) return;
#if defined(DAMPI_FIBER_ASAN)
    // A finished fiber never returns from its outermost frames, so their
    // redzones are still poisoned; the next fiber starts on clean shadow.
    __asan_unpoison_memory_region(stack.get(), kStackBytes);
#endif
    if (free_.size() < kMaxStacks) free_.push_back(std::move(stack));
  }

 private:
  std::vector<Stack> free_;
};

}  // namespace

// ---------------------------------------------------------------------------
// CoopScheduler: one ucontext fiber per rank, all multiplexed onto the
// thread that called run(). A fiber executes until its rank blocks in an
// MPI operation (block() swaps back here), then the policy picks the
// next runnable rank. Everything the policy consumes — fiber states,
// wake hints, predicate results — is a deterministic function of program
// behaviour, so a (policy, seed) pair fixes the entire interleaving.
// Fibers and the dispatch loop share one OS thread, so rank state needs
// no lock; only external cancellation comes from another thread, and it
// publishes through atomics.
// ---------------------------------------------------------------------------

/// The one fiber switch: dispatch, block, yield and a finished fiber's
/// last exit all come here. Saves the running context into `from` and
/// resumes `to`; returns when something switches back to `from`.
/// `exiting`: `from` never runs again, so ASan may drop its fake stack.
void CoopScheduler::switch_context(Context& from, Context& to, bool exiting) {
#if defined(DAMPI_FIBER_ASAN)
  __sanitizer_start_switch_fiber(exiting ? nullptr : &from.fake_stack,
                                 to.stack_bottom, to.stack_size);
#else
  (void)exiting;
#endif
#if defined(DAMPI_FIBER_TSAN)
  __tsan_switch_to_fiber(to.tsan_fiber, 0);
#endif
  swapcontext(from.uc, to.uc);
#if defined(DAMPI_FIBER_ASAN)
  __sanitizer_finish_switch_fiber(from.fake_stack, nullptr, nullptr);
#endif
}

CoopScheduler::CoopScheduler(const SchedOptions& options, int nprocs)
    : opts_(options),
      nprocs_(nprocs),
      rng_(options.seed),
      fibers_(static_cast<std::size_t>(nprocs)) {
  DAMPI_CHECK(nprocs > 0);
  if (opts_.pick == SchedPolicy::kPriority) {
    // Static per-rank priorities drawn once from the seed; ties are
    // impossible in practice (64-bit draws) but break toward the lower
    // rank for full determinism anyway.
    Rng prio_rng(opts_.seed);
    priorities_.reserve(fibers_.size());
    for (int i = 0; i < nprocs_; ++i) {
      priorities_.push_back(prio_rng.next_u64());
    }
  }
}

CoopScheduler::~CoopScheduler() {
  for (Fiber& f : fibers_) {
    if (f.lane != nullptr) obs::Tracer::instance().release(f.lane);
#if defined(DAMPI_FIBER_TSAN)
    if (f.ctx.tsan_fiber != nullptr) __tsan_destroy_fiber(f.ctx.tsan_fiber);
#endif
  }
}

void CoopScheduler::run(const Callbacks& cb) {
  cb_ = &cb;
  ucontext_t host_uc{};
  Context host;
  host.uc = &host_uc;
#if defined(DAMPI_FIBER_TSAN)
  host.tsan_fiber = __tsan_get_current_fiber();
#endif
  host_ = &host;
  if (obs::trace_on()) {
    for (Rank r = 0; r < nprocs_; ++r) {
      fibers_[static_cast<std::size_t>(r)].lane =
          obs::Tracer::instance().acquire(strfmt("rank %d", r));
    }
  }
  std::uint64_t switches = 0;
  const bool has_deadline =
      cb.deadline != std::chrono::steady_clock::time_point{};
  while (finished_ < nprocs_) {
    // Run-to-block execution has exactly one preemption point — this
    // dispatch loop — so the per-run deadline is checked here. This is
    // what catches a livelocked spinner that only ever yields (never
    // blocks): every yield funnels back through this loop. The clock
    // read is amortized over 64 dispatches; a spinner cycles through
    // here fast enough that the slack is microseconds.
    if (has_deadline && (switches & 63) == 0 && !cb.stop() &&
        std::chrono::steady_clock::now() >= cb.deadline) {
      cb.on_deadline();
    }
    const Rank r = pick();
    DAMPI_CHECK_MSG(r >= 0, "coop scheduler: no dispatchable rank");
    dispatch(r);
    ++switches;
  }
  host_ = nullptr;
  StackCache& cache = StackCache::local();
  for (Fiber& f : fibers_) {
    if (f.lane != nullptr) {
      obs::Tracer::instance().release(f.lane);
      f.lane = nullptr;
    }
    // Every fiber has finished and none runs on its stack again.
    cache.give(std::move(f.stack));
  }
  static obs::Counter& runs_metric =
      obs::Registry::instance().counter("scheduler.coop_runs");
  static obs::Counter& switches_metric =
      obs::Registry::instance().counter("scheduler.switches");
  static obs::Counter& stacks_metric =
      obs::Registry::instance().counter("scheduler.stacks_allocated");
  static obs::Counter& wake_probes_metric =
      obs::Registry::instance().counter("scheduler.wake_probes");
  static obs::Counter& stalls_metric =
      obs::Registry::instance().counter("scheduler.stalls");
  runs_metric.add(1);
  switches_metric.add(switches);
  stacks_metric.add(stacks_allocated_);
  wake_probes_metric.add(wake_probes_);
  stalls_metric.add(stalls_);
}

void CoopScheduler::block(Rank r) {
  Fiber& f = fibers_[static_cast<std::size_t>(r)];
  while (!(cb_->wake_ready(r) || cb_->stop())) {
    f.state = FiberState::kBlocked;
    switch_context(f.ctx, *host_);
  }
}

void CoopScheduler::yield(Rank r) {
  Fiber& f = fibers_[static_cast<std::size_t>(r)];
  f.state = FiberState::kYielded;
  switch_context(f.ctx, *host_);
}

void CoopScheduler::wake(Rank r) {
  fibers_[static_cast<std::size_t>(r)].hint.store(true,
                                                   std::memory_order_relaxed);
}

void CoopScheduler::wake_all() {
  for (Fiber& f : fibers_) f.hint.store(true, std::memory_order_relaxed);
}

/// Selects the next rank to dispatch, declaring a stall first if nothing
/// is runnable. Returns -1 only when every rank has finished (the run
/// loop exits before asking again).
///
/// Three passes, each over the policy's eligibility order (see select):
/// hinted runnable ranks; then, if none, every blocked rank whose
/// predicate holds; then, if still none, a stall.
Rank CoopScheduler::pick() {
  if (finished_ == nprocs_) return -1;
  const bool stopping = cb_->stop();
  Rank next = select([this, stopping](Rank r) {
    const Fiber& f = fibers_[static_cast<std::size_t>(r)];
    if (f.state == FiberState::kFinished) return false;
    // Stopping releases every parked rank so it can observe the abort
    // and unwind; unstarted and poll-yielded ranks are always runnable.
    if (stopping || f.state == FiberState::kUnstarted ||
        f.state == FiberState::kYielded) {
      return true;
    }
    return f.hint.load(std::memory_order_relaxed) && probe(r);
  });
  if (next >= 0) return next;
  // Hints are conservative; a predicate can flip without a wake() (e.g.
  // a probe whose candidate set grew via an unrelated path). Re-scan
  // every blocked rank before concluding anything.
  next = select([this](Rank r) {
    return fibers_[static_cast<std::size_t>(r)].state ==
               FiberState::kBlocked &&
           probe(r);
  });
  if (next >= 0) return next;
  // Every live rank is blocked with a false predicate: with eager
  // matching nothing can make progress — an exact deadlock. The engine
  // marks the run stopped, after which all parked ranks become
  // dispatchable and unwind.
  ++stalls_;
  cb_->on_stall();
  DAMPI_CHECK_MSG(cb_->stop(), "on_stall must stop the run");
  return select([this](Rank r) {
    return fibers_[static_cast<std::size_t>(r)].state != FiberState::kFinished;
  });
}

/// One wake-predicate evaluation by the dispatcher.
bool CoopScheduler::probe(Rank r) {
  ++wake_probes_;
  return cb_->wake_ready(r);
}

/// The policy's pick among the ranks satisfying `eligible`, or -1 if none
/// does. Round-robin takes the first eligible rank at or after the
/// cursor, wrapping once, so it walks cyclically from the cursor and
/// stops at the first hit: a dispatch costs predicate calls for the ranks
/// it skips, not for all nprocs. Random and priority need the whole
/// eligible set (in rank order) to draw from.
template <typename Eligible>
Rank CoopScheduler::select(Eligible eligible) {
  if (opts_.pick == SchedPolicy::kRoundRobin) {
    for (int i = 0; i < nprocs_; ++i) {
      const Rank r = (rr_cursor_ + i) % nprocs_;
      if (eligible(r)) {
        rr_cursor_ = (r + 1) % nprocs_;
        return r;
      }
    }
    return -1;
  }
  candidates_.clear();
  for (Rank r = 0; r < nprocs_; ++r) {
    if (eligible(r)) candidates_.push_back(r);
  }
  if (candidates_.empty()) return -1;
  if (opts_.pick == SchedPolicy::kRandomSeeded) {
    return candidates_[static_cast<std::size_t>(
        rng_.next_below(candidates_.size()))];
  }
  Rank best = candidates_.front();
  for (Rank r : candidates_) {
    if (priorities_[static_cast<std::size_t>(r)] >
        priorities_[static_cast<std::size_t>(best)]) {
      best = r;
    }
  }
  return best;
}

void CoopScheduler::dispatch(Rank r) {
  Fiber& f = fibers_[static_cast<std::size_t>(r)];
  f.hint.store(false, std::memory_order_relaxed);
  if (f.state == FiberState::kUnstarted) prepare_fiber(f);
  f.state = FiberState::kRunning;
  current_ = r;
  DAMPI_TEVENT(obs::EventKind::kSchedSwitch, obs::Phase::kBegin, r);
  const int host_rank = log::thread_rank();
  log::set_thread_rank(r);
  obs::Lane* host_lane = nullptr;
  if (f.lane != nullptr) host_lane = obs::exchange_thread_lane(f.lane);
  switch_context(*host_, f.ctx);
  if (f.lane != nullptr) obs::exchange_thread_lane(host_lane);
  log::set_thread_rank(host_rank);
  DAMPI_TEVENT(obs::EventKind::kSchedSwitch, obs::Phase::kEnd, r);
  current_ = -1;
}

void CoopScheduler::prepare_fiber(Fiber& f) {
  f.stack = StackCache::local().take();
  if (f.stack == nullptr) {
    f.stack.reset(new char[kStackBytes]);
    ++stacks_allocated_;
  }
  // The context takes the first bytes of the block; the fiber's stack is
  // the rest.
  constexpr std::size_t kCtxBytes = (sizeof(ucontext_t) + 63) / 64 * 64;
  ucontext_t* uc = ::new (static_cast<void*>(f.stack.get())) ucontext_t;
  getcontext(uc);
  uc->uc_stack.ss_sp = f.stack.get() + kCtxBytes;
  uc->uc_stack.ss_size = kStackBytes - kCtxBytes;
  uc->uc_link = nullptr;  // fiber_main never returns
  f.ctx.uc = uc;
#if defined(DAMPI_FIBER_ASAN)
  f.ctx.stack_bottom = uc->uc_stack.ss_sp;
  f.ctx.stack_size = uc->uc_stack.ss_size;
#endif
#if defined(DAMPI_FIBER_TSAN)
  f.ctx.tsan_fiber = __tsan_create_fiber(0);
#endif
  // makecontext takes int arguments; smuggle `this` through two halves
  // (the classic portable idiom).
  const auto self = reinterpret_cast<std::uintptr_t>(this);
  makecontext(uc, reinterpret_cast<void (*)()>(&CoopScheduler::tramp), 2,
              static_cast<int>(static_cast<std::uint32_t>(self >> 32)),
              static_cast<int>(static_cast<std::uint32_t>(self)));
}

void CoopScheduler::tramp(int hi, int lo) {
  const std::uintptr_t bits =
      (static_cast<std::uintptr_t>(static_cast<std::uint32_t>(hi)) << 32) |
      static_cast<std::uintptr_t>(static_cast<std::uint32_t>(lo));
  reinterpret_cast<CoopScheduler*>(bits)->fiber_main();
}

void CoopScheduler::fiber_main() {
#if defined(DAMPI_FIBER_ASAN)
  // A fiber's first entry does not return through switch_context, so it
  // finishes the switch here — and learns the host stack it came from,
  // which every later switch back needs.
  __sanitizer_finish_switch_fiber(nullptr, &host_->stack_bottom,
                                  &host_->stack_size);
#endif
  const Rank r = current_;
  cb_->body(r);
  Fiber& f = fibers_[static_cast<std::size_t>(r)];
  f.state = FiberState::kFinished;
  ++finished_;
  // Leave for good; the scheduler never resumes a finished fiber, so the
  // loop is unreachable after the first switch (it exists so the
  // trampoline can never fall off the end of its makecontext frame).
  for (;;) switch_context(f.ctx, *host_, /*exiting=*/true);
}

bool coop_supported() { return true; }

bool parse_sched_spec(const std::string& spec, SchedOptions* out) {
  SchedOptions parsed = *out;
  if (spec == "coop" || spec == "coop-rr") {
    parsed.pick = SchedPolicy::kRoundRobin;
  } else if (spec == "coop-random") {
    parsed.pick = SchedPolicy::kRandomSeeded;
  } else if (spec == "coop-priority") {
    parsed.pick = SchedPolicy::kPriority;
  } else {
    return false;
  }
  parsed.kind = SchedulerKind::kCoop;
  *out = parsed;
  return true;
}

std::string sched_spec(const SchedOptions& options) {
  switch (options.pick) {
    case SchedPolicy::kRoundRobin: return "coop-rr";
    case SchedPolicy::kRandomSeeded: return "coop-random";
    case SchedPolicy::kPriority: return "coop-priority";
  }
  return "coop";
}

}  // namespace dampi::mpism
