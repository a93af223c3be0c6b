#include "mpism/scheduler.hpp"

#include <ucontext.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/strutil.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

// Sanitizers instrument the OS-thread stack; swapcontext moves execution
// onto a heap stack they know nothing about, so shadow state corrupts
// (TSan) or redzones fire (ASan). Rather than annotate fibers we fall
// back to ThreadScheduler in sanitized builds — the coop paths are
// exercised by the unsanitized tier-1 stages.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define DAMPI_COOP_UNSUPPORTED 1
#endif
#if !defined(DAMPI_COOP_UNSUPPORTED) && defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer) || \
    __has_feature(memory_sanitizer)
#define DAMPI_COOP_UNSUPPORTED 1
#endif
#endif

namespace dampi::mpism {
namespace {

// ---------------------------------------------------------------------------
// ThreadScheduler: one OS thread per rank, per-rank eventcount waiters
// (the engine's original execution model, kept for differential testing
// and for sanitized builds).
//
// The park/wake protocol is an eventcount rather than a cv on the engine
// mutex because not every predicate flip happens under that mutex: a
// waker declaring a verdict (cancel, watchdog) publishes through atomics
// without holding it, so the sleeper cannot rely on "predicate flips
// happen under my lock". Instead each rank has {mutex, cv, gen}:
//
//   parker:  check pred (guard held) → snapshot gen (waiter mutex) →
//            re-check pred → drop guard → wait until gen != snapshot →
//            retake guard → loop
//   waker:   { lock waiter mutex; ++gen; } notify_all()
//
// The post-snapshot re-check closes the race with atomic-published
// state: if the waker bumped gen before our snapshot, the waiter-mutex
// acquire synchronizes-with its release, making the published state
// visible to the re-check; if it bumps after, the wait observes the gen
// change. State published under the engine mutex is simpler still — the
// waker needs the mutex, which we hold until the park actually drops it.
// ---------------------------------------------------------------------------

class ThreadScheduler final : public RankScheduler {
 public:
  explicit ThreadScheduler(int nprocs)
      : nprocs_(nprocs),
        waiters_(std::make_unique<Waiter[]>(static_cast<std::size_t>(nprocs))) {
  }

  void run(const Callbacks& cb) override {
    cb_ = &cb;
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(nprocs_));
    for (Rank r = 0; r < nprocs_; ++r) {
      threads.emplace_back([r, &cb] {
        log::set_thread_rank(r);
        DAMPI_TRACE_THREAD_LANE(strfmt("rank %d", r));
        cb.body(r);
      });
    }
    for (auto& t : threads) t.join();
  }

  void block(EngineGuard& g, Rank r) override {
    Waiter& w = waiters_[static_cast<std::size_t>(r)];
    // An untimed wait is enough even for deadline-armed runs: a parked
    // rank never has to notice the deadline itself. If any peer is still
    // issuing ops, its budget charge declares the timeout within a
    // 32-op stride and the abort wakes everyone here via stop(); if no
    // peer is, the stall detector declares deadlock. Timed waits cost
    // ~150ns each on the message critical path, so they stay out of it.
    for (;;) {
      if (cb_->wake_ready(r) || cb_->stop()) return;
      std::uint64_t gen;
      {
        std::lock_guard<std::mutex> wl(w.mu);
        gen = w.gen;
      }
      // Re-check after the snapshot: a waker that bumped gen first has
      // its published state made visible by the w.mu acquire above.
      if (cb_->wake_ready(r) || cb_->stop()) return;
      g.unlock();
      {
        std::unique_lock<std::mutex> wl(w.mu);
        w.cv.wait(wl, [&w, gen] { return w.gen != gen; });
      }
      g.lock();
    }
  }

  void wake(Rank r) override {
    Waiter& w = waiters_[static_cast<std::size_t>(r)];
    {
      std::lock_guard<std::mutex> wl(w.mu);
      ++w.gen;
    }
    w.cv.notify_all();
  }

  void wake_all() override {
    for (Rank r = 0; r < nprocs_; ++r) wake(r);
  }

  bool detects_stall() const override { return false; }
  bool runs_on_one_thread() const override { return false; }
  const char* name() const override { return "thread"; }

 private:
  struct alignas(64) Waiter {
    std::mutex mu;
    std::condition_variable cv;
    std::uint64_t gen = 0;
  };

  int nprocs_;
  std::unique_ptr<Waiter[]> waiters_;
  const Callbacks* cb_ = nullptr;
};

// ---------------------------------------------------------------------------
// Fiber stack cache. Every replay builds a fresh CoopScheduler, so
// without it each replay of a 512-rank program would allocate and free
// 512 stacks. Stacks go back to the cache of the thread that ran the
// scheduler once every fiber has finished, and the next scheduler run on
// that thread takes them first. Thread-local, because a scheduler
// dispatches only on the thread that called run(); bounded, so an idle
// thread keeps at most kMaxStacks of one size.
// ---------------------------------------------------------------------------

class StackCache {
 public:
  using Stack = std::unique_ptr<char[]>;
  static constexpr std::size_t kMaxStacks = 1024;

  static StackCache& local() {
    static thread_local StackCache cache;
    return cache;
  }

  /// A stack of `bytes`, or null when none is cached.
  Stack take(std::size_t bytes) {
    if (bytes != bytes_ || free_.empty()) return nullptr;
    Stack stack = std::move(free_.back());
    free_.pop_back();
    return stack;
  }

  void give(Stack stack, std::size_t bytes) {
    if (stack == nullptr) return;
    if (bytes != bytes_) {
      // One size at a time: a run with another stack size replaces the
      // cached ones.
      free_.clear();
      bytes_ = bytes;
    }
    if (free_.size() < kMaxStacks) free_.push_back(std::move(stack));
  }

 private:
  std::size_t bytes_ = 0;
  std::vector<Stack> free_;
};

// ---------------------------------------------------------------------------
// CoopScheduler: one ucontext fiber per rank, all multiplexed onto the
// thread that called run(). A fiber executes until its rank blocks in an
// MPI operation (block() swaps back here), then the policy picks the
// next runnable rank. Everything the policy consumes — fiber states,
// wake hints, predicate results — is a deterministic function of program
// behaviour, so a (policy, seed) pair fixes the entire interleaving.
//
// The dispatch loop runs without any engine lock: fibers and the loop
// share one OS thread, so rank state reads race only with external
// cancellation — which publishes through atomics by contract. Fibers
// release their engine guard before swapping back (block/yield) and
// retake it on resume.
// ---------------------------------------------------------------------------

class CoopScheduler final : public RankScheduler {
 public:
  CoopScheduler(const SchedOptions& options, int nprocs)
      : opts_(options),
        nprocs_(nprocs),
        rng_(options.seed),
        fibers_(static_cast<std::size_t>(nprocs)) {
    if (opts_.pick == SchedPolicy::kPriority) {
      // Static per-rank priorities drawn once from the seed; ties are
      // impossible in practice (64-bit draws) but break toward the
      // lower rank for full determinism anyway.
      Rng prio_rng(opts_.seed);
      priorities_.reserve(fibers_.size());
      for (int i = 0; i < nprocs_; ++i) {
        priorities_.push_back(prio_rng.next_u64());
      }
    }
  }

  ~CoopScheduler() override {
    for (Fiber& f : fibers_) {
      if (f.lane != nullptr) obs::Tracer::instance().release(f.lane);
    }
  }

  void run(const Callbacks& cb) override {
    cb_ = &cb;
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
      // dispatch loop — so the per-run deadline is checked here. This
      // is what catches a livelocked spinner that only ever yields
      // (never blocks): every yield funnels back through this loop.
      // The clock read is amortized over 64 dispatches; a spinner
      // cycles through here fast enough that the slack is microseconds.
      if (has_deadline && (switches & 63) == 0 && !cb.stop() &&
          std::chrono::steady_clock::now() >= cb.deadline) {
        cb.on_deadline();
      }
      const Rank r = pick();
      DAMPI_CHECK_MSG(r >= 0, "coop scheduler: no dispatchable rank");
      dispatch(r);
      ++switches;
    }
    StackCache& cache = StackCache::local();
    for (Fiber& f : fibers_) {
      if (f.lane != nullptr) {
        obs::Tracer::instance().release(f.lane);
        f.lane = nullptr;
      }
      // Every fiber has finished and none runs on its stack again.
      cache.give(std::move(f.stack), opts_.stack_bytes);
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

  void block(EngineGuard& g, Rank r) override {
    Fiber& f = fibers_[static_cast<std::size_t>(r)];
    while (!(cb_->wake_ready(r) || cb_->stop())) {
      f.state = State::kBlocked;
      // The fiber must release its engine guard before swapping: the
      // next dispatched rank may need the engine mutex, and it runs on
      // this very OS thread.
      g.unlock();
      swapcontext(f.ctx, &sched_ctx_);
      g.lock();
    }
  }

  void yield(EngineGuard& g, Rank r) override {
    Fiber& f = fibers_[static_cast<std::size_t>(r)];
    f.state = State::kYielded;
    g.unlock();
    swapcontext(f.ctx, &sched_ctx_);
    g.lock();
  }

  void wake(Rank r) override {
    fibers_[static_cast<std::size_t>(r)].hint.store(
        true, std::memory_order_relaxed);
  }

  void wake_all() override {
    for (Fiber& f : fibers_) f.hint.store(true, std::memory_order_relaxed);
  }

  bool detects_stall() const override { return true; }
  bool runs_on_one_thread() const override { return true; }

  const char* name() const override {
    switch (opts_.pick) {
      case SchedPolicy::kRoundRobin: return "coop-rr";
      case SchedPolicy::kRandomSeeded: return "coop-random";
      case SchedPolicy::kPriority: return "coop-priority";
    }
    return "coop";
  }

 private:
  enum class State { kUnstarted, kRunning, kBlocked, kYielded, kFinished };

  struct Fiber {
    State state = State::kUnstarted;
    /// Wake-hint: a wake() targeted this rank since it last ran. Purely
    /// an optimization — candidates are re-validated against the wake
    /// predicate, and an empty hinted set triggers a full scan. Atomic
    /// because external cancellation calls wake_all from its own thread.
    std::atomic<bool> hint{false};
    std::unique_ptr<char[]> stack;
    /// Lives at the base of `stack` (see prepare_fiber), which keeps
    /// this struct small: 512 ranks' contexts inline would make fibers_
    /// a half-megabyte allocation per run.
    ucontext_t* ctx = nullptr;
    obs::Lane* lane = nullptr;
  };

  /// Selects the next rank to dispatch, declaring a stall first if
  /// nothing is runnable. Returns -1 only when every rank has finished
  /// (the run loop exits before asking again).
  ///
  /// Three passes, each over the policy's eligibility order (see
  /// select): hinted runnable ranks; then, if none, every blocked rank
  /// whose predicate holds; then, if still none, a stall.
  Rank pick() {
    if (finished_ == nprocs_) return -1;
    const bool stopping = cb_->stop();
    Rank next = select([this, stopping](Rank r) {
      const Fiber& f = fibers_[static_cast<std::size_t>(r)];
      if (f.state == State::kFinished) return false;
      // Stopping releases every parked rank so it can observe the abort
      // and unwind; unstarted and poll-yielded ranks are always
      // runnable.
      if (stopping || f.state == State::kUnstarted ||
          f.state == State::kYielded) {
        return true;
      }
      return f.hint.load(std::memory_order_relaxed) && probe(r);
    });
    if (next >= 0) return next;
    // Hints are conservative; a predicate can flip without a wake()
    // (e.g. a probe whose candidate set grew via an unrelated path).
    // Re-scan every blocked rank before concluding anything.
    next = select([this](Rank r) {
      return fibers_[static_cast<std::size_t>(r)].state == State::kBlocked &&
             probe(r);
    });
    if (next >= 0) return next;
    // Every live rank is blocked with a false predicate: with eager
    // matching nothing can make progress — an exact deadlock. The
    // engine marks the run stopped, after which all parked ranks
    // become dispatchable and unwind.
    ++stalls_;
    cb_->on_stall();
    DAMPI_CHECK_MSG(cb_->stop(), "on_stall must stop the run");
    return select([this](Rank r) {
      return fibers_[static_cast<std::size_t>(r)].state != State::kFinished;
    });
  }

  /// One wake-predicate evaluation by the dispatcher.
  bool probe(Rank r) {
    ++wake_probes_;
    return cb_->wake_ready(r);
  }

  /// The policy's pick among the ranks satisfying `eligible`, or -1 if
  /// none does. Round-robin takes the first eligible rank at or after
  /// the cursor, wrapping once, so it walks cyclically from the cursor
  /// and stops at the first hit: a dispatch costs predicate calls for
  /// the ranks it skips, not for all nprocs. Random and priority need
  /// the whole eligible set (in rank order) to draw from.
  template <typename Eligible>
  Rank select(Eligible eligible) {
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

  void dispatch(Rank r) {
    Fiber& f = fibers_[static_cast<std::size_t>(r)];
    f.hint.store(false, std::memory_order_relaxed);
    if (f.state == State::kUnstarted) prepare_fiber(f);
    f.state = State::kRunning;
    current_ = r;
    DAMPI_TEVENT(obs::EventKind::kSchedSwitch, obs::Phase::kBegin, r);
    const int host_rank = log::thread_rank();
    log::set_thread_rank(r);
    obs::Lane* host_lane = nullptr;
    if (f.lane != nullptr) host_lane = obs::exchange_thread_lane(f.lane);
    swapcontext(&sched_ctx_, f.ctx);
    if (f.lane != nullptr) obs::exchange_thread_lane(host_lane);
    log::set_thread_rank(host_rank);
    DAMPI_TEVENT(obs::EventKind::kSchedSwitch, obs::Phase::kEnd, r);
    current_ = -1;
  }

  void prepare_fiber(Fiber& f) {
    f.stack = StackCache::local().take(opts_.stack_bytes);
    if (f.stack == nullptr) {
      f.stack.reset(new char[opts_.stack_bytes]);
      ++stacks_allocated_;
    }
    // The context takes the first bytes of the block; the fiber's stack
    // is the rest.
    constexpr std::size_t kCtxBytes = (sizeof(ucontext_t) + 63) / 64 * 64;
    f.ctx = ::new (static_cast<void*>(f.stack.get())) ucontext_t;
    getcontext(f.ctx);
    f.ctx->uc_stack.ss_sp = f.stack.get() + kCtxBytes;
    f.ctx->uc_stack.ss_size = opts_.stack_bytes - kCtxBytes;
    f.ctx->uc_link = &sched_ctx_;
    // makecontext takes int arguments; smuggle `this` through two
    // halves (the classic portable idiom).
    const auto self = reinterpret_cast<std::uintptr_t>(this);
    makecontext(f.ctx, reinterpret_cast<void (*)()>(&CoopScheduler::tramp),
                2, static_cast<int>(static_cast<std::uint32_t>(self >> 32)),
                static_cast<int>(static_cast<std::uint32_t>(self)));
  }

  static void tramp(int hi, int lo) {
    const std::uintptr_t bits =
        (static_cast<std::uintptr_t>(static_cast<std::uint32_t>(hi)) << 32) |
        static_cast<std::uintptr_t>(static_cast<std::uint32_t>(lo));
    reinterpret_cast<CoopScheduler*>(bits)->fiber_main();
  }

  void fiber_main() {
    const Rank r = current_;
    cb_->body(r);
    Fiber& f = fibers_[static_cast<std::size_t>(r)];
    f.state = State::kFinished;
    ++finished_;
    // Yield for good; the scheduler never resumes a finished fiber, so
    // the loop is unreachable after the first swap (it exists so the
    // trampoline can never fall off the end of its makecontext frame).
    for (;;) swapcontext(f.ctx, &sched_ctx_);
  }

  SchedOptions opts_;
  int nprocs_;
  Rng rng_;
  std::vector<Fiber> fibers_;
  std::vector<std::uint64_t> priorities_;
  std::vector<Rank> candidates_;
  ucontext_t sched_ctx_ = {};
  const Callbacks* cb_ = nullptr;
  Rank current_ = -1;
  Rank rr_cursor_ = 0;
  int finished_ = 0;
  std::uint64_t wake_probes_ = 0;
  std::uint64_t stalls_ = 0;
  std::uint64_t stacks_allocated_ = 0;
};

}  // namespace

bool coop_supported() {
#if defined(DAMPI_COOP_UNSUPPORTED)
  return false;
#else
  return true;
#endif
}

std::unique_ptr<RankScheduler> make_scheduler(const SchedOptions& options,
                                              int nprocs) {
  DAMPI_CHECK(nprocs > 0);
  if (options.kind == SchedulerKind::kCoop) {
    if (coop_supported()) {
      SchedOptions coop = options;
      coop.stack_bytes = std::max<std::size_t>(coop.stack_bytes, 64 * 1024);
      return std::make_unique<CoopScheduler>(coop, nprocs);
    }
    static bool warned = false;
    if (!warned) {
      warned = true;
      DAMPI_LOG(kWarn) << "coop scheduler unavailable in sanitized builds; "
                          "falling back to thread scheduler";
    }
  }
  return std::make_unique<ThreadScheduler>(nprocs);
}

bool parse_sched_spec(const std::string& spec, SchedOptions* out) {
  SchedOptions parsed = *out;
  if (spec == "thread") {
    parsed.kind = SchedulerKind::kThread;
  } else if (spec == "coop" || spec == "coop-rr") {
    parsed.kind = SchedulerKind::kCoop;
    parsed.pick = SchedPolicy::kRoundRobin;
  } else if (spec == "coop-random") {
    parsed.kind = SchedulerKind::kCoop;
    parsed.pick = SchedPolicy::kRandomSeeded;
  } else if (spec == "coop-priority") {
    parsed.kind = SchedulerKind::kCoop;
    parsed.pick = SchedPolicy::kPriority;
  } else {
    return false;
  }
  *out = parsed;
  return true;
}

std::string sched_spec(const SchedOptions& options) {
  if (options.kind == SchedulerKind::kThread) return "thread";
  switch (options.pick) {
    case SchedPolicy::kRoundRobin: return "coop-rr";
    case SchedPolicy::kRandomSeeded: return "coop-random";
    case SchedPolicy::kPriority: return "coop-priority";
  }
  return "coop";
}

const SchedOptions& default_sched_options() {
  static const SchedOptions cached = [] {
    SchedOptions options;
    const char* env = std::getenv("DAMPI_SCHED");
    if (env != nullptr && env[0] != '\0' &&
        !parse_sched_spec(env, &options)) {
      DAMPI_LOG(kWarn) << "ignoring unrecognized DAMPI_SCHED value '" << env
                       << "' (want thread|coop|coop-rr|coop-random|"
                          "coop-priority)";
    }
    return options;
  }();
  return cached;
}

}  // namespace dampi::mpism
