// Engine locking: one mutex guards all engine state, and a
// single-threaded engine takes none.
//
// Under the thread scheduler every rank runs on its own OS thread, and
// each engine entry (an MPI call, a collective, the count-based deadlock
// scan, a tool's comm-table query) holds the one engine mutex for its
// critical section. Cross-cutting state (verdict flags, budgets, msg-id
// assignment, virtual clocks) lives in atomics so that paths outside a
// run (Engine::cancel, the watchdog) never need the mutex. Below it sit
// only leaf mutexes — the engine's verdict mutex, the policy RNG mutex,
// and the scheduler's per-rank waiter mutexes — none of which are ever
// held while taking the engine mutex.
//
// Single-threaded engines take no lock at all. When the scheduler that
// was built runs every rank of the engine on one host thread
// (RankScheduler::runs_on_one_thread — the coop fibers), no two engine
// critical sections can ever overlap, so every guard, and the
// unlock()/lock() around parking, is a no-op. Threads outside the run
// may still enter the engine, but only through paths that never take
// the engine mutex (Engine::cancel: the verdict mutex, atomics, and
// scheduler wake hints).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>

#include "common/check.hpp"

namespace dampi::mpism {

class EngineLock {
 public:
  /// `single_thread`: every rank of the engine runs on one host thread,
  /// so the lock is never taken (see the header comment).
  explicit EngineLock(bool single_thread) : single_thread_(single_thread) {}

  /// Contention counters, accumulated relaxed on the hot path and
  /// published to obs once per run (engine.lock.*).
  struct Stats {
    std::uint64_t acquires = 0;   ///< Mutex lock operations.
    std::uint64_t contended = 0;  ///< ... that failed the try_lock fast path.
  };

  Stats stats() const {
    Stats s;
    s.acquires = acquires_.load(std::memory_order_relaxed);
    s.contended = contended_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  friend class EngineGuard;

  void lock() {
    if (single_thread_) return;
    acquires_.fetch_add(1, std::memory_order_relaxed);
    if (mu_.try_lock()) return;
    contended_.fetch_add(1, std::memory_order_relaxed);
    mu_.lock();
  }

  void unlock() {
    if (!single_thread_) mu_.unlock();
  }

  bool single_thread_;
  std::mutex mu_;
  std::atomic<std::uint64_t> acquires_{0};
  std::atomic<std::uint64_t> contended_{0};
};

/// RAII ownership of the engine mutex. unlock()/lock() release and
/// reacquire it — that is what the scheduler's block/yield paths use to
/// park a rank, and what tool hooks run outside of. On a single-thread
/// lock the guard only tracks ownership: no mutex is touched and no
/// statistic counted.
class EngineGuard {
 public:
  explicit EngineGuard(EngineLock& l) : l_(&l) { lock(); }

  EngineGuard(const EngineGuard&) = delete;
  EngineGuard& operator=(const EngineGuard&) = delete;

  ~EngineGuard() {
    if (owned_) unlock();
  }

  void unlock() {
    DAMPI_CHECK(owned_);
    owned_ = false;
    l_->unlock();
  }

  void lock() {
    DAMPI_CHECK(!owned_);
    l_->lock();
    owned_ = true;
  }

 private:
  EngineLock* l_;
  bool owned_ = false;
};

}  // namespace dampi::mpism
