// Engine: internal implementation of the mpism runtime.
//
// Shared state is guarded by one engine mutex (EngineLock,
// engine_lock.hpp): every MPI call, collective, communicator operation
// and the count-based deadlock scan runs under it; verdict flags,
// counters, and id assignment are atomics so that cancellation and the
// watchdog never need it. How ranks execute — one OS thread each, or
// cooperative fibers multiplexed run-to-block onto the calling thread,
// in which case the engine takes no lock at all — is delegated to a
// pluggable RankScheduler (mpism/scheduler.hpp); the engine only tells
// it when a rank blocks and whose wake predicate may have flipped. Matching is *eager*: every send
// is matched against posted receives at injection time and every receive
// against queued sends at post time, so the invariant "no pending posted
// receive is compatible with any queued unexpected message" holds at all
// times. Under eager sends this makes "every live rank is blocked" an
// exact deadlock criterion.
#pragma once

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "mpism/comm.hpp"
#include "mpism/engine_lock.hpp"
#include "mpism/envelope.hpp"
#include "mpism/match_index.hpp"
#include "mpism/pool.hpp"
#include "mpism/report.hpp"
#include "mpism/request.hpp"
#include "mpism/runtime.hpp"
#include "mpism/scheduler.hpp"
#include "mpism/tool.hpp"

namespace dampi::mpism {

/// Thrown inside a rank thread when the run has been aborted elsewhere
/// (another rank failed, or a deadlock was detected). Control flow only.
struct AbortRun {};

/// Thrown to report a bug in the program under test.
struct ProgramFailure {
  std::string message;
};

/// User data flowing into a collective (fields used depend on the kind).
struct CollUserData {
  Bytes single;              ///< bcast (root) / reduce / gather / allgather
  std::vector<Bytes> multi;  ///< scatter (root) / alltoall
  ReduceOp op = ReduceOp::kSumU64;
  int color = 0;
  int key = 0;
};

/// User data flowing out of a collective.
struct CollUserResult {
  Bytes single;              ///< bcast / reduce@root / allreduce / scatter
  std::vector<Bytes> multi;  ///< gather@root / allgather / alltoall
  CommId new_comm = kCommNull;
};

/// Where a blocked rank waits, kept as plain fields: only
/// declare_deadlock() formats it, so a block that ends normally never
/// builds a string.
struct BlockSite {
  enum class Op { kRecvWait, kSsendWait, kWaitany, kProbe, kCollective };
  Op op = Op::kWaitany;
  Rank src = 0;  ///< recv wait: world source; probe: comm-relative
  Tag tag = 0;
  CommId comm = kCommNull;
  CollKind coll = CollKind::kBarrier;
  std::uint64_t gen = 0;  ///< collective round on `comm`
};

class Engine {
 public:
  explicit Engine(RunOptions options);
  ~Engine();

  RunReport run(const ProgramFn& program);

  /// External cancellation: ends the run (RunReport::cancelled) from any
  /// thread. Safe at any time — before run() (the run aborts on entry),
  /// during (every rank unwinds), or after completion (no-op). Loses to
  /// an already-declared verdict (deadlock/abort), never overrides one.
  void cancel(const std::string& reason);

  // --- Proc-facing API (travels through the tool stack) -------------------
  RequestId api_isend(Rank r, Rank dst, Tag tag, Bytes payload, CommId comm,
                      bool blocking, bool synchronous);
  RequestId api_irecv(Rank r, Rank src, Tag tag, CommId comm, bool blocking);
  Status api_wait(Rank r, RequestId req, Bytes* out, bool count_stat);
  bool api_test(Rank r, RequestId req, Status* status, Bytes* out);
  void api_waitall(Rank r, std::span<RequestId> reqs);
  std::size_t api_waitany(Rank r, std::span<RequestId> reqs, Status* status,
                          Bytes* out);
  bool api_testall(Rank r, std::span<RequestId> reqs);
  std::size_t api_testany(Rank r, std::span<RequestId> reqs, Status* status,
                          Bytes* out);
  /// flag == nullptr -> blocking probe; otherwise iprobe semantics.
  Status api_probe(Rank r, Rank src, Tag tag, CommId comm, bool* flag);
  CollUserResult api_collective(Rank r, CollKind kind, CommId comm, Rank root,
                                CollUserData data);
  void api_comm_free(Rank r, CommId comm);
  void api_pcontrol(Rank r, int level, const std::string& what);
  void api_compute(Rank r, double us);
  [[noreturn]] void api_fail(Rank r, const std::string& message);

  // --- translation / introspection ----------------------------------------
  int world_size() const { return opts_.nprocs; }
  int comm_size_of(CommId comm);
  Rank comm_rank_of(CommId comm, Rank world);
  Rank to_world(CommId comm, Rank rel);
  Rank to_rel(CommId comm, Rank world);

  // --- ToolCtx raw services (bypass the tool stack) ------------------------
  RequestId raw_isend(Rank r, Rank dst, Tag tag, CommId comm, Bytes payload);
  RequestId raw_irecv(Rank r, Rank src, Tag tag, CommId comm);
  Status raw_wait(Rank r, RequestId req, Bytes* out);
  Status raw_recv(Rank r, Rank src, Tag tag, CommId comm, Bytes* out);
  bool raw_iprobe(Rank r, Rank src, Tag tag, CommId comm, Status* status);
  void raw_barrier(Rank r, CommId comm);
  CommId raw_comm_dup(Rank r, CommId comm);
  void add_cost(Rank r, double us);
  double vtime_of(Rank r);

 private:

  struct PerRank {
    /// Pools are declared before the request table and match index so
    /// they outlive the structures that release into them at teardown.
    SlabPool<RequestRecord> req_pool;
    BufferPool buf_pool;
    /// Virtual clock. Single-writer (the owning rank); read by other
    /// ranks' budget charges and by tools without the engine mutex, so
    /// it is atomic with relaxed ordering.
    std::atomic<double> vtime{0.0};
    bool finished = false;
    bool blocked = false;
    BlockSite block_site;  ///< meaningful while `blocked`
    /// Wake predicate of the blocked operation; consulted by the deadlock
    /// detector so a satisfied-but-not-yet-woken rank is not misread as
    /// stuck.
    std::function<bool()> block_pred;
    /// Unexpected-message and posted-receive queues. Holds non-owning
    /// pointers into `reqs` for posted receives; a record stays indexed
    /// until matched.
    MatchIndex match;
    /// Wildcard-candidate out-buffer, reused across queries so the hot
    /// path stops allocating a vector per receive/probe.
    std::vector<MatchCandidate> cand_buf;
    std::unordered_map<RequestId, PoolPtr<RequestRecord>> reqs;
    std::unordered_map<CommId, std::uint64_t> coll_gen;
    /// Per-(dst, comm) send sequence counters of this rank as *sender*
    /// (key packs dst and comm).
    std::unordered_map<std::uint64_t, std::uint64_t> seq_counters;
    std::vector<std::unique_ptr<ToolLayer>> tools;
    std::unique_ptr<ToolCtx> ctx;

    double vt() const { return vtime.load(std::memory_order_relaxed); }
    void vt_store(double v) { vtime.store(v, std::memory_order_relaxed); }
    void vt_add(double us) { vt_store(vt() + us); }
    void vt_floor(double v) {
      if (v > vt()) vt_store(v);
    }
  };

  struct CollSlot {
    CollKind kind = CollKind::kBarrier;
    Rank root_world = -1;
    int arrived = 0;
    int departed = 0;
    bool root_arrived = false;
    double max_arrival_vtime = 0.0;
    double root_arrival_vtime = 0.0;
    std::vector<Bytes> pb;
    std::vector<Bytes> data;
    std::vector<std::vector<Bytes>> multi;
    std::vector<int> colors;
    std::vector<int> keys;
    ReduceOp op = ReduceOp::kSumU64;
    bool op_set = false;
    // Lazily computed results.
    bool merged_pb_done = false;
    Bytes merged_pb;
    bool reduced_done = false;
    Bytes reduced;
    bool split_done = false;
    std::vector<CommId> comm_of_member;
    CommId dup_comm = kCommNull;
  };

  // Internal primitives; `g` holds the engine mutex.
  RequestId do_isend(EngineGuard& g, Rank r, Rank dst_world, Tag tag,
                     CommId comm, Bytes payload, bool tool_internal,
                     bool synchronous, SendInfo* info);
  RequestId do_irecv(EngineGuard& g, Rank r, Rank src_world, Tag tag,
                     CommId comm, bool tool_internal);
  /// Blocks until `req` completes; does not consume.
  void block_until_complete(EngineGuard& g, Rank r, RequestId req);
  /// Runs post_wait hooks (guard dropped) and consumes the request.
  Status finish_request(EngineGuard& g, Rank r, RequestId req, Bytes* out,
                        bool run_hooks);
  /// Try to match a newly arrived envelope against dst's posted receives.
  /// Returns true when matched (request completed).
  bool match_arrival(Rank dst, Envelope&& env);
  void complete_recv(Rank r, RequestRecord& rec, Envelope&& env);
  /// Fresh pooled request record from r's slab.
  PoolPtr<RequestRecord> new_request(PerRank& me);

  /// Enter the blocked state and wait for `pred`; throws AbortRun when the
  /// run aborts or deadlocks while waiting.
  template <typename Pred>
  void blocking_wait(EngineGuard& g, Rank r, const BlockSite& site,
                     Pred pred);
  /// Called with the engine mutex held right before a rank would block
  /// (or after it finishes); if every other live rank is already
  /// blocked, declares a deadlock. A no-op under schedulers that detect
  /// stalls themselves (coop): there a rank can be runnable-but-
  /// unscheduled, which this count-based check cannot see, so the
  /// scheduler's no-candidate scan is authoritative.
  void maybe_declare_deadlock();
  /// Declares the deadlock verdict; the engine mutex must be held.
  void declare_deadlock();
  /// Watchdog verdict: a per-run budget expired. Idempotent; loses to an
  /// already-declared abort/deadlock. Takes the verdict mutex itself;
  /// callable with or without the engine mutex held.
  void declare_timeout(std::string reason);
  /// Budget accounting at MPI-call entry (engine mutex held): counts the op,
  /// checks the op/vtime/wall budgets, and unwinds via AbortRun when one
  /// expired. A single predicted-false branch when no budget is armed;
  /// the wall-clock read is amortized over a 32-op stride.
  void charge_op(EngineGuard& g, Rank r);
  void abort_all();
  [[noreturn]] void throw_program_error(EngineGuard& g, Rank r,
                                        const std::string& message);
  void check_abort(EngineGuard& g);
  bool stopped() const {
    return aborted_.load(std::memory_order_acquire) ||
           deadlocked_.load(std::memory_order_acquire);
  }

  // Tool hook dispatch (engine mutex not held: hooks may re-enter).
  void hooks_init(Rank r);
  void hooks_finalize(Rank r);
  void hooks_pre_isend(Rank r, SendCall& call);
  void hooks_post_isend(Rank r, const SendCall& call, RequestId id,
                        const SendInfo& info);
  void hooks_pre_irecv(Rank r, RecvCall& call);
  void hooks_post_irecv(Rank r, const RecvCall& call, RequestId id);
  void hooks_pre_wait(Rank r, RequestId id);
  void hooks_post_wait(Rank r, ReqCompletion& completion);
  void hooks_pre_probe(Rank r, ProbeCall& call);
  void hooks_post_probe(Rank r, const ProbeCall& call, bool flag,
                        Status& status);
  void hooks_pre_collective(Rank r, CollCall& call);
  void hooks_post_collective(Rank r, const CollCall& call,
                             const CollResult& result);
  void hooks_pcontrol(Rank r, int level, const std::string& what);

  CollUserResult collective_impl(Rank r, CollKind kind, CommId comm,
                                 Rank root_rel, CollUserData data,
                                 Bytes pb_contribution, bool tool_internal,
                                 CollResult* tool_result);
  void compute_slot_results(CollSlot& slot, const CommRecord& comm_rec,
                            CollKind kind);
  Bytes apply_reduce(EngineGuard& g, Rank r, const CollSlot& slot,
                     const CommRecord& comm_rec);

  void validate_comm_member(EngineGuard& g, Rank r, CommId comm);
  std::uint64_t& seq_counter(PerRank& sender, Rank dst, CommId comm);

  PerRank& pr(Rank r) { return *ranks_[static_cast<std::size_t>(r)]; }

  /// One rank's whole life: tool-stack setup, the program, finalize, and
  /// result accounting. Runs on whatever execution context (OS thread or
  /// fiber) the scheduler provides; must not leak exceptions into it.
  void rank_body(Rank r, const ProgramFn& program);

  RunOptions opts_;
  /// Built before lock_: whether the lock is taken at all depends on
  /// where this scheduler runs the ranks (runs_on_one_thread).
  std::unique_ptr<RankScheduler> sched_;
  EngineLock lock_;
  std::vector<std::unique_ptr<PerRank>> ranks_;
  CommTable comms_;
  /// choose() mutates the policy RNG; serialized by a leaf mutex.
  std::mutex policy_mu_;
  std::unique_ptr<MatchPolicy> policy_;
  /// Collective bookkeeping.
  std::map<std::pair<CommId, std::uint64_t>, CollSlot> coll_slots_;
  std::atomic<std::uint64_t> next_msg_id_{1};
  std::atomic<RequestId> next_req_id_{1};

  std::atomic<int> blocked_count_{0};
  std::atomic<int> finished_count_{0};
  std::atomic<bool> aborted_{false};
  std::atomic<bool> deadlocked_{false};
  std::atomic<bool> timed_out_{false};
  std::atomic<bool> cancelled_{false};
  /// Leaf mutex (ordered after the engine mutex) guarding the verdict strings
  /// and one-winner arbitration between deadlock/timeout/cancel/error.
  std::mutex verdict_mu_;
  std::string stop_reason_;
  std::string deadlock_detail_;
  std::vector<ErrorInfo> errors_;
  bool budgets_armed_ = false;
  bool has_wall_deadline_ = false;
  std::chrono::steady_clock::time_point run_deadline_{};
  std::atomic<std::uint64_t> ops_executed_{0};
  std::atomic<std::uint64_t> messages_sent_{0};
  std::atomic<std::uint64_t> tool_messages_{0};
  std::atomic<std::uint64_t> request_leaks_{0};
  /// Per-rank slots are written under the engine mutex; the
  /// tool-message total lives in tool_messages_ above (cross-rank).
  OpStats stats_;
  /// Envelope small-buffer counters (published as engine.envelope.*).
  std::atomic<std::uint64_t> payload_inline_hits_{0};
  std::atomic<std::uint64_t> payload_heap_spills_{0};

  friend class ToolCtxImpl;
};

}  // namespace dampi::mpism
