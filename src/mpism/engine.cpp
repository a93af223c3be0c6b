#include "mpism/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>

#include "common/check.hpp"
#include "common/logging.hpp"
#include "common/strutil.hpp"
#include "mpism/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dampi::mpism {
namespace {

constexpr Tag kMaxUserTag = (1 << 30);

bool is_all_style(CollKind kind) {
  switch (kind) {
    case CollKind::kBarrier:
    case CollKind::kAllreduce:
    case CollKind::kAllgather:
    case CollKind::kAlltoall:
    case CollKind::kCommDup:
    case CollKind::kCommSplit:
    case CollKind::kCommFree:
      return true;
    case CollKind::kBcast:
    case CollKind::kScatter:
    case CollKind::kReduce:
    case CollKind::kGather:
      return false;
  }
  return true;
}

bool root_to_leaves(CollKind kind) {
  return kind == CollKind::kBcast || kind == CollKind::kScatter;
}

bool leaves_to_root(CollKind kind) {
  return kind == CollKind::kReduce || kind == CollKind::kGather;
}

std::string describe(const BlockSite& site) {
  using Op = BlockSite::Op;
  switch (site.op) {
    case Op::kRecvWait:
      return strfmt("wait(recv src=%d tag=%d comm=%d)", site.src, site.tag,
                    site.comm);
    case Op::kSsendWait:
      return strfmt("wait(ssend comm=%d)", site.comm);
    case Op::kWaitany:
      return "waitany";
    case Op::kProbe:
      return strfmt("probe(src=%d tag=%d comm=%d)", site.src, site.tag,
                    site.comm);
    case Op::kCollective:
      return strfmt("collective %s comm=%d gen=%llu", coll_kind_name(site.coll),
                    site.comm, static_cast<unsigned long long>(site.gen));
  }
  return {};
}

}  // namespace

// ---------------------------------------------------------------------------
// ToolCtx implementation
// ---------------------------------------------------------------------------

class ToolCtxImpl final : public ToolCtx {
 public:
  ToolCtxImpl(Engine& engine, Rank rank) : e_(&engine), r_(rank) {}

  Rank world_rank() const override { return r_; }
  int world_size() const override { return e_->world_size(); }
  int comm_size(CommId comm) const override { return e_->comm_size_of(comm); }
  Rank comm_rank(CommId comm) const override {
    return e_->comm_rank_of(comm, r_);
  }
  Rank to_world(CommId comm, Rank rel) const override {
    return e_->to_world(comm, rel);
  }
  Rank to_rel(CommId comm, Rank world) const override {
    return e_->to_rel(comm, world);
  }

  RequestId raw_isend(Rank dst, Tag tag, CommId comm, Bytes payload) override {
    return e_->raw_isend(r_, dst, tag, comm, std::move(payload));
  }
  RequestId raw_irecv(Rank src, Tag tag, CommId comm) override {
    return e_->raw_irecv(r_, src, tag, comm);
  }
  Status raw_wait(RequestId req, Bytes* out) override {
    return e_->raw_wait(r_, req, out);
  }
  Status raw_recv(Rank src, Tag tag, CommId comm, Bytes* out) override {
    return e_->raw_recv(r_, src, tag, comm, out);
  }
  bool raw_iprobe(Rank src, Tag tag, CommId comm, Status* status) override {
    return e_->raw_iprobe(r_, src, tag, comm, status);
  }
  void raw_barrier(CommId comm) override { return e_->raw_barrier(r_, comm); }
  CommId raw_comm_dup(CommId comm) override {
    return e_->raw_comm_dup(r_, comm);
  }
  void add_cost(double us) override { e_->add_cost(r_, us); }
  double vtime() const override { return e_->vtime_of(r_); }

 private:
  Engine* e_;
  Rank r_;
};

// ---------------------------------------------------------------------------
// Construction / run loop
// ---------------------------------------------------------------------------

Engine::Engine(RunOptions options)
    : opts_(std::move(options)),
      sched_(opts_.sched, opts_.nprocs) {
  ranks_.reserve(static_cast<std::size_t>(opts_.nprocs));
  for (int i = 0; i < opts_.nprocs; ++i) {
    ranks_.push_back(std::make_unique<PerRank>());
  }
  comms_.init(opts_.nprocs);
  policy_ = make_policy(opts_.policy, opts_.policy_seed);
  stats_.init(opts_.nprocs);
}

Engine::~Engine() = default;

RunReport Engine::run(const ProgramFn& program) {
  const auto t0 = std::chrono::steady_clock::now();
  has_wall_deadline_ = opts_.max_run_wall_seconds > 0.0;
  if (has_wall_deadline_) {
    run_deadline_ =
        t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 std::chrono::duration<double>(opts_.max_run_wall_seconds));
  }
  budgets_armed_ = has_wall_deadline_ || opts_.max_run_vtime_us > 0.0 ||
                   opts_.max_ops > 0;
  // Subscribe for the run's duration; if the source already fired, this
  // cancels on the spot and every rank unwinds at its first MPI call.
  std::uint64_t cancel_sub = 0;
  if (opts_.cancel) {
    cancel_sub = opts_.cancel->subscribe(
        [this](const std::string& reason) { cancel(reason); });
  }
  CoopScheduler::Callbacks cb;
  cb.body = [this, &program](Rank r) { rank_body(r, program); };
  cb.wake_ready = [this](Rank r) {
    const PerRank& p = pr(r);
    return p.block_pred && p.block_pred();
  };
  cb.stop = [this] { return stopped(); };
  cb.on_stall = [this] { declare_deadlock(); };
  if (has_wall_deadline_) {
    cb.deadline = run_deadline_;
    cb.on_deadline = [this] {
      declare_timeout(strfmt("run wall deadline exceeded (%.3f s)",
                             opts_.max_run_wall_seconds));
    };
  }
  sched_.run(cb);
  if (opts_.cancel) opts_.cancel->unsubscribe(cancel_sub);

  RunReport report;
  report.completed = !stopped();
  report.deadlocked = deadlocked_.load(std::memory_order_acquire);
  report.errors = errors_;
  report.deadlock_detail = deadlock_detail_;
  report.timed_out = timed_out_.load(std::memory_order_acquire);
  report.cancelled = cancelled_.load(std::memory_order_acquire);
  report.stop_reason = stop_reason_;
  for (const auto& pr_ptr : ranks_) {
    report.vtime_us = std::max(report.vtime_us, pr_ptr->vt());
  }
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  report.stats = stats_;
  report.stats.tool_messages = tool_messages_;
  report.messages_sent = messages_sent_;
  if (report.completed) {
    report.comm_leaks = comms_.leaked_user_comms();
    report.request_leaks = request_leaks_;
  }

  // Once-per-run registry updates (off every per-op hot path).
  static obs::Counter& runs_metric =
      obs::Registry::instance().counter("engine.runs");
  static obs::Counter& messages_metric =
      obs::Registry::instance().counter("engine.messages_sent");
  static obs::Counter& deadlocks_metric =
      obs::Registry::instance().counter("engine.deadlocks");
  static obs::Counter& timeouts_metric =
      obs::Registry::instance().counter("engine.timed_out");
  static obs::Counter& cancelled_metric =
      obs::Registry::instance().counter("engine.cancelled");
  runs_metric.add(1);
  messages_metric.add(report.messages_sent);
  if (report.deadlocked) deadlocks_metric.add(1);
  if (report.timed_out) timeouts_metric.add(1);
  if (report.cancelled) cancelled_metric.add(1);

  // Pool effectiveness: acquired vs freelist-reused. A warm steady state
  // shows reused converging on acquired (allocation-free matching).
  static obs::Counter& req_acquired_metric =
      obs::Registry::instance().counter("engine.pool.req_acquired");
  static obs::Counter& req_reused_metric =
      obs::Registry::instance().counter("engine.pool.req_reused");
  static obs::Counter& req_slabs_metric =
      obs::Registry::instance().counter("engine.pool.req_slabs");
  static obs::Counter& req_capacity_metric =
      obs::Registry::instance().counter("engine.pool.req_capacity");
  static obs::Counter& node_acquired_metric =
      obs::Registry::instance().counter("engine.pool.node_acquired");
  static obs::Counter& node_reused_metric =
      obs::Registry::instance().counter("engine.pool.node_reused");
  static obs::Counter& buf_acquired_metric =
      obs::Registry::instance().counter("engine.pool.buf_acquired");
  static obs::Counter& buf_reused_metric =
      obs::Registry::instance().counter("engine.pool.buf_reused");
  PoolStats req_total;
  PoolStats nodes;
  BufferPool::Stats buf_total;
  for (const auto& pr_ptr : ranks_) {
    req_total.acquired += pr_ptr->req_pool.stats().acquired;
    req_total.reused += pr_ptr->req_pool.stats().reused;
    req_total.slabs += pr_ptr->req_pool.stats().slabs;
    req_total.capacity += pr_ptr->req_pool.stats().capacity;
    const PoolStats s = pr_ptr->match.pool_stats();
    nodes.acquired += s.acquired;
    nodes.reused += s.reused;
    buf_total.acquired += pr_ptr->buf_pool.stats().acquired;
    buf_total.reused += pr_ptr->buf_pool.stats().reused;
  }
  req_acquired_metric.add(req_total.acquired);
  req_reused_metric.add(req_total.reused);
  req_slabs_metric.add(req_total.slabs);
  req_capacity_metric.add(req_total.capacity);
  node_acquired_metric.add(nodes.acquired);
  node_reused_metric.add(nodes.reused);
  buf_acquired_metric.add(buf_total.acquired);
  buf_reused_metric.add(buf_total.reused);

  // Envelope small-buffer effectiveness.
  static obs::Counter& env_inline_metric =
      obs::Registry::instance().counter("engine.envelope.inline_hits");
  static obs::Counter& env_spill_metric =
      obs::Registry::instance().counter("engine.envelope.heap_spills");
  env_inline_metric.add(payload_inline_hits_);
  env_spill_metric.add(payload_heap_spills_);
  return report;
}

void Engine::rank_body(Rank r, const ProgramFn& program) {
  PerRank& me = pr(r);
  if (opts_.tools.make_stack) {
    me.tools = opts_.tools.make_stack(r, opts_.nprocs);
  }
  me.ctx = std::make_unique<ToolCtxImpl>(*this, r);

  bool finished_normally = false;
  try {
    hooks_init(r);
    Proc proc(*this, r);
    program(proc);
    hooks_finalize(r);
    finished_normally = true;
  } catch (const AbortRun&) {
    // Another rank failed or a deadlock was declared; unwind quietly.
  } catch (const ProgramFailure&) {
    // Error already recorded by throw_program_error / api_fail.
  } catch (const InternalError& e) {
    {
      std::lock_guard<std::mutex> vl(verdict_mu_);
      errors_.push_back({r, std::string("tool internal error: ") + e.what()});
    }
    abort_all();
  } catch (const FaultInjected& e) {
    {
      std::lock_guard<std::mutex> vl(verdict_mu_);
      errors_.push_back({r, std::string("fault injected: ") + e.what()});
    }
    abort_all();
  } catch (const std::exception& e) {
    {
      std::lock_guard<std::mutex> vl(verdict_mu_);
      errors_.push_back({r, std::string("uncaught exception: ") + e.what()});
    }
    abort_all();
  }

  if (finished_normally && !stopped()) {
    for (const auto& [id, rec] : me.reqs) {
      if (!rec->tool_internal) {
        ++request_leaks_;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Blocking / abort machinery
// ---------------------------------------------------------------------------

template <typename Pred>
void Engine::blocking_wait(Rank r, const BlockSite& site, Pred pred) {
  if (pred()) return;
  check_abort();
  PerRank& me = pr(r);
  me.blocked = true;
  me.block_site = site;
  me.block_pred = pred;
  DAMPI_TEVENT(obs::EventKind::kBlock, obs::Phase::kBegin, r,
               static_cast<std::int32_t>(site.op));
  sched_.block(r);
  DAMPI_TEVENT(obs::EventKind::kBlock, obs::Phase::kEnd, r,
               static_cast<std::int32_t>(site.op));
  me.blocked = false;
  me.block_pred = nullptr;
  check_abort();
}

void Engine::declare_deadlock() {
  {
    // The verdict mutex arbitrates against a concurrent cancel/timeout:
    // exactly one of them wins and the rest become no-ops.
    std::lock_guard<std::mutex> vl(verdict_mu_);
    if (stopped()) return;
    DAMPI_TEVENT(obs::EventKind::kDeadlock, obs::Phase::kInstant);
    std::string detail;
    for (Rank r = 0; r < opts_.nprocs; ++r) {
      const PerRank& p = pr(r);
      if (p.blocked) {
        detail += strfmt("rank %d blocked in %s\n", r,
                         describe(p.block_site).c_str());
      }
    }
    deadlock_detail_ = detail;
    deadlocked_.store(true, std::memory_order_release);
  }
  sched_.wake_all();
}

void Engine::abort_all() {
  aborted_.store(true, std::memory_order_release);
  sched_.wake_all();
}

void Engine::declare_timeout(std::string reason) {
  {
    std::lock_guard<std::mutex> vl(verdict_mu_);
    if (stopped()) return;
    timed_out_.store(true, std::memory_order_relaxed);
    stop_reason_ = std::move(reason);
    DAMPI_TEVENT(obs::EventKind::kRunTimeout, obs::Phase::kInstant);
    aborted_.store(true, std::memory_order_release);
  }
  sched_.wake_all();
}

void Engine::cancel(const std::string& reason) {
  {
    std::lock_guard<std::mutex> vl(verdict_mu_);
    if (stopped()) return;
    cancelled_.store(true, std::memory_order_relaxed);
    stop_reason_ = reason.empty() ? "externally cancelled" : reason;
    DAMPI_TEVENT(obs::EventKind::kRunCancel, obs::Phase::kInstant);
    aborted_.store(true, std::memory_order_release);
  }
  sched_.wake_all();
}

void Engine::charge_op(Rank r) {
  if (!budgets_armed_) return;
  const std::uint64_t ops = ++ops_executed_;
  if (opts_.max_ops > 0 && ops > opts_.max_ops) {
    declare_timeout(strfmt("op budget exhausted (%llu ops)",
                           static_cast<unsigned long long>(opts_.max_ops)));
  } else if (opts_.max_run_vtime_us > 0.0 &&
             pr(r).vt() > opts_.max_run_vtime_us) {
    declare_timeout(strfmt("virtual-time budget exhausted (%.0f us)",
                           opts_.max_run_vtime_us));
  } else if (has_wall_deadline_ && (ops & 31) == 0 &&
             std::chrono::steady_clock::now() >= run_deadline_) {
    // The clock read is amortized over 32 ops: a busy rank issues ops
    // microseconds apart, so the detection slack is negligible, while a
    // rank that only blocks or yields is caught by the scheduler's own
    // deadline check in its dispatch loop.
    declare_timeout(strfmt("run wall deadline exceeded (%.3f s)",
                           opts_.max_run_wall_seconds));
  }
  check_abort();
}

void Engine::throw_program_error(Rank r, const std::string& message) {
  {
    std::lock_guard<std::mutex> vl(verdict_mu_);
    errors_.push_back({r, message});
  }
  abort_all();
  throw ProgramFailure{message};
}

void Engine::check_abort() {
  if (stopped()) throw AbortRun{};
}

// ---------------------------------------------------------------------------
// Matching engine primitives
// ---------------------------------------------------------------------------

std::uint64_t& Engine::seq_counter(PerRank& sender, Rank dst, CommId comm) {
  // Pack the pair; each component is comfortably below 2^20. The counter
  // map lives in the *sender's* PerRank, so a (src, dst, comm) key drops
  // the src component.
  const std::uint64_t key = (static_cast<std::uint64_t>(dst) << 20) |
                            static_cast<std::uint64_t>(comm);
  return sender.seq_counters[key];
}

RequestId Engine::do_isend(Rank r, Rank dst_world, Tag tag, CommId comm,
                           Bytes payload, bool tool_internal, bool synchronous,
                           SendInfo* info) {
  PerRank& me = pr(r);
  me.vt_add(opts_.cost.send_overhead_us +
            opts_.cost.send_per_byte_us * static_cast<double>(payload.size()));

  Envelope env;
  env.src_world = r;
  env.dst_world = dst_world;
  env.tag = tag;
  env.comm = comm;
  env.seq = seq_counter(me, dst_world, comm)++;
  env.msg_id = next_msg_id_++;
  env.arrival_vtime =
      me.vt() + opts_.cost.message_transit_us(payload.size());
  env.payload = Payload(std::move(payload), &me.buf_pool);
  env.tool_internal = tool_internal;
  if (env.payload.is_inline()) {
    ++payload_inline_hits_;
  } else {
    ++payload_heap_spills_;
  }

  if (tool_internal) {
    ++tool_messages_;
  } else {
    ++messages_sent_;
  }
  if (info != nullptr) {
    info->seq = env.seq;
    info->msg_id = env.msg_id;
    info->dst_world = dst_world;
  }

  RequestId id = kNullRequest;
  if (!tool_internal) {
    // Eager sends complete immediately; synchronous sends only complete
    // when matched (rendezvous). Either way the user must still consume
    // the request (wait/test) — unconsumed send requests are leaks.
    PoolPtr<RequestRecord> rec = new_request(me);
    rec->id = next_req_id_++;
    rec->kind = ReqKind::kSend;
    rec->owner_world = r;
    rec->comm = comm;
    rec->complete = !synchronous;
    rec->post_vtime = me.vt();
    id = rec->id;
    RequestRecord* rec_raw = rec.get();
    me.reqs.emplace(id, std::move(rec));
    if (synchronous) {
      env.sender_req = id;
      env.sender_world = r;
      env.sender_rec = rec_raw;
    }
  }

  match_arrival(dst_world, std::move(env));
  return id;
}

PoolPtr<RequestRecord> Engine::new_request(PerRank& me) {
  return PoolPtr<RequestRecord>(me.req_pool.acquire(),
                                PoolDeleter<RequestRecord>(&me.req_pool));
}

bool Engine::match_arrival(Rank dst, Envelope&& env) {
  PerRank& receiver = pr(dst);
  // Earliest-posted compatible receive (the record stays owned by the
  // request table; completion does not consume it).
  RequestRecord* rec = receiver.match.match_posted(env);
  if (rec != nullptr) {
    DAMPI_TEVENT(obs::EventKind::kSendMatch, obs::Phase::kInstant,
                 env.src_world, env.dst_world, env.tag);
    complete_recv(dst, *rec, std::move(env));
    return true;
  }
  DAMPI_TEVENT(obs::EventKind::kSendQueued, obs::Phase::kInstant,
               env.src_world, env.dst_world, env.tag);
  receiver.match.push_unexpected(std::move(env));
  // A rank blocked in a probe may now have a matchable message.
  sched_.wake(dst);
  return false;
}

void Engine::complete_recv(Rank r, RequestRecord& rec, Envelope&& env) {
  if (env.sender_rec != nullptr) {
    // Rendezvous: the matching receive releases the synchronous sender;
    // the release (ack) reaches it one latency after the match. Slab
    // addresses are stable, and an incomplete send cannot be consumed,
    // so the sender's record outlives this write.
    env.sender_rec->complete_vtime =
        std::max(pr(r).vt(), env.arrival_vtime) + opts_.cost.latency_us;
    env.sender_rec->complete = true;
    sched_.wake(env.sender_world);
  }
  rec.msg = std::move(env);
  rec.complete = true;
  sched_.wake(r);
}

RequestId Engine::do_irecv(Rank r, Rank src_world, Tag tag, CommId comm,
                           bool tool_internal) {
  PerRank& me = pr(r);
  PoolPtr<RequestRecord> rec = new_request(me);
  rec->id = next_req_id_++;
  rec->kind = ReqKind::kRecv;
  rec->owner_world = r;
  rec->posted_src_world = src_world;
  rec->posted_tag = tag;
  rec->comm = comm;
  rec->tool_internal = tool_internal;
  rec->post_vtime = me.vt();
  const RequestId id = rec->id;
  RequestRecord& rec_ref = *rec;
  me.reqs.emplace(id, std::move(rec));

  if (src_world == kAnySource) {
    std::vector<MatchCandidate>& cands = me.cand_buf;
    me.match.wildcard_candidates(tag, comm, &cands);
    if (!cands.empty()) {
      std::size_t pick = 0;
      if (cands.size() > 1) pick = policy_->choose(cands);
      DAMPI_CHECK(pick < cands.size());
      DAMPI_TEVENT(obs::EventKind::kRecvMatch, obs::Phase::kInstant,
                   cands[pick].src_world, r, cands[pick].tag);
      complete_recv(r, rec_ref, me.match.take(cands[pick].msg_id));
      return id;
    }
  } else {
    const Envelope* env = me.match.find_specific(src_world, tag, comm);
    if (env != nullptr) {
      DAMPI_TEVENT(obs::EventKind::kRecvMatch, obs::Phase::kInstant,
                   env->src_world, r, env->tag);
      complete_recv(r, rec_ref, me.match.take(env->msg_id));
      return id;
    }
  }
  DAMPI_TEVENT(obs::EventKind::kRecvPost, obs::Phase::kInstant, src_world, 0,
               tag);
  me.match.post_recv(&rec_ref);
  return id;
}

void Engine::block_until_complete(Rank r, RequestId req) {
  PerRank& me = pr(r);
  auto it = me.reqs.find(req);
  DAMPI_CHECK(it != me.reqs.end());
  RequestRecord* rec = it->second.get();
  if (rec->complete) return;
  BlockSite site;
  site.op = rec->kind == ReqKind::kSend ? BlockSite::Op::kSsendWait
                                        : BlockSite::Op::kRecvWait;
  site.src = rec->posted_src_world;
  site.tag = rec->posted_tag;
  site.comm = rec->comm;
  blocking_wait(r, site, [rec] {
    return rec->complete;
  });
}

Status Engine::finish_request(Rank r, RequestId req, Bytes* out,
                              bool run_hooks) {
  PerRank& me = pr(r);
  // Extract the record so hook-issued raw operations cannot invalidate it.
  auto node = me.reqs.extract(req);
  DAMPI_CHECK_MSG(!node.empty(), "request vanished during completion");
  PoolPtr<RequestRecord> rec = std::move(node.mapped());
  DAMPI_CHECK(rec->complete);

  Status status;
  // A synchronous send's completion waits for the remote match.
  me.vt_floor(rec->complete_vtime);
  if (rec->kind == ReqKind::kRecv) {
    me.vt_store(std::max(me.vt(), rec->msg.arrival_vtime) +
                opts_.cost.recv_overhead_us);
    status.source = comms_.to_rel(rec->comm, rec->msg.src_world);
    status.tag = rec->msg.tag;
    status.bytes = rec->msg.payload.size();
    status.seq = rec->msg.seq;
    status.msg_id = rec->msg.msg_id;
  }

  if (run_hooks) {
    ReqCompletion completion;
    completion.id = rec->id;
    completion.kind = rec->kind;
    completion.comm = rec->comm;
    completion.posted_src = rec->kind == ReqKind::kRecv
                                ? comms_.to_rel(rec->comm,
                                                rec->posted_src_world)
                                : kAnySource;
    if (rec->posted_src_world == kAnySource) completion.posted_src = kAnySource;
    completion.posted_tag = rec->posted_tag;
    completion.src_world = rec->msg.src_world;
    completion.tag = rec->msg.tag;
    completion.seq = rec->msg.seq;
    completion.msg_id = rec->msg.msg_id;
    completion.status = status;
    // Materialize the payload (hooks mutate it in place — piggyback
    // strip).
    Bytes hook_payload = rec->msg.payload.release(&me.buf_pool);
    completion.payload = &hook_payload;
    hooks_post_wait(r, completion);
    status = completion.status;
    if (rec->kind == ReqKind::kRecv && out != nullptr) {
      *out = std::move(hook_payload);
    } else {
      // Dropped payload: keep its capacity for the next internal copy.
      me.buf_pool.recycle(std::move(hook_payload));
    }
  } else if (rec->kind == ReqKind::kRecv) {
    if (out != nullptr) {
      *out = rec->msg.payload.release(&me.buf_pool);
    } else {
      rec->msg.payload.recycle_into(me.buf_pool);
    }
  }
  return status;
}

// ---------------------------------------------------------------------------
// Proc-facing API
// ---------------------------------------------------------------------------

void Engine::validate_comm_member(Rank r, CommId comm) {
  if (!comms_.valid(comm)) {
    throw_program_error(r, strfmt("operation on invalid communicator %d", comm));
  }
  if (!comms_.get(comm).contains_world(r)) {
    throw_program_error(
        r, strfmt("rank %d is not a member of communicator %d", r, comm));
  }
}

RequestId Engine::api_isend(Rank r, Rank dst, Tag tag, Bytes payload,
                            CommId comm, bool blocking, bool synchronous) {
  SendCall call;
  call.dst = dst;
  call.tag = tag;
  call.comm = comm;
  call.payload = &payload;
  call.blocking = blocking;
  hooks_pre_isend(r, call);

  check_abort();
  charge_op(r);
  validate_comm_member(r, call.comm);
  if (call.tag < 0 || call.tag > kMaxUserTag) {
    throw_program_error(r, strfmt("invalid send tag %d", call.tag));
  }
  const int csize = comms_.get(call.comm).size();
  if (call.dst < 0 || call.dst >= csize) {
    throw_program_error(r, strfmt("send to invalid rank %d", call.dst));
  }
  stats_.bump(OpCategory::kSendRecv, r);
  pr(r).vt_add(opts_.cost.local_op_us);
  const Rank dst_world = comms_.to_world(call.comm, call.dst);
  SendInfo info;
  const RequestId id =
      do_isend(r, dst_world, call.tag, call.comm, std::move(*call.payload),
               false, synchronous, &info);
  hooks_post_isend(r, call, id, info);
  return id;
}

RequestId Engine::api_irecv(Rank r, Rank src, Tag tag, CommId comm,
                            bool blocking) {
  RecvCall call;
  call.src = src;
  call.tag = tag;
  call.comm = comm;
  call.blocking = blocking;
  hooks_pre_irecv(r, call);

  check_abort();
  charge_op(r);
  validate_comm_member(r, call.comm);
  if (call.tag < kAnyTag || call.tag > kMaxUserTag) {
    throw_program_error(r, strfmt("invalid recv tag %d", call.tag));
  }
  const int csize = comms_.get(call.comm).size();
  if (call.src != kAnySource && (call.src < 0 || call.src >= csize)) {
    throw_program_error(r, strfmt("recv from invalid rank %d", call.src));
  }
  stats_.bump(OpCategory::kSendRecv, r);
  pr(r).vt_add(opts_.cost.local_op_us);
  const Rank src_world = comms_.to_world(call.comm, call.src);
  const RequestId id = do_irecv(r, src_world, call.tag, call.comm, false);
  hooks_post_irecv(r, call, id);
  return id;
}

Status Engine::api_wait(Rank r, RequestId req, Bytes* out, bool count_stat) {
  if (count_stat) hooks_pre_wait(r, req);

  check_abort();
  charge_op(r);
  if (pr(r).reqs.find(req) == pr(r).reqs.end()) {
    throw_program_error(r, "wait on invalid or consumed request");
  }
  if (count_stat) stats_.bump(OpCategory::kWait, r);
  pr(r).vt_add(opts_.cost.local_op_us);
  block_until_complete(r, req);
  return finish_request(r, req, out, /*run_hooks=*/true);
}

bool Engine::api_test(Rank r, RequestId req, Status* status, Bytes* out) {
  hooks_pre_wait(r, req);

  check_abort();
  charge_op(r);
  auto it = pr(r).reqs.find(req);
  if (it == pr(r).reqs.end()) {
    throw_program_error(r, "test on invalid or consumed request");
  }
  stats_.bump(OpCategory::kWait, r);
  pr(r).vt_add(opts_.cost.local_op_us);
  if (!it->second->complete) {
    // A failed poll is a scheduling point: under run-to-block execution
    // the polling rank must cede the host or a test loop starves the
    // very ranks that would complete the request.
    sched_.yield(r);
    return false;
  }
  Status st = finish_request(r, req, out, /*run_hooks=*/true);
  if (status != nullptr) *status = st;
  return true;
}

void Engine::api_waitall(Rank r, std::span<RequestId> reqs) {
  if (!reqs.empty()) hooks_pre_wait(r, reqs[0]);
  bool first = true;
  for (RequestId& req : reqs) {
    if (req == kNullRequest) continue;
    check_abort();
    charge_op(r);
    if (pr(r).reqs.find(req) == pr(r).reqs.end()) {
      throw_program_error(r, "waitall on invalid or consumed request");
    }
    if (first) {
      stats_.bump(OpCategory::kWait, r);
      pr(r).vt_add(opts_.cost.local_op_us);
      first = false;
    }
    block_until_complete(r, req);
    finish_request(r, req, nullptr, /*run_hooks=*/true);
    req = kNullRequest;
  }
}

std::size_t Engine::api_waitany(Rank r, std::span<RequestId> reqs,
                                Status* status, Bytes* out) {
  if (!reqs.empty()) hooks_pre_wait(r, reqs[0]);

  check_abort();
  charge_op(r);
  stats_.bump(OpCategory::kWait, r);
  pr(r).vt_add(opts_.cost.local_op_us);

  std::vector<RequestRecord*> recs(reqs.size(), nullptr);
  bool any_live = false;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (reqs[i] == kNullRequest) continue;
    auto it = pr(r).reqs.find(reqs[i]);
    if (it == pr(r).reqs.end()) {
      throw_program_error(r, "waitany on invalid or consumed request");
    }
    recs[i] = it->second.get();
    any_live = true;
  }
  if (!any_live) {
    throw_program_error(r, "waitany with no live requests");
  }
  auto ready_index = [&recs]() -> std::size_t {
    for (std::size_t i = 0; i < recs.size(); ++i) {
      if (recs[i] != nullptr &&
          recs[i]->complete) {
        return i;
      }
    }
    return recs.size();
  };
  blocking_wait(r, BlockSite{.op = BlockSite::Op::kWaitany},
                [&] { return ready_index() < recs.size(); });
  const std::size_t idx = ready_index();
  DAMPI_CHECK(idx < recs.size());
  Status st = finish_request(r, reqs[idx], out, /*run_hooks=*/true);
  if (status != nullptr) *status = st;
  reqs[idx] = kNullRequest;
  return idx;
}

bool Engine::api_testall(Rank r, std::span<RequestId> reqs) {
  if (!reqs.empty()) hooks_pre_wait(r, reqs[0]);
  check_abort();
  charge_op(r);
  stats_.bump(OpCategory::kWait, r);
  pr(r).vt_add(opts_.cost.local_op_us);
  for (const RequestId req : reqs) {
    if (req == kNullRequest) continue;
    auto it = pr(r).reqs.find(req);
    if (it == pr(r).reqs.end()) {
      throw_program_error(r, "testall on invalid or consumed request");
    }
    if (!it->second->complete) {
      // MPI: consume all or none.
      sched_.yield(r);
      return false;
    }
  }
  for (RequestId& req : reqs) {
    if (req == kNullRequest) continue;
    finish_request(r, req, nullptr, /*run_hooks=*/true);
    req = kNullRequest;
  }
  return true;
}

std::size_t Engine::api_testany(Rank r, std::span<RequestId> reqs,
                                Status* status, Bytes* out) {
  if (!reqs.empty()) hooks_pre_wait(r, reqs[0]);
  check_abort();
  charge_op(r);
  stats_.bump(OpCategory::kWait, r);
  pr(r).vt_add(opts_.cost.local_op_us);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (reqs[i] == kNullRequest) continue;
    auto it = pr(r).reqs.find(reqs[i]);
    if (it == pr(r).reqs.end()) {
      throw_program_error(r, "testany on invalid or consumed request");
    }
    if (it->second->complete) {
      Status st = finish_request(r, reqs[i], out, /*run_hooks=*/true);
      if (status != nullptr) *status = st;
      reqs[i] = kNullRequest;
      return i;
    }
  }
  sched_.yield(r);
  return reqs.size();
}

Status Engine::api_probe(Rank r, Rank src, Tag tag, CommId comm, bool* flag) {
  ProbeCall call;
  call.src = src;
  call.tag = tag;
  call.comm = comm;
  call.blocking = (flag == nullptr);
  hooks_pre_probe(r, call);

  check_abort();
  charge_op(r);
  validate_comm_member(r, call.comm);
  stats_.bump(OpCategory::kSendRecv, r);
  pr(r).vt_add(opts_.cost.local_op_us);
  const Rank src_world = comms_.to_world(call.comm, call.src);

  auto exists = [this, r, src_world, &call]() -> bool {
    if (src_world == kAnySource) {
      return pr(r).match.has_candidates(call.tag, call.comm);
    }
    return pr(r).match.find_specific(src_world, call.tag, call.comm) !=
           nullptr;
  };

  bool found = exists();
  if (!found && call.blocking) {
    BlockSite site;
    site.op = BlockSite::Op::kProbe;
    site.src = call.src;
    site.tag = call.tag;
    site.comm = call.comm;
    // Captured by reference: fits std::function's inline buffer.
    blocking_wait(r, site, [&exists] { return exists(); });
    found = true;
  } else if (!found) {
    sched_.yield(r);  // iprobe miss: see api_test
  }

  Status status;
  if (found) {
    const Envelope* env = nullptr;
    if (src_world == kAnySource) {
      std::vector<MatchCandidate>& cands = pr(r).cand_buf;
      pr(r).match.wildcard_candidates(call.tag, call.comm, &cands);
      DAMPI_CHECK(!cands.empty());
      std::size_t pick = 0;
      if (cands.size() > 1) pick = policy_->choose(cands);
      env = pr(r).match.find_by_id(cands[pick].msg_id);
    } else {
      env = pr(r).match.find_specific(src_world, call.tag, call.comm);
    }
    DAMPI_CHECK(env != nullptr);
    status.source = comms_.to_rel(call.comm, env->src_world);
    status.tag = env->tag;
    status.bytes = env->payload.size();
    status.seq = env->seq;
    status.msg_id = env->msg_id;
    pr(r).vt_store(std::max(pr(r).vt(), env->arrival_vtime) +
                   opts_.cost.local_op_us);
  }
  hooks_post_probe(r, call, found, status);
  if (flag != nullptr) *flag = found;
  return status;
}

// ---------------------------------------------------------------------------
// Collectives
// ---------------------------------------------------------------------------

Bytes Engine::apply_reduce(Rank r, const CollSlot& slot,
                           const CommRecord& comm_rec) {
  const std::size_t n = slot.data.empty() ? 0 : slot.data[0].size();
  for (const Bytes& b : slot.data) {
    if (b.size() != n) {
      throw_program_error(r, "reduce contributions differ in length");
    }
  }
  if (n % 8 != 0) {
    throw_program_error(r, "reduce contribution not a multiple of 8");
  }
  const std::size_t words = n / 8;
  const bool is_f64 = slot.op == ReduceOp::kSumF64 ||
                      slot.op == ReduceOp::kMaxF64 ||
                      slot.op == ReduceOp::kMinF64;
  Bytes out = pr(r).buf_pool.copy_of(slot.data[0]);
  for (int m = 1; m < comm_rec.size(); ++m) {
    const Bytes& in = slot.data[static_cast<std::size_t>(m)];
    for (std::size_t w = 0; w < words; ++w) {
      if (is_f64) {
        double a, b;
        std::memcpy(&a, out.data() + w * 8, 8);
        std::memcpy(&b, in.data() + w * 8, 8);
        switch (slot.op) {
          case ReduceOp::kSumF64: a += b; break;
          case ReduceOp::kMaxF64: a = std::max(a, b); break;
          case ReduceOp::kMinF64: a = std::min(a, b); break;
          default: break;
        }
        std::memcpy(out.data() + w * 8, &a, 8);
      } else {
        std::uint64_t a, b;
        std::memcpy(&a, out.data() + w * 8, 8);
        std::memcpy(&b, in.data() + w * 8, 8);
        switch (slot.op) {
          case ReduceOp::kSumU64: a += b; break;
          case ReduceOp::kMaxU64: a = std::max(a, b); break;
          case ReduceOp::kMinU64: a = std::min(a, b); break;
          default: break;
        }
        std::memcpy(out.data() + w * 8, &a, 8);
      }
    }
  }
  return out;
}

void Engine::compute_slot_results(CollSlot& slot, const CommRecord& comm_rec,
                                  CollKind kind) {
  if (slot.split_done) return;
  slot.split_done = true;
  if (kind == CollKind::kCommDup) {
    slot.dup_comm = comms_.create(comm_rec.members, /*tool_internal=*/false);
    return;
  }
  // comm_split: group members by color, order by (key, world rank).
  slot.comm_of_member.assign(static_cast<std::size_t>(comm_rec.size()),
                             kCommNull);
  std::map<int, std::vector<std::pair<int, Rank>>> groups;
  for (int m = 0; m < comm_rec.size(); ++m) {
    const int color = slot.colors[static_cast<std::size_t>(m)];
    if (color < 0) continue;  // MPI_UNDEFINED
    groups[color].push_back({slot.keys[static_cast<std::size_t>(m)],
                             comm_rec.members[static_cast<std::size_t>(m)]});
  }
  for (auto& [color, entries] : groups) {
    std::sort(entries.begin(), entries.end());
    std::vector<Rank> members;
    members.reserve(entries.size());
    for (auto& [key, world] : entries) members.push_back(world);
    const CommId id = comms_.create(members, /*tool_internal=*/false);
    for (int m = 0; m < comm_rec.size(); ++m) {
      if (slot.colors[static_cast<std::size_t>(m)] == color) {
        slot.comm_of_member[static_cast<std::size_t>(m)] = id;
      }
    }
  }
}

CollUserResult Engine::collective_impl(Rank r, CollKind kind, CommId comm,
                                       Rank root_rel, CollUserData data,
                                       Bytes pb_contribution,
                                       bool tool_internal,
                                       CollResult* tool_result) {
  check_abort();
  if (!tool_internal) charge_op(r);
  validate_comm_member(r, comm);
  DAMPI_TEVENT(obs::EventKind::kCollective, obs::Phase::kBegin,
               static_cast<std::int32_t>(kind), comm);
  // Records are address-stable (CommTable), and a communicator's member
  // list never changes, so the reference outlives the wait below.
  const CommRecord& comm_rec = comms_.get(comm);
  const int size = comm_rec.size();
  const Rank cr = comm_rec.world_to_comm[static_cast<std::size_t>(r)];
  const bool rooted = root_to_leaves(kind) || leaves_to_root(kind);
  if (rooted && (root_rel < 0 || root_rel >= size)) {
    throw_program_error(r, strfmt("invalid collective root %d", root_rel));
  }
  const Rank root_world = rooted ? comm_rec.members[static_cast<std::size_t>(
                                       root_rel)]
                                 : -1;

  if (!tool_internal) {
    stats_.bump(OpCategory::kCollective, r);
  }
  pr(r).vt_add(opts_.cost.local_op_us);

  const std::uint64_t gen = pr(r).coll_gen[comm]++;
  CollSlot& slot = coll_slots_[{comm, gen}];
  if (slot.arrived == 0) {
    slot.kind = kind;
    slot.root_world = root_world;
    slot.pb.resize(static_cast<std::size_t>(size));
    slot.data.resize(static_cast<std::size_t>(size));
    slot.multi.resize(static_cast<std::size_t>(size));
    slot.colors.assign(static_cast<std::size_t>(size), 0);
    slot.keys.assign(static_cast<std::size_t>(size), 0);
  } else {
    if (slot.kind != kind || slot.root_world != root_world) {
      throw_program_error(
          r, strfmt("collective mismatch on comm %d: rank %d called %s but the "
                 "operation in flight is %s",
                 comm, r, coll_kind_name(kind), coll_kind_name(slot.kind)));
    }
  }
  if (kind == CollKind::kReduce || kind == CollKind::kAllreduce) {
    if (slot.op_set && slot.op != data.op) {
      throw_program_error(r, "mismatched reduce operators");
    }
    slot.op = data.op;
    slot.op_set = true;
  }
  if (kind == CollKind::kScatter && cr == root_rel &&
      static_cast<int>(data.multi.size()) != size) {
    throw_program_error(r, "scatter requires one slice per member");
  }
  if (kind == CollKind::kAlltoall &&
      static_cast<int>(data.multi.size()) != size) {
    throw_program_error(r, "alltoall requires one slice per member");
  }

  slot.pb[static_cast<std::size_t>(cr)] = std::move(pb_contribution);
  slot.data[static_cast<std::size_t>(cr)] = std::move(data.single);
  slot.multi[static_cast<std::size_t>(cr)] = std::move(data.multi);
  slot.colors[static_cast<std::size_t>(cr)] = data.color;
  slot.keys[static_cast<std::size_t>(cr)] = data.key;
  ++slot.arrived;
  slot.max_arrival_vtime = std::max(slot.max_arrival_vtime, pr(r).vt());
  if (rooted && cr == root_rel) {
    slot.root_arrived = true;
    slot.root_arrival_vtime = pr(r).vt();
  }

  // Wake members whose completion predicate may have flipped.
  const bool all_arrived = slot.arrived == size;
  if (is_all_style(kind) && all_arrived) {
    for (Rank w : comm_rec.members) sched_.wake(w);
  } else if (root_to_leaves(kind) && slot.root_arrived && cr == root_rel) {
    for (Rank w : comm_rec.members) sched_.wake(w);
  } else if (leaves_to_root(kind) && all_arrived) {
    sched_.wake(root_world);
  }

  // Completion predicate for this rank.
  auto my_pred = [&slot, kind, cr, root_rel, size]() -> bool {
    if (is_all_style(kind)) return slot.arrived == size;
    if (root_to_leaves(kind)) return cr == root_rel || slot.root_arrived;
    return cr != root_rel || slot.arrived == size;  // leaves_to_root
  };
  if (!my_pred()) {
    BlockSite site;
    site.op = BlockSite::Op::kCollective;
    site.comm = comm;
    site.coll = kind;
    site.gen = gen;
    // Captured by reference: fits std::function's inline buffer.
    blocking_wait(r, site, [&my_pred] { return my_pred(); });
  }

  // Completion virtual time.
  const double coll_cost = opts_.cost.collective_us(size);
  double done_vtime;
  if (is_all_style(kind)) {
    done_vtime = slot.max_arrival_vtime + coll_cost;
  } else if (root_to_leaves(kind)) {
    done_vtime = cr == root_rel
                     ? pr(r).vt() + coll_cost
                     : std::max(pr(r).vt(),
                                slot.root_arrival_vtime + coll_cost);
  } else {  // leaves_to_root
    done_vtime = cr == root_rel ? slot.max_arrival_vtime + coll_cost
                                : pr(r).vt() + coll_cost;
  }
  pr(r).vt_floor(done_vtime);

  // Extract user-visible results.
  BufferPool& bufs = pr(r).buf_pool;
  CollUserResult result;
  switch (kind) {
    case CollKind::kBarrier:
      break;
    case CollKind::kBcast:
      result.single =
          bufs.copy_of(slot.data[static_cast<std::size_t>(root_rel)]);
      break;
    case CollKind::kReduce:
      if (cr == root_rel) {
        if (!slot.reduced_done) {
          slot.reduced = apply_reduce(r, slot, comm_rec);
          slot.reduced_done = true;
        }
        result.single = bufs.copy_of(slot.reduced);
      }
      break;
    case CollKind::kAllreduce:
      if (!slot.reduced_done) {
        slot.reduced = apply_reduce(r, slot, comm_rec);
        slot.reduced_done = true;
      }
      result.single = bufs.copy_of(slot.reduced);
      break;
    case CollKind::kGather:
      if (cr == root_rel) result.multi = slot.data;
      break;
    case CollKind::kScatter: {
      const auto& slices = slot.multi[static_cast<std::size_t>(root_rel)];
      result.single = bufs.copy_of(slices[static_cast<std::size_t>(cr)]);
      break;
    }
    case CollKind::kAllgather:
      result.multi = slot.data;
      break;
    case CollKind::kAlltoall: {
      result.multi.resize(static_cast<std::size_t>(size));
      for (int m = 0; m < size; ++m) {
        const auto& their = slot.multi[static_cast<std::size_t>(m)];
        if (static_cast<int>(their.size()) == size) {
          result.multi[static_cast<std::size_t>(m)] =
              bufs.copy_of(their[static_cast<std::size_t>(cr)]);
        }
      }
      break;
    }
    case CollKind::kCommFree:
      // All members have arrived (all-style); release the communicator
      // exactly once.
      if (!slot.split_done) {
        slot.split_done = true;
        comms_.free(comm);
      }
      break;
    case CollKind::kCommDup:
    case CollKind::kCommSplit: {
      compute_slot_results(slot, comm_rec, kind);
      if (kind == CollKind::kCommDup) {
        result.new_comm = slot.dup_comm;
        if (tool_internal) {
          // Tool shadow communicators are exempt from leak accounting.
          // compute_slot_results created it as a user comm for the first
          // departer; flip the flag exactly once.
          // (All participants of a raw_comm_dup are tool-internal calls.)
        }
      } else {
        result.new_comm = slot.comm_of_member[static_cast<std::size_t>(cr)];
      }
      break;
    }
  }

  // Piggyback routing for tool layers.
  if (tool_result != nullptr) {
    tool_result->new_comm = result.new_comm;
    auto any_pb = [&slot]() {
      for (const Bytes& b : slot.pb) {
        if (!b.empty()) return true;
      }
      return false;
    };
    if (is_all_style(kind) || (leaves_to_root(kind) && cr == root_rel)) {
      if (!slot.merged_pb_done && any_pb()) {
        DAMPI_CHECK_MSG(static_cast<bool>(opts_.tools.coll_merge),
                        "collective piggyback requires a merge function");
        std::vector<Bytes> present;
        for (const Bytes& b : slot.pb) {
          if (!b.empty()) present.push_back(b);
        }
        slot.merged_pb = opts_.tools.coll_merge(present);
        slot.merged_pb_done = true;
      }
      if (slot.merged_pb_done) {
        tool_result->has_incoming = true;
        tool_result->incoming = bufs.copy_of(slot.merged_pb);
      }
    } else if (root_to_leaves(kind) && cr != root_rel) {
      const Bytes& root_pb = slot.pb[static_cast<std::size_t>(root_rel)];
      if (!root_pb.empty()) {
        tool_result->has_incoming = true;
        tool_result->incoming = bufs.copy_of(root_pb);
      }
    }
  }

  ++slot.departed;
  if (slot.departed == size) {
    // The slot's scratch buffers are dead; keep their capacity so the
    // next collective round's contributions and copies do not allocate.
    for (Bytes& b : slot.pb) bufs.recycle(std::move(b));
    for (Bytes& b : slot.data) bufs.recycle(std::move(b));
    for (auto& v : slot.multi) {
      for (Bytes& b : v) bufs.recycle(std::move(b));
    }
    bufs.recycle(std::move(slot.merged_pb));
    bufs.recycle(std::move(slot.reduced));
    coll_slots_.erase({comm, gen});
  }
  DAMPI_TEVENT(obs::EventKind::kCollective, obs::Phase::kEnd,
               static_cast<std::int32_t>(kind), comm);
  return result;
}

CollUserResult Engine::api_collective(Rank r, CollKind kind, CommId comm,
                                      Rank root, CollUserData data) {
  CollCall call;
  call.kind = kind;
  call.comm = comm;
  call.root = root;
  hooks_pre_collective(r, call);
  CollResult tool_result;
  CollUserResult result =
      collective_impl(r, kind, call.comm, call.root, std::move(data),
                      std::move(call.pb_contribution), false, &tool_result);
  hooks_post_collective(r, call, tool_result);
  return result;
}

void Engine::api_comm_free(Rank r, CommId comm) {
  // MPI_Comm_free is collective over the communicator: synchronize all
  // members (all-style), then release it exactly once.
  check_abort();
  if (comm == kCommWorld) {
    throw_program_error(r, "cannot free MPI_COMM_WORLD");
  }
  if (!comms_.valid(comm)) {
    throw_program_error(r, strfmt("freeing invalid communicator %d", comm));
  }
  api_collective(r, CollKind::kCommFree, comm, 0, {});
}

void Engine::api_pcontrol(Rank r, int level, const std::string& what) {
  check_abort();
  charge_op(r);
  stats_.bump(OpCategory::kOther, r);
  pr(r).vt_add(opts_.cost.local_op_us);
  hooks_pcontrol(r, level, what);
}

void Engine::api_compute(Rank r, double us) {
  check_abort();
  charge_op(r);
  pr(r).vt_add(us);
}

void Engine::api_fail(Rank r, const std::string& message) {
  {
    std::lock_guard<std::mutex> vl(verdict_mu_);
    errors_.push_back({r, message});
  }
  abort_all();
  throw ProgramFailure{message};
}

// ---------------------------------------------------------------------------
// Translation / introspection
// ---------------------------------------------------------------------------

int Engine::comm_size_of(CommId comm) { return comms_.get(comm).size(); }

Rank Engine::comm_rank_of(CommId comm, Rank world) {
  return comms_.to_rel(comm, world);
}

Rank Engine::to_world(CommId comm, Rank rel) {
  return comms_.to_world(comm, rel);
}

Rank Engine::to_rel(CommId comm, Rank world) {
  return comms_.to_rel(comm, world);
}

// ---------------------------------------------------------------------------
// Raw (tool) operations
// ---------------------------------------------------------------------------

RequestId Engine::raw_isend(Rank r, Rank dst, Tag tag, CommId comm,
                            Bytes payload) {
  check_abort();
  const Rank dst_world = comms_.to_world(comm, dst);
  // Tool sends are eager and auto-consumed: piggyback senders never wait
  // on them (the paper's pb sends are waited trivially in MPI_Wait).
  do_isend(r, dst_world, tag, comm, std::move(payload), true,
           /*synchronous=*/false, nullptr);
  return kNullRequest;
}

RequestId Engine::raw_irecv(Rank r, Rank src, Tag tag, CommId comm) {
  check_abort();
  const Rank src_world = comms_.to_world(comm, src);
  return do_irecv(r, src_world, tag, comm, true);
}

Status Engine::raw_wait(Rank r, RequestId req, Bytes* out) {
  check_abort();
  DAMPI_CHECK_MSG(pr(r).reqs.find(req) != pr(r).reqs.end(),
                  "raw_wait on invalid request");
  block_until_complete(r, req);
  return finish_request(r, req, out, /*run_hooks=*/false);
}

Status Engine::raw_recv(Rank r, Rank src, Tag tag, CommId comm, Bytes* out) {
  const RequestId req = raw_irecv(r, src, tag, comm);
  return raw_wait(r, req, out);
}

bool Engine::raw_iprobe(Rank r, Rank src, Tag tag, CommId comm,
                        Status* status) {
  check_abort();
  const Rank src_world = comms_.to_world(comm, src);
  const Envelope* env = nullptr;
  if (src_world == kAnySource) {
    std::vector<MatchCandidate>& cands = pr(r).cand_buf;
    pr(r).match.wildcard_candidates(tag, comm, &cands);
    if (!cands.empty()) {
      // Deterministic head (lowest source) — tool drains need no policy.
      env = pr(r).match.find_by_id(cands.front().msg_id);
    }
  } else {
    env = pr(r).match.find_specific(src_world, tag, comm);
  }
  if (env == nullptr) {
    sched_.yield(r);
    return false;
  }
  if (status != nullptr) {
    status->source = comms_.to_rel(comm, env->src_world);
    status->tag = env->tag;
    status->bytes = env->payload.size();
    status->seq = env->seq;
    status->msg_id = env->msg_id;
  }
  return true;
}

void Engine::raw_barrier(Rank r, CommId comm) {
  collective_impl(r, CollKind::kBarrier, comm, 0, {}, {},
                  /*tool_internal=*/true, nullptr);
}

CommId Engine::raw_comm_dup(Rank r, CommId comm) {
  CollUserResult result = collective_impl(r, CollKind::kCommDup, comm, 0, {},
                                          {}, /*tool_internal=*/true, nullptr);
  // Mark the product tool-internal (exempt from leak accounting). Every
  // participant executes this; the flag write is idempotent.
  comms_.mark_tool_internal(result.new_comm);
  return result.new_comm;
}

void Engine::add_cost(Rank r, double us) {
  pr(r).vt_add(us);
}

double Engine::vtime_of(Rank r) { return pr(r).vt(); }

// ---------------------------------------------------------------------------
// Tool hook dispatch (hooks may re-enter the engine through raw services)
// ---------------------------------------------------------------------------

void Engine::hooks_init(Rank r) {
  auto& tools = pr(r).tools;
  for (auto& t : tools) t->on_init(*pr(r).ctx);
}

void Engine::hooks_finalize(Rank r) {
  auto& tools = pr(r).tools;
  for (auto it = tools.rbegin(); it != tools.rend(); ++it) {
    (*it)->on_finalize(*pr(r).ctx);
  }
}

void Engine::hooks_pre_isend(Rank r, SendCall& call) {
  for (auto& t : pr(r).tools) t->pre_isend(*pr(r).ctx, call);
}

void Engine::hooks_post_isend(Rank r, const SendCall& call, RequestId id,
                              const SendInfo& info) {
  auto& tools = pr(r).tools;
  for (auto it = tools.rbegin(); it != tools.rend(); ++it) {
    (*it)->post_isend(*pr(r).ctx, call, id, info);
  }
}

void Engine::hooks_pre_irecv(Rank r, RecvCall& call) {
  for (auto& t : pr(r).tools) t->pre_irecv(*pr(r).ctx, call);
}

void Engine::hooks_post_irecv(Rank r, const RecvCall& call, RequestId id) {
  auto& tools = pr(r).tools;
  for (auto it = tools.rbegin(); it != tools.rend(); ++it) {
    (*it)->post_irecv(*pr(r).ctx, call, id);
  }
}

void Engine::hooks_pre_wait(Rank r, RequestId id) {
  for (auto& t : pr(r).tools) t->pre_wait(*pr(r).ctx, id);
}

void Engine::hooks_post_wait(Rank r, ReqCompletion& completion) {
  auto& tools = pr(r).tools;
  for (auto it = tools.rbegin(); it != tools.rend(); ++it) {
    (*it)->post_wait(*pr(r).ctx, completion);
  }
}

void Engine::hooks_pre_probe(Rank r, ProbeCall& call) {
  for (auto& t : pr(r).tools) t->pre_probe(*pr(r).ctx, call);
}

void Engine::hooks_post_probe(Rank r, const ProbeCall& call, bool flag,
                              Status& status) {
  auto& tools = pr(r).tools;
  for (auto it = tools.rbegin(); it != tools.rend(); ++it) {
    (*it)->post_probe(*pr(r).ctx, call, flag, status);
  }
}

void Engine::hooks_pre_collective(Rank r, CollCall& call) {
  for (auto& t : pr(r).tools) t->pre_collective(*pr(r).ctx, call);
}

void Engine::hooks_post_collective(Rank r, const CollCall& call,
                                   const CollResult& result) {
  auto& tools = pr(r).tools;
  for (auto it = tools.rbegin(); it != tools.rend(); ++it) {
    (*it)->post_collective(*pr(r).ctx, call, result);
  }
}

void Engine::hooks_pcontrol(Rank r, int level, const std::string& what) {
  for (auto& t : pr(r).tools) t->on_pcontrol(*pr(r).ctx, level, what);
}

// ---------------------------------------------------------------------------
// Runtime wrapper
// ---------------------------------------------------------------------------

Runtime::Runtime(RunOptions options)
    : engine_(std::make_unique<Engine>(std::move(options))) {}

Runtime::~Runtime() = default;

RunReport Runtime::run(const ProgramFn& program) {
  return engine_->run(program);
}

}  // namespace dampi::mpism
