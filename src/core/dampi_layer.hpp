// DampiLayer: the paper's Algorithm 1 as a PnMPI-style tool layer.
//
// Per rank it maintains the logical clock, records an epoch for every
// non-deterministic event (wildcard receive, flagged wildcard probe),
// classifies each completed incoming message as late/not-late against its
// open epochs to accumulate potential matches, transmits clocks through a
// piggyback transport, enforces epoch decisions in guided replays by
// rewriting MPI_ANY_SOURCE to the forced source, honors loop-abstraction
// regions, and runs the §V unsafe-pattern monitor.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/clock_state.hpp"
#include "core/decision.hpp"
#include "core/epoch.hpp"
#include "core/options.hpp"
#include "mpism/tool.hpp"
#include "piggyback/transport.hpp"

namespace dampi::core {

/// State shared by all ranks of one run.
struct DampiShared {
  ExplorerOptions options;  ///< run configuration (owned copy)
  Schedule schedule;
  std::shared_ptr<TraceSink> sink;
  /// Highest decided nd_index per rank (guided frontier); -1 = none.
  std::vector<std::int64_t> max_decided_index;
  /// Replay divergence: an epoch inside the guided frontier had no
  /// decision (the ND event sequence shifted, e.g. a timing-dependent
  /// iprobe loop). Counted, not fatal — the run degrades to self-run.
  std::atomic<std::uint64_t> divergences{0};

  DampiShared(ExplorerOptions opts, Schedule sched,
              std::shared_ptr<TraceSink> trace_sink);
};

class DampiLayer final : public mpism::ToolLayer {
 public:
  DampiLayer(int rank, int nprocs, std::shared_ptr<DampiShared> shared,
             std::unique_ptr<piggyback::Transport> transport);
  ~DampiLayer() override;

  void on_init(mpism::ToolCtx& ctx) override;
  void on_finalize(mpism::ToolCtx& ctx) override;

  void pre_isend(mpism::ToolCtx& ctx, mpism::SendCall& call) override;
  void post_isend(mpism::ToolCtx& ctx, const mpism::SendCall& call,
                  mpism::RequestId id, const mpism::SendInfo& info) override;

  void pre_irecv(mpism::ToolCtx& ctx, mpism::RecvCall& call) override;
  void post_irecv(mpism::ToolCtx& ctx, const mpism::RecvCall& call,
                  mpism::RequestId id) override;

  void post_wait(mpism::ToolCtx& ctx, mpism::ReqCompletion& c) override;

  void pre_probe(mpism::ToolCtx& ctx, mpism::ProbeCall& call) override;
  void post_probe(mpism::ToolCtx& ctx, const mpism::ProbeCall& call,
                  bool flag, mpism::Status& status) override;

  void pre_collective(mpism::ToolCtx& ctx, mpism::CollCall& call) override;
  void post_collective(mpism::ToolCtx& ctx, const mpism::CollCall& call,
                       const mpism::CollResult& result) override;

  void on_pcontrol(mpism::ToolCtx& ctx, int level,
                   const std::string& what) override;

 private:
  /// Guided-mode lookup for the ND event about to happen (at the current
  /// nd_index); returns the forced source world rank or kAnySource.
  mpism::Rank guided_source();

  /// Record a new epoch for the ND event that just committed.
  EpochRecord& record_epoch(mpism::CommId comm, mpism::Tag tag,
                            bool is_probe);

  /// The paper's FindPotentialMatches: classify a completed incoming
  /// message against this rank's open epochs (newest first, early exit
  /// once the message is causally after an epoch).
  void find_potential_matches(mpism::ToolCtx& ctx, mpism::Rank src_world,
                              std::uint64_t seq, mpism::Tag tag,
                              mpism::CommId comm, const MsgClock& msg_clock);

  void unsafe_check(mpism::ToolCtx& ctx, const char* op);

  /// The clock outgoing traffic advertises (== clock_ unless deferred
  /// sync is enabled).
  ClockState& transmit_clock() { return xmit_clock_ ? *xmit_clock_ : clock_; }
  /// Decode a serialized incoming clock into incoming_ (both trackers
  /// share the clock mode, so one decode serves both). A clock the
  /// transport handed over by value is swapped in, not copied, and the
  /// buffer it replaces carries this rank's next outgoing clock.
  const MsgClock& decode_incoming(mpism::Bytes&& remote) {
    clock_.decode(std::move(remote), &incoming_);
    if (latch_send_clock_.capacity() == 0) {
      latch_send_clock_ = std::move(remote);
    }
    return incoming_;
  }
  const MsgClock& decode_incoming(const mpism::Bytes& remote) {
    clock_.decode(remote, &incoming_);
    return incoming_;
  }
  /// Apply a decoded incoming remote clock to both trackers.
  void merge_incoming(const MsgClock& remote) {
    clock_.merge(remote);
    if (xmit_clock_) xmit_clock_->merge(remote);
  }

  void flush(bool from_finalize);

  int rank_;
  int nprocs_;
  std::shared_ptr<DampiShared> shared_;
  const ExplorerOptions& options_;  ///< shared_->options
  std::unique_ptr<piggyback::Transport> transport_;

  ClockState clock_;
  /// §V deferred-sync transmittal clock: what outgoing traffic carries;
  /// present only when options_.deferred_clock_sync is on. Lags clock_
  /// by the ticks of wildcard epochs whose Wait/Test has not completed;
  /// catches up per epoch at completion.
  std::optional<ClockState> xmit_clock_;
  std::uint64_t nd_index_ = 0;
  /// The clock of the completion being processed, decoded once and
  /// compared and merged in place.
  MsgClock incoming_;

  /// Epochs recorded by this rank this run (flushed at finalize/teardown).
  std::vector<EpochRecord> epochs_;
  std::vector<UnsafeAlert> alerts_;
  std::uint64_t recv_epoch_count_ = 0;
  std::uint64_t probe_epoch_count_ = 0;
  std::uint64_t potential_count_ = 0;
  std::uint64_t late_count_ = 0;
  bool flushed_ = false;

  /// Wildcard receive request -> index into epochs_.
  std::unordered_map<mpism::RequestId, std::size_t> wildcard_reqs_;
  /// Pending wildcard receives whose Wait/Test has not completed — the
  /// §V monitor's watch set.
  std::set<mpism::RequestId> pending_wildcards_;

  /// One-slot latches carrying pre-hook context into the matching post
  /// hook (hooks on a rank are strictly sequential). The send clock is
  /// serialized in pre_isend and moved into the transport by post_isend;
  /// decode_incoming refills the emptied latch with a spent buffer.
  bool latch_irecv_was_wildcard_ = false;
  bool latch_probe_was_wildcard_ = false;
  mpism::Bytes latch_send_clock_;

  /// MPI_Pcontrol loop-abstraction nesting depth.
  int region_depth_ = 0;

  /// Automatic loop detection (§VI future work): signature of the last
  /// epoch and the length of the current identical-signature streak.
  struct EpochSignature {
    mpism::CommId comm = mpism::kCommNull;
    mpism::Tag tag = mpism::kAnyTag;
    bool is_probe = false;
    friend bool operator==(const EpochSignature&,
                           const EpochSignature&) = default;
  };
  EpochSignature last_signature_;
  int signature_streak_ = 0;

  /// Live user communicators this rank belongs to — the finalize-time
  /// drain walks them to analyze messages that were sent but never
  /// received (their piggybacks would otherwise never impinge; the
  /// paper's Fig. 3 relies on the unreceived competitor being analyzed).
  std::vector<mpism::CommId> known_comms_{mpism::kCommWorld};

  void drain_unreceived(mpism::ToolCtx& ctx);
};

/// Build the ToolSetup for one DAMPI-instrumented run. `shared` carries
/// the run configuration (shared->options), the schedule, and the sink.
mpism::ToolSetup make_dampi_setup(
    std::shared_ptr<DampiShared> shared,
    std::shared_ptr<piggyback::TelepathicBoard> board);

}  // namespace dampi::core
