// Unified view over Lamport / vector clocks for the DAMPI layer: tick,
// merge serialized remote clocks, and decide lateness ("is this message
// not causally after that epoch?") under either mode.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "clocks/lamport.hpp"
#include "clocks/vector_clock.hpp"
#include "core/options.hpp"
#include "mpism/types.hpp"

namespace dampi::core {

/// A message clock as ClockState::decode left it, compared against
/// every open epoch and merged in place. In vector mode it owns the
/// serialized bytes the transport received and reads components straight
/// out of them, so a completed receive's clock is never copied again.
class MsgClock {
 public:
  /// True for a message that carried no clock (it predates
  /// instrumentation, e.g. in tests): never late, merges as a no-op.
  bool empty() const { return empty_; }

 private:
  friend class ClockState;
  bool empty_ = true;
  std::uint64_t lc_ = 0;  ///< Lamport mode.
  mpism::Bytes wire_;     ///< Vector mode: packed native-endian components.
};

class ClockState {
 public:
  ClockState(ClockMode mode, int nprocs, int rank);

  void tick();
  /// Decodes a serialized remote clock into `out` under this state's
  /// clock mode. The rvalue form swaps the bytes in, so `remote` comes
  /// back holding `out`'s previous buffer for the caller to reuse; the
  /// const form copies them into that buffer.
  void decode(mpism::Bytes&& remote, MsgClock* out) const;
  void decode(const mpism::Bytes& remote, MsgClock* out) const;
  /// Merge a decoded remote clock (no-op if empty): one pass takes the
  /// component-wise max and the remote's largest component, which the
  /// Lamport view absorbs.
  void merge(const MsgClock& remote);
  mpism::Bytes serialize() const;
  /// serialize() into a caller-owned buffer, reusing whatever capacity
  /// it already has.
  void serialize_into(mpism::Bytes* out) const;

  std::uint64_t lamport_value() const { return lamport_.value(); }
  /// The vector timestamp; empty in Lamport mode, which keeps none.
  const std::vector<clocks::VectorClock::Value>& vector_components() const {
    return vector_;
  }

  /// Is a message carrying `msg_clock` late with respect to an epoch
  /// whose clocks were (epoch_lc, epoch_vc)? Lamport mode: msg.LC <
  /// epoch.LC (paper §II-C). Vector mode: msg not causally after the
  /// epoch. Exactly !is_after in both modes.
  bool is_late(const MsgClock& msg_clock, std::uint64_t epoch_lc,
               const std::vector<clocks::VectorClock::Value>& epoch_vc) const;

  /// True when the message is causally *after* the epoch — the early-exit
  /// condition when scanning a rank's epochs newest-to-oldest (anything
  /// after epoch_i is also after every older epoch of the same rank).
  bool is_after(const MsgClock& msg_clock, std::uint64_t epoch_lc,
                const std::vector<clocks::VectorClock::Value>& epoch_vc) const;

  ClockMode mode() const { return mode_; }

  /// Merge a raw epoch timestamp (the deferred-sync path: a transmittal
  /// clock catches up to a completed wildcard's epoch without absorbing
  /// the ticks of still-pending epochs).
  void merge_epoch(std::uint64_t lc,
                   const std::vector<clocks::VectorClock::Value>& vc);

  /// Merge function for collective piggyback routing (component-wise /
  /// scalar max), suitable for mpism::ToolSetup::coll_merge.
  static mpism::Bytes merge_serialized(const std::vector<mpism::Bytes>& all);

 private:
  ClockMode mode_;
  std::size_t rank_;
  clocks::LamportClock lamport_;
  std::vector<clocks::VectorClock::Value> vector_;  ///< Vector mode only.
};

}  // namespace dampi::core
