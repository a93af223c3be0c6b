// Request records for nonblocking operations.
#pragma once

#include <cstdint>

#include "mpism/envelope.hpp"
#include "mpism/types.hpp"

namespace dampi::mpism {

enum class ReqKind { kSend, kRecv };

/// Engine-side state of a nonblocking operation. Owned by the per-rank
/// request table; user code refers to it by RequestId.
struct RequestRecord {
  RequestId id = kNullRequest;
  ReqKind kind = ReqKind::kSend;
  Rank owner_world = -1;

  // As posted (receives). src is a *world* rank or kAnySource; tag may be
  // kAnyTag. The posted values reflect any tool-layer rewrites (a guided
  // replay posts the determinized source here).
  Rank posted_src_world = kAnySource;
  Tag posted_tag = kAnyTag;
  CommId comm = kCommWorld;

  /// True once matched (recv) / injected (send). Eager sends complete at
  /// creation time; a synchronous send is completed by the receiving
  /// rank through Envelope::sender_rec.
  bool complete = false;
  /// True once consumed by wait/test; consumed requests are removed from
  /// the table (leak accounting counts unconsumed ones at finalize).
  bool consumed = false;

  /// Matched message (receives only; valid when complete).
  Envelope msg;

  /// Issued by a tool layer; excluded from stats and leak accounting.
  bool tool_internal = false;

  /// Virtual time at which the operation completed remotely (synchronous
  /// sends: when the matching receive released it, plus the ack
  /// latency). 0 for operations that complete locally.
  double complete_vtime = 0.0;

  /// Virtual time at which the operation was posted.
  double post_vtime = 0.0;

  bool is_wildcard_src() const { return posted_src_world == kAnySource; }
};

}  // namespace dampi::mpism
