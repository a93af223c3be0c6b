// Message-matching structure for the engine: the unexpected-message
// queue and the posted-receive queue of one rank.
//
// Per-source FIFO lanes hashed by (comm, tag, src) plus (comm, src)
// make specific-receive lookup, removal by msg_id, and posted-receive
// matching O(1) amortized, and wildcard candidates are read off
// precomputed lane heads instead of rescanning the queue. Lane nodes
// come from a slab pool (allocation-free steady state). Shallow queues
// (< 32 entries, separately for unexpected and posted) run plain deque
// walks instead — hashing costs more than a three-entry scan — and the
// structure migrates to lanes permanently the first time a queue
// crosses the threshold.
//
// Contract (what the differential fuzz in tests/test_match_index.cpp
// asserts against the linear oracle in tests/support/): every query
// answers exactly as the original deque walk would — same candidate
// vectors (sorted by source, earliest message per source), same
// find_specific winner, same earliest-posted receive from match_posted
// — because the engine's visible behaviour is a function of exactly
// these answers. A wildcard receive or probe takes the front candidate
// (the lowest eligible source: SELF_RUN's runtime bias); the verifier
// reaches the other candidates by rewriting ANY_SOURCE in its tool
// layer, never through the runtime.
//
// Key invariants the lanes lean on (one rank at a time runs engine code):
//  - Arrival order within one rank's unexpected queue == msg_id order:
//    msg_id assignment and queue insertion happen in one engine call with
//    no fiber switch between them, so lane heads can be compared by msg_id
//    to find the queue-order-earliest message.
//  - Per-source lanes are FIFO ⇒ each lane head is the oldest
//    compatible message from that source ⇒ the wildcard candidate set
//    is exactly the set of lane heads (MPI non-overtaking).
//  - A posted receive is compatible with an arrival iff it lives in one
//    of four lanes — (src,tag), (src,ANY), (ANY,tag), (ANY,ANY) — so
//    the earliest-posted compatible receive is the min-post-seq head of
//    those four.
//
// Not thread-safe.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "mpism/envelope.hpp"
#include "mpism/pool.hpp"
#include "mpism/request.hpp"
#include "mpism/types.hpp"

namespace dampi::mpism {

/// One matchable candidate for a wildcard receive/probe: the head (lowest
/// unmatched seq) message from one source.
struct MatchCandidate {
  Rank src_world = -1;
  Tag tag = kAnyTag;
  std::uint64_t seq = 0;
  std::uint64_t msg_id = 0;
};

/// One rank's matching state: queued unexpected messages (owned) and
/// pending posted receives (non-owning pointers into the engine's
/// request table; a record stays indexed until match_posted removes it).
class MatchIndex {
 public:
  MatchIndex();
  ~MatchIndex();
  MatchIndex(const MatchIndex&) = delete;
  MatchIndex& operator=(const MatchIndex&) = delete;

  // --- unexpected-message queue ---------------------------------------
  void push_unexpected(Envelope&& env);
  /// Earliest compatible message from a concrete source (tool traffic
  /// included). Pointer valid until the next mutation.
  const Envelope* find_specific(Rank src_world, Tag tag, CommId comm) const;
  /// The queued message with this id, or nullptr.
  const Envelope* find_by_id(std::uint64_t msg_id) const;
  /// True iff wildcard_candidates would be non-empty (cheaper).
  bool has_candidates(Tag tag, CommId comm) const;
  /// Per-source earliest compatible *user* message, sorted by source.
  /// Clears and fills `out` (caller-owned buffer, reused across calls).
  void wildcard_candidates(Tag tag, CommId comm,
                           std::vector<MatchCandidate>* out) const;
  /// Removes and returns the message with this id (checks it exists).
  Envelope take(std::uint64_t msg_id);

  // --- posted-receive queue -------------------------------------------
  void post_recv(RequestRecord* rec);
  /// Removes and returns the earliest-posted receive compatible with
  /// `env`, or nullptr when none is.
  RequestRecord* match_posted(const Envelope& env);

  /// Lane-node pool stats (zero until a queue first migrates to lanes).
  PoolStats pool_stats() const;

 private:
  struct Lanes;

  // Small-queue mode: deque walks until the queue first crosses the
  // threshold, then lanes forever (see the header comment).
  std::deque<Envelope> small_;
  std::deque<RequestRecord*> small_posted_;
  bool migrated_ = false;
  bool posted_migrated_ = false;
  std::unique_ptr<Lanes> lanes_;  ///< null until the first migration
};

}  // namespace dampi::mpism
