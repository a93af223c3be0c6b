// Communicator table: groups, translation between communicator-relative
// and world ranks, and leak accounting (paper Table II, C-Leak column).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "mpism/types.hpp"

namespace dampi::mpism {

/// One communicator: an ordered group of world ranks. The rank of a
/// process within the communicator is its index in `members`.
struct CommRecord {
  CommId id = kCommNull;
  std::vector<Rank> members;  ///< world ranks, comm rank = index
  bool freed = false;
  /// Created by a tool layer (shadow piggyback communicators); excluded
  /// from leak accounting and user-visible statistics.
  bool tool_internal = false;
  /// World-rank -> comm-rank reverse map (kAnySource for non-members).
  std::vector<Rank> world_to_comm;

  int size() const { return static_cast<int>(members.size()); }
  bool contains_world(Rank world) const {
    return world >= 0 && world < static_cast<Rank>(world_to_comm.size()) &&
           world_to_comm[static_cast<std::size_t>(world)] != kAnySource;
  }
};

/// Owns all communicators of one run. Not thread-safe: every rank of a
/// run executes on the same host thread. Records never move:
/// a reference from get() stays valid across create(), so a rank parked
/// in a collective can keep one while the table grows.
class CommTable {
 public:
  /// Sets up kCommWorld over `nprocs` ranks.
  void init(int nprocs);

  const CommRecord& get(CommId id) const;
  bool valid(CommId id) const;

  /// New communicator with the given member list (world ranks).
  CommId create(std::vector<Rank> members, bool tool_internal);

  void free(CommId id);

  /// Reclassify a communicator as tool-internal (shadow piggyback comms
  /// are created through the ordinary collective path, then flagged).
  void mark_tool_internal(CommId id);

  /// comm-relative -> world. `rel` may be kAnySource (passed through).
  Rank to_world(CommId id, Rank rel) const;
  /// world -> comm-relative (kAnySource if not a member).
  Rank to_rel(CommId id, Rank world) const;

  /// Number of user communicators created and not freed (excludes world
  /// and tool-internal ones) — the C-Leak count.
  int leaked_user_comms() const;

  int count() const { return static_cast<int>(comms_.size()); }

 private:
  std::deque<CommRecord> comms_;
  int world_size_ = 0;
};

}  // namespace dampi::mpism
