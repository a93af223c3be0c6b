// LinearMatchIndex: the reference semantics of mpism::MatchIndex, kept
// in the test tree as the oracle for tests/test_match_index.cpp and the
// linear column of bench/bench_matching.cpp.
//
// Two deques walked front to back: arrival order for unexpected
// messages, post order for receives. Every answer is the first entry
// that fits, so its correctness is evident by inspection. The walks are
// written here on purpose rather than shared with the engine's
// small-queue mode, so a defect in either one shows up as a
// divergence in the differential fuzz.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "common/check.hpp"
#include "mpism/envelope.hpp"
#include "mpism/match_index.hpp"
#include "mpism/request.hpp"
#include "mpism/types.hpp"

namespace dampi::test {

class LinearMatchIndex {
 public:
  void push_unexpected(mpism::Envelope&& env) {
    unexpected_.push_back(std::move(env));
  }

  /// First queued message from `src_world` (concrete) that fits the tag
  /// and comm; tool traffic included.
  const mpism::Envelope* find_specific(mpism::Rank src_world, mpism::Tag tag,
                                       mpism::CommId comm) const {
    for (const mpism::Envelope& env : unexpected_) {
      if (env.src_world == src_world && fits(env, tag, comm)) return &env;
    }
    return nullptr;
  }

  const mpism::Envelope* find_by_id(std::uint64_t msg_id) const {
    for (const mpism::Envelope& env : unexpected_) {
      if (env.msg_id == msg_id) return &env;
    }
    return nullptr;
  }

  bool has_candidates(mpism::Tag tag, mpism::CommId comm) const {
    std::vector<mpism::MatchCandidate> c;
    wildcard_candidates(tag, comm, &c);
    return !c.empty();
  }

  /// The first fitting user message of every source, sorted by source.
  void wildcard_candidates(mpism::Tag tag, mpism::CommId comm,
                           std::vector<mpism::MatchCandidate>* out) const {
    std::map<mpism::Rank, mpism::MatchCandidate> first;
    for (const mpism::Envelope& env : unexpected_) {
      if (env.tool_internal || !fits(env, tag, comm)) continue;
      first.emplace(env.src_world, mpism::MatchCandidate{env.src_world,
                                                         env.tag, env.seq,
                                                         env.msg_id});
    }
    out->clear();
    for (const auto& [src, cand] : first) out->push_back(cand);
  }

  mpism::Envelope take(std::uint64_t msg_id) {
    for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
      if (it->msg_id != msg_id) continue;
      mpism::Envelope env = std::move(*it);
      unexpected_.erase(it);
      return env;
    }
    DAMPI_CHECK_MSG(false, "oracle: unexpected message vanished");
    return {};
  }

  void post_recv(mpism::RequestRecord* rec) { posted_.push_back(rec); }

  /// Removes and returns the first posted receive that accepts `env`.
  mpism::RequestRecord* match_posted(const mpism::Envelope& env) {
    for (auto it = posted_.begin(); it != posted_.end(); ++it) {
      const mpism::RequestRecord& rec = **it;
      const bool src_ok = rec.posted_src_world == mpism::kAnySource ||
                          rec.posted_src_world == env.src_world;
      if (!src_ok || !fits(env, rec.posted_tag, rec.comm)) continue;
      mpism::RequestRecord* hit = *it;
      posted_.erase(it);
      return hit;
    }
    return nullptr;
  }

 private:
  static bool fits(const mpism::Envelope& env, mpism::Tag tag,
                   mpism::CommId comm) {
    return env.comm == comm && (tag == mpism::kAnyTag || env.tag == tag);
  }

  std::deque<mpism::Envelope> unexpected_;
  std::deque<mpism::RequestRecord*> posted_;
};

}  // namespace dampi::test
