// Matching-index suite (ctest label `match`):
//
//  - structure-level differential fuzz: random streams of
//    push/find/take/post/match operations driven against the engine's
//    MatchIndex and the linear oracle (support/linear_match_index.hpp)
//    side by side, asserting every query answer is identical (candidate
//    vectors, specific winners, posted-receive matches, drained
//    envelopes) on both sides of the small-queue threshold;
//  - directed non-overtaking properties, checked on both: per-source
//    FIFO delivery, wildcard candidates == set of lane heads (tool
//    traffic excluded), earliest-posted-wins across the four posted
//    lanes.
//
// Randomized programs through the whole engine live in
// tests/test_engine_stress.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "mpism/match_index.hpp"
#include "support/linear_match_index.hpp"

namespace dampi::test {
namespace {

using mpism::CommId;
using mpism::Envelope;
using mpism::kAnySource;
using mpism::kAnyTag;
using mpism::kCommWorld;
using mpism::MatchCandidate;
using mpism::MatchIndex;
using mpism::pack;
using mpism::Rank;
using mpism::RequestId;
using mpism::RequestRecord;
using mpism::Tag;

// ---------------------------------------------------------------------
// Structure-level differential harness: every operation is applied to
// the oracle and the engine's matcher; every query must answer
// identically.

struct IndexPair {
  LinearMatchIndex linear;
  MatchIndex indexed;
};

Envelope make_env(Rank src, Tag tag, CommId comm, std::uint64_t seq,
                  std::uint64_t msg_id, bool tool) {
  Envelope e;
  e.src_world = src;
  e.dst_world = 0;
  e.tag = tag;
  e.comm = comm;
  e.seq = seq;
  e.msg_id = msg_id;
  e.tool_internal = tool;
  e.payload = pack<std::uint64_t>(msg_id * 31 + 7);
  return e;
}

void expect_env_eq(const Envelope& a, const Envelope& b) {
  EXPECT_EQ(a.src_world, b.src_world);
  EXPECT_EQ(a.tag, b.tag);
  EXPECT_EQ(a.comm, b.comm);
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.msg_id, b.msg_id);
  EXPECT_EQ(a.tool_internal, b.tool_internal);
  EXPECT_EQ(a.payload, b.payload);
}

void expect_same_specific(const IndexPair& p, Rank src, Tag tag, CommId comm) {
  const Envelope* a = p.linear.find_specific(src, tag, comm);
  const Envelope* b = p.indexed.find_specific(src, tag, comm);
  ASSERT_EQ(a == nullptr, b == nullptr)
      << "find_specific(" << src << "," << tag << "," << comm << ")";
  if (a != nullptr) expect_env_eq(*a, *b);
}

void expect_same_candidates(const IndexPair& p, Tag tag, CommId comm) {
  std::vector<MatchCandidate> a;
  std::vector<MatchCandidate> b;
  p.linear.wildcard_candidates(tag, comm, &a);
  p.indexed.wildcard_candidates(tag, comm, &b);
  ASSERT_EQ(a.size(), b.size())
      << "wildcard_candidates(" << tag << "," << comm << ")";
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].src_world, b[i].src_world) << "candidate " << i;
    EXPECT_EQ(a[i].tag, b[i].tag) << "candidate " << i;
    EXPECT_EQ(a[i].seq, b[i].seq) << "candidate " << i;
    EXPECT_EQ(a[i].msg_id, b[i].msg_id) << "candidate " << i;
  }
  EXPECT_EQ(p.linear.has_candidates(tag, comm), !a.empty());
  EXPECT_EQ(p.indexed.has_candidates(tag, comm), !b.empty());
}

constexpr Rank kFuzzSources = 5;
constexpr Tag kFuzzTags = 4;
const CommId kFuzzComms[] = {kCommWorld, static_cast<CommId>(kCommWorld + 1)};

struct ShadowState {
  std::vector<std::uint64_t> live_ids;       // queued unexpected messages
  std::vector<RequestRecord*> live_posted;   // still-indexed receives
  std::vector<std::unique_ptr<RequestRecord>> records;  // owns all posted
  std::uint64_t next_msg_id = 1;
  std::uint64_t next_seq[kFuzzSources][2] = {};
  RequestId next_req = 1;
};

void fuzz_step(Rng& rng, IndexPair& p, ShadowState& st) {
  const auto pick_tag = [&](double any_prob) {
    return rng.next_bool(any_prob)
               ? kAnyTag
               : static_cast<Tag>(rng.next_below(kFuzzTags));
  };
  const std::size_t comm_idx = rng.next_below(2);
  const CommId comm = kFuzzComms[comm_idx];
  const auto op = rng.next_below(100);
  if (op < 30) {
    // Push one unexpected message into both (two identical copies).
    const Rank src = static_cast<Rank>(rng.next_below(kFuzzSources));
    const Tag tag = static_cast<Tag>(rng.next_below(kFuzzTags));
    const bool tool = rng.next_bool(0.15);
    const std::uint64_t seq = st.next_seq[src][comm_idx]++;
    const std::uint64_t id = st.next_msg_id++;
    p.linear.push_unexpected(make_env(src, tag, comm, seq, id, tool));
    p.indexed.push_unexpected(make_env(src, tag, comm, seq, id, tool));
    st.live_ids.push_back(id);
  } else if (op < 45) {
    // Specific-receive lookup, concrete or wildcard tag.
    expect_same_specific(p, static_cast<Rank>(rng.next_below(kFuzzSources)),
                         pick_tag(0.3), comm);
  } else if (op < 55) {
    expect_same_candidates(p, pick_tag(0.4), comm);
  } else if (op < 70) {
    // Take a random live message by id (the engine always takes an id it
    // found through a query, but removal must work for any queued id).
    if (st.live_ids.empty()) return;
    const std::size_t at = rng.next_below(st.live_ids.size());
    const std::uint64_t id = st.live_ids[at];
    const Envelope* qa = p.linear.find_by_id(id);
    const Envelope* qb = p.indexed.find_by_id(id);
    ASSERT_NE(qa, nullptr);
    ASSERT_NE(qb, nullptr);
    expect_env_eq(*qa, *qb);
    Envelope a = p.linear.take(id);
    Envelope b = p.indexed.take(id);
    expect_env_eq(a, b);
    st.live_ids.erase(st.live_ids.begin() + static_cast<std::ptrdiff_t>(at));
    EXPECT_EQ(p.linear.find_by_id(id), nullptr);
    EXPECT_EQ(p.indexed.find_by_id(id), nullptr);
  } else if (op < 85) {
    // Post a receive. Neither implementation mutates the record, so the
    // same object can be indexed by both; match_posted must then return
    // the very same pointer on both sides.
    auto rec = std::make_unique<RequestRecord>();
    rec->id = st.next_req++;
    rec->kind = mpism::ReqKind::kRecv;
    rec->posted_src_world = rng.next_bool(0.4)
                                ? kAnySource
                                : static_cast<Rank>(
                                      rng.next_below(kFuzzSources));
    rec->posted_tag = pick_tag(0.4);
    rec->comm = comm;
    p.linear.post_recv(rec.get());
    p.indexed.post_recv(rec.get());
    st.live_posted.push_back(rec.get());
    st.records.push_back(std::move(rec));
  } else {
    // Probe the posted side with a synthetic arrival.
    Envelope e = make_env(static_cast<Rank>(rng.next_below(kFuzzSources)),
                          static_cast<Tag>(rng.next_below(kFuzzTags)), comm,
                          0, 0, rng.next_bool(0.1));
    RequestRecord* a = p.linear.match_posted(e);
    RequestRecord* b = p.indexed.match_posted(e);
    ASSERT_EQ(a, b) << "match_posted diverged";
    if (a != nullptr) std::erase(st.live_posted, a);
  }
}

/// Exhaustive sweep over the whole query space, then drain both queues
/// and check the pool returns to empty.
void final_sweep_and_drain(Rng& rng, IndexPair& p, ShadowState& st) {
  for (const CommId comm : kFuzzComms) {
    for (Tag tag = 0; tag < kFuzzTags; ++tag) {
      expect_same_candidates(p, tag, comm);
      for (Rank src = 0; src < kFuzzSources; ++src) {
        expect_same_specific(p, src, tag, comm);
      }
    }
    expect_same_candidates(p, kAnyTag, comm);
    for (Rank src = 0; src < kFuzzSources; ++src) {
      expect_same_specific(p, src, kAnyTag, comm);
    }
  }
  while (!st.live_ids.empty()) {
    const std::size_t at = rng.next_below(st.live_ids.size());
    const std::uint64_t id = st.live_ids[at];
    expect_env_eq(p.linear.take(id), p.indexed.take(id));
    st.live_ids.erase(st.live_ids.begin() + static_cast<std::ptrdiff_t>(at));
  }
  // Drain the posted side: walk every concrete (src, tag, comm) until
  // both say "no compatible receive"; they must hand out the same
  // records in the same order throughout.
  for (const CommId comm : kFuzzComms) {
    for (Rank src = 0; src < kFuzzSources; ++src) {
      for (Tag tag = 0; tag < kFuzzTags; ++tag) {
        for (;;) {
          const Envelope e = make_env(src, tag, comm, 0, 0, false);
          RequestRecord* a = p.linear.match_posted(e);
          RequestRecord* b = p.indexed.match_posted(e);
          ASSERT_EQ(a, b);
          if (a == nullptr) break;
          std::erase(st.live_posted, a);
        }
      }
    }
  }
  EXPECT_TRUE(st.live_posted.empty());
  EXPECT_EQ(p.indexed.pool_stats().live, 0u);
}

TEST(MatchIndexDifferential, RandomOpStreams) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    Rng rng(seed * 7919);
    IndexPair pair;
    ShadowState st;
    const int steps = 100 + static_cast<int>(rng.next_below(400));
    for (int i = 0; i < steps; ++i) {
      fuzz_step(rng, pair, st);
      if (::testing::Test::HasFatalFailure()) {
        FAIL() << "diverged at seed " << seed << " step " << i;
      }
    }
    final_sweep_and_drain(rng, pair, st);
    ASSERT_FALSE(::testing::Test::HasFatalFailure())
        << "diverged at seed " << seed << " during drain";
  }
}

// A long single stream: deep queues exercise lane growth, bitmap word
// boundaries, and slab-pool reuse after full drains.
TEST(MatchIndexDifferential, DeepQueueStream) {
  Rng rng(0xdeadbeef);
  IndexPair pair;
  ShadowState st;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 4000; ++i) fuzz_step(rng, pair, st);
    final_sweep_and_drain(rng, pair, st);
    ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "round " << round;
  }
  // Round 2+ should be served almost entirely from the freelist.
  const auto stats = pair.indexed.pool_stats();
  EXPECT_GT(stats.reused, 0u);
}

// ---------------------------------------------------------------------
// Directed non-overtaking properties, checked on the engine's matcher
// and on the oracle alike.

template <typename Index>
void check_per_source_fifo(const char* what) {
  Index idx;
  std::uint64_t id = 1;
  // Source 1 sends seq 0..9 on tag 7; source 2 interleaves on the same
  // tag. Specific receives from source 1 must drain in seq order no
  // matter how the streams interleave.
  for (std::uint64_t s = 0; s < 10; ++s) {
    idx.push_unexpected(make_env(1, 7, kCommWorld, s, id++, false));
    if (s % 2 == 0) {
      idx.push_unexpected(make_env(2, 7, kCommWorld, s / 2, id++, false));
    }
  }
  for (std::uint64_t s = 0; s < 10; ++s) {
    const Envelope* head = idx.find_specific(1, 7, kCommWorld);
    ASSERT_NE(head, nullptr) << what << " seq " << s;
    EXPECT_EQ(head->seq, s) << what;
    idx.take(head->msg_id);
  }
  EXPECT_EQ(idx.find_specific(1, 7, kCommWorld), nullptr) << what;
  EXPECT_NE(idx.find_specific(2, 7, kCommWorld), nullptr) << what;
}

TEST(MatchIndexProperty, PerSourceFifoOrder) {
  check_per_source_fifo<LinearMatchIndex>("oracle");
  check_per_source_fifo<MatchIndex>("matcher");
}

template <typename Index>
void check_wildcard_candidates_are_lane_heads(const char* what) {
  Index idx;
  // Tool traffic arrives first from source 0 — it must be visible to
  // find_specific but never to wildcard_candidates.
  idx.push_unexpected(make_env(0, 3, kCommWorld, 0, 1, /*tool=*/true));
  idx.push_unexpected(make_env(3, 5, kCommWorld, 0, 2, false));
  idx.push_unexpected(make_env(1, 5, kCommWorld, 0, 3, false));
  idx.push_unexpected(make_env(3, 5, kCommWorld, 1, 4, false));
  idx.push_unexpected(make_env(1, 9, kCommWorld, 1, 5, false));

  std::vector<MatchCandidate> c;
  idx.wildcard_candidates(5, kCommWorld, &c);
  ASSERT_EQ(c.size(), 2u) << what;
  EXPECT_EQ(c[0].src_world, 1) << what;  // sorted by source
  EXPECT_EQ(c[0].msg_id, 3u) << what;
  EXPECT_EQ(c[1].src_world, 3) << what;
  EXPECT_EQ(c[1].msg_id, 2u) << what;  // lane head = earliest from source 3

  // ANY_TAG: source 1's earliest across tags is msg 3 (tag 5), source
  // 3's is msg 2; the tool message from source 0 stays invisible.
  idx.wildcard_candidates(kAnyTag, kCommWorld, &c);
  ASSERT_EQ(c.size(), 2u) << what;
  EXPECT_EQ(c[0].src_world, 1) << what;
  EXPECT_EQ(c[0].msg_id, 3u) << what;
  EXPECT_EQ(c[1].src_world, 3) << what;
  EXPECT_EQ(c[1].msg_id, 2u) << what;

  // The tool message is reachable for the piggyback receive path.
  const Envelope* tool_head = idx.find_specific(0, 3, kCommWorld);
  ASSERT_NE(tool_head, nullptr) << what;
  EXPECT_TRUE(tool_head->tool_internal) << what;
}

TEST(MatchIndexProperty, WildcardCandidatesAreLaneHeads) {
  check_wildcard_candidates_are_lane_heads<LinearMatchIndex>("oracle");
  check_wildcard_candidates_are_lane_heads<MatchIndex>("matcher");
}

template <typename Index>
void check_earliest_posted_wins(const char* what) {
  Index idx;
  // Four receives, one per lane shape, posted in this order; an
  // arrival from (src 1, tag 5) is compatible with all four and must
  // drain them in post order.
  RequestRecord recs[4];
  const Rank srcs[4] = {kAnySource, 1, kAnySource, 1};
  const Tag tags[4] = {5, kAnyTag, kAnyTag, 5};
  for (int i = 0; i < 4; ++i) {
    recs[i].id = static_cast<RequestId>(i + 1);
    recs[i].kind = mpism::ReqKind::kRecv;
    recs[i].posted_src_world = srcs[i];
    recs[i].posted_tag = tags[i];
    idx.post_recv(&recs[i]);
  }
  const Envelope arrival = make_env(1, 5, kCommWorld, 0, 1, false);
  for (int i = 0; i < 4; ++i) {
    RequestRecord* got = idx.match_posted(arrival);
    ASSERT_NE(got, nullptr) << what << " i=" << i;
    EXPECT_EQ(got, &recs[i]) << what << " posted order violated at " << i;
  }
  EXPECT_EQ(idx.match_posted(arrival), nullptr) << what;
  // An incompatible arrival never matches a concrete-source receive.
  RequestRecord strict;
  strict.id = 9;
  strict.kind = mpism::ReqKind::kRecv;
  strict.posted_src_world = 2;
  strict.posted_tag = 5;
  idx.post_recv(&strict);
  EXPECT_EQ(idx.match_posted(arrival), nullptr) << what;
  const Envelope from2 = make_env(2, 5, kCommWorld, 0, 2, false);
  EXPECT_EQ(idx.match_posted(from2), &strict) << what;
}

TEST(MatchIndexProperty, EarliestPostedWinsAcrossLaneShapes) {
  check_earliest_posted_wins<LinearMatchIndex>("oracle");
  check_earliest_posted_wins<MatchIndex>("matcher");
}

}  // namespace
}  // namespace dampi::test
