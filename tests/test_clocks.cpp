// Unit tests for Lamport and vector clocks — the causality substrate of
// DAMPI's late-message analysis — and a differential of the DAMPI layer's
// ClockState against them.
#include <gtest/gtest.h>

#include <vector>

#include "clocks/lamport.hpp"
#include "clocks/vector_clock.hpp"
#include "common/rng.hpp"
#include "core/clock_state.hpp"

namespace dampi::clocks {
namespace {

TEST(LamportClock, StartsAtZeroAndTicks) {
  LamportClock c;
  EXPECT_EQ(c.value(), 0u);
  c.tick();
  c.tick();
  EXPECT_EQ(c.value(), 2u);
}

TEST(LamportClock, MergeTakesMax) {
  LamportClock c(5);
  c.merge(3);
  EXPECT_EQ(c.value(), 5u);
  c.merge(9);
  EXPECT_EQ(c.value(), 9u);
  c.merge(9);
  EXPECT_EQ(c.value(), 9u);
}

TEST(LamportClock, Comparisons) {
  EXPECT_TRUE(LamportClock(1) < LamportClock(2));
  EXPECT_FALSE(LamportClock(2) < LamportClock(2));
  EXPECT_TRUE(LamportClock(2) == LamportClock(2));
}

// The defining property: happened-before implies clock order, via the
// message rule merge-then-tick. (The converse fails; that is exactly the
// imprecision the paper's Fig. 4 exploits — tested at the verifier level.)
TEST(LamportClock, MessageChainMonotone) {
  LamportClock sender;
  sender.tick();  // event a
  const auto sent = sender.value();
  LamportClock receiver;
  receiver.merge(sent);
  receiver.tick();  // event b, causally after a
  EXPECT_LT(sent, receiver.value());
}

TEST(VectorClock, ZeroInitialized) {
  VectorClock v(4, 2);
  EXPECT_EQ(v.size(), 4);
  EXPECT_EQ(v.owner(), 2);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(v.component(i), 0u);
}

TEST(VectorClock, TickBumpsOwnComponentOnly) {
  VectorClock v(3, 1);
  v.tick();
  v.tick();
  EXPECT_EQ(v.component(0), 0u);
  EXPECT_EQ(v.component(1), 2u);
  EXPECT_EQ(v.component(2), 0u);
  EXPECT_EQ(v.own(), 2u);
}

TEST(VectorClock, MergeIsComponentwiseMax) {
  VectorClock a(3, 0);
  VectorClock b(3, 1);
  a.tick();  // [1,0,0]
  b.tick();
  b.tick();  // [0,2,0]
  a.merge(b);
  EXPECT_EQ(a.component(0), 1u);
  EXPECT_EQ(a.component(1), 2u);
  EXPECT_EQ(a.component(2), 0u);
}

TEST(VectorClock, CompareEqual) {
  VectorClock a(2, 0), b(2, 1);
  EXPECT_EQ(VectorClock::compare(a, b), Ordering::kEqual);
}

TEST(VectorClock, CompareBeforeAfter) {
  VectorClock a(2, 0), b(2, 1);
  a.tick();      // a = [1,0]
  b.merge(a);    // b = [1,0]
  b.tick();      // b = [1,1]
  EXPECT_EQ(VectorClock::compare(a, b), Ordering::kBefore);
  EXPECT_EQ(VectorClock::compare(b, a), Ordering::kAfter);
}

TEST(VectorClock, CompareConcurrent) {
  VectorClock a(2, 0), b(2, 1);
  a.tick();  // [1,0]
  b.tick();  // [0,1]
  EXPECT_EQ(VectorClock::compare(a, b), Ordering::kConcurrent);
  EXPECT_EQ(VectorClock::compare(b, a), Ordering::kConcurrent);
}

TEST(VectorClock, NotAfterAcceptsBeforeAndConcurrent) {
  VectorClock a(2, 0), b(2, 1);
  a.tick();
  b.tick();
  // Concurrent both ways.
  EXPECT_TRUE(VectorClock::not_after(a.components(), b.components()));
  EXPECT_TRUE(VectorClock::not_after(b.components(), a.components()));
  // Strictly after is rejected.
  VectorClock c(2, 1);
  c.merge(a);
  c.tick();  // c causally after a
  EXPECT_FALSE(VectorClock::not_after(c.components(), a.components()));
  EXPECT_TRUE(VectorClock::not_after(a.components(), c.components()));
}

TEST(VectorClock, StrFormat) {
  VectorClock v(3, 0);
  v.tick();
  EXPECT_EQ(v.str(), "[1,0,0]");
}

// Property sweep: along any causal chain of message exchanges, vector
// clock order and Lamport order both respect happened-before, and the
// Lamport value is always dominated by the sum of vector components.
class ClockChainTest : public ::testing::TestWithParam<int> {};

TEST_P(ClockChainTest, CausalChainsAgree) {
  const int hops = GetParam();
  const int n = 4;
  std::vector<VectorClock> vcs;
  std::vector<LamportClock> lcs(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) vcs.emplace_back(n, i);

  VectorClock prev_vc = vcs[0];
  LamportClock prev_lc = lcs[0];
  for (int h = 0; h < hops; ++h) {
    const int dst = (h + 1) % n;
    auto& vc = vcs[static_cast<std::size_t>(dst)];
    auto& lc = lcs[static_cast<std::size_t>(dst)];
    vc.merge(prev_vc);
    vc.tick();
    lc.merge(prev_lc.value());
    lc.tick();
    // Each hop is causally after the previous state.
    EXPECT_EQ(VectorClock::compare(prev_vc, vc), Ordering::kBefore);
    EXPECT_LT(prev_lc.value(), lc.value());
    prev_vc = vc;
    prev_lc = lc;
  }
}

INSTANTIATE_TEST_SUITE_P(Hops, ClockChainTest,
                         ::testing::Values(1, 2, 5, 16, 64));

}  // namespace
}  // namespace dampi::clocks

namespace dampi::core {
namespace {

using clocks::LamportClock;
using clocks::Ordering;
using clocks::VectorClock;
using mpism::Bytes;

/// Small components make equal, before, after and concurrent pairs all
/// common; UINT64_MAX checks that nothing overflows.
std::vector<VectorClock::Value> random_components(Rng& rng, int n) {
  std::vector<VectorClock::Value> v(static_cast<std::size_t>(n));
  for (auto& c : v) {
    c = rng.next_below(16) == 0 ? ~VectorClock::Value{0} : rng.next_below(4);
  }
  return v;
}

Bytes serialized(ClockMode mode, const std::vector<VectorClock::Value>& v) {
  if (mode == ClockMode::kLamport) return mpism::pack(v.front());
  return mpism::pack_vec(v);
}

// ClockState decodes a message clock once and compares or merges it in
// place; every answer must equal the clocks:: reference, in both modes,
// with empty (uninstrumented) message clocks mixed in.
TEST(ClockStateDifferential, MatchesTheReferenceClocks) {
  Rng rng(2024);
  for (const ClockMode mode : {ClockMode::kLamport, ClockMode::kVector}) {
    for (int trial = 0; trial < 400; ++trial) {
      const int n = 1 + static_cast<int>(rng.next_below(6));
      const int rank = static_cast<int>(rng.next_below(n));
      ClockState state(mode, n, rank);
      LamportClock ref_lc;
      VectorClock ref_vc(n, rank);
      MsgClock msg;
      for (int step = 0; step < 12; ++step) {
        const bool empty = rng.next_below(8) == 0;
        const auto m = random_components(rng, n);
        const Bytes wire = empty ? Bytes{} : serialized(mode, m);
        state.decode(wire, &msg);
        ASSERT_EQ(msg.empty(), empty);

        const auto epoch_vc = random_components(rng, n);
        const std::uint64_t epoch_lc = epoch_vc.front();
        const std::vector<VectorClock::Value> no_vc;
        const auto& evc = mode == ClockMode::kVector ? epoch_vc : no_vc;
        bool want_late = false;
        bool want_after = true;
        if (!empty && mode == ClockMode::kLamport) {
          want_late = m.front() < epoch_lc;
          want_after = m.front() >= epoch_lc;
        } else if (!empty) {
          const Ordering o = VectorClock::compare(m, epoch_vc);
          want_late = VectorClock::not_after(m, epoch_vc);
          want_after = o == Ordering::kAfter || o == Ordering::kEqual;
        }
        EXPECT_EQ(state.is_late(msg, epoch_lc, evc), want_late);
        EXPECT_EQ(state.is_after(msg, epoch_lc, evc), want_after);

        state.merge(msg);
        if (!empty && mode == ClockMode::kLamport) {
          ref_lc.merge(m.front());
        } else if (!empty) {
          ref_vc.merge(m);
          VectorClock::Value max_c = 0;
          for (const auto c : m) max_c = std::max(max_c, c);
          ref_lc.merge(max_c);
        }
        if (rng.next_below(3) == 0) {
          state.tick();
          ref_lc.tick();
          ref_vc.tick();
        }
        ASSERT_EQ(state.lamport_value(), ref_lc.value());
        if (mode == ClockMode::kVector) {
          ASSERT_EQ(state.vector_components(), ref_vc.components());
        }
      }

      // Collective merge: the component-wise (scalar) max of every
      // contribution.
      const std::size_t k = 1 + rng.next_below(5);
      std::vector<Bytes> all;
      VectorClock ref_max(n, 0);
      VectorClock::Value ref_scalar = 0;
      for (std::size_t i = 0; i < k; ++i) {
        const auto m = random_components(rng, n);
        all.push_back(serialized(mode, m));
        ref_max.merge(m);
        ref_scalar = std::max(ref_scalar, m.front());
      }
      const Bytes merged = ClockState::merge_serialized(all);
      if (mode == ClockMode::kLamport) {
        EXPECT_EQ(merged, mpism::pack(ref_scalar));
      } else {
        EXPECT_EQ(merged, mpism::pack_vec(ref_max.components()));
      }
    }
  }
  EXPECT_TRUE(ClockState::merge_serialized({Bytes{}, Bytes{}}).empty());
}

}  // namespace
}  // namespace dampi::core
