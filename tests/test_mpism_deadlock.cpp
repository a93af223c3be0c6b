// Deadlock detection: under eager sends, "every live rank is blocked" is
// an exact criterion — these tests pin both directions (real deadlocks
// are detected; progressing programs never trigger it).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "support/run_helpers.hpp"

namespace dampi::test {
namespace {

using mpism::Bytes;
using mpism::kAnySource;
using mpism::pack;
using mpism::unpack;

TEST(Deadlock, MutualRecvDeadlocks) {
  auto report = run_program(2, [](Proc& p) {
    // Both wait for a message that is never sent.
    p.recv(1 - p.rank(), 1);
  });
  EXPECT_TRUE(report.deadlocked);
  EXPECT_FALSE(report.completed);
  EXPECT_NE(report.deadlock_detail.find("rank 0"), std::string::npos);
  EXPECT_NE(report.deadlock_detail.find("rank 1"), std::string::npos);
}

TEST(Deadlock, RecvFromFinishedRankDeadlocks) {
  auto report = run_program(2, [](Proc& p) {
    if (p.rank() == 0) p.recv(1, 1);
    // rank 1 exits immediately; rank 0 can never be satisfied
  });
  EXPECT_TRUE(report.deadlocked);
}

TEST(Deadlock, WrongTagDeadlocks) {
  auto report = run_program(2, [](Proc& p) {
    if (p.rank() == 0) {
      p.send(1, 1, pack<int>(1));
      p.recv(1, 2);
    } else {
      p.recv(0, 3);  // tag mismatch: never matches
    }
  });
  EXPECT_TRUE(report.deadlocked);
}

TEST(Deadlock, PartialBarrierDeadlocks) {
  auto report = run_program(3, [](Proc& p) {
    if (p.rank() != 2) p.barrier();
    // rank 2 skips the barrier and exits
  });
  EXPECT_TRUE(report.deadlocked);
  EXPECT_NE(report.deadlock_detail.find("barrier"), std::string::npos);
}

TEST(Deadlock, BlockingProbeWithNoSenderDeadlocks) {
  auto report = run_program(2, [](Proc& p) {
    if (p.rank() == 0) p.probe(1, 5);
  });
  EXPECT_TRUE(report.deadlocked);
  EXPECT_NE(report.deadlock_detail.find("probe"), std::string::npos);
}

// Classic head-to-head blocking sends do NOT deadlock under eager sends
// (both buffered) — this models the common MPI eager-protocol reality and
// matches ISP/DAMPI's buffering assumption.
TEST(Deadlock, HeadToHeadEagerSendsComplete) {
  auto report = run_program(2, [](Proc& p) {
    const int other = 1 - p.rank();
    p.send(other, 1, pack<int>(p.rank()));
    Bytes data;
    p.recv(other, 1, &data);
    EXPECT_EQ(unpack<int>(data), other);
  });
  EXPECT_TRUE(report.ok());
}

// A ring of dependent receives that IS satisfiable must not be flagged.
TEST(Deadlock, DependencyChainCompletes) {
  auto report = run_program(4, [](Proc& p) {
    if (p.rank() == 0) {
      p.send(1, 1, pack<int>(0));
      p.recv(3, 1);
    } else {
      p.recv(p.rank() - 1, 1);
      p.send((p.rank() + 1) % 4, 1, pack<int>(p.rank()));
    }
  });
  EXPECT_TRUE(report.ok()) << report.deadlock_detail;
}

// Wildcard receive that has at least one matching sender completes even
// when other ranks are blocked.
TEST(Deadlock, WildcardWithOneSenderCompletes) {
  auto report = run_program(3, [](Proc& p) {
    if (p.rank() == 0) {
      p.recv(kAnySource, 1);
      p.send(2, 2, pack<int>(1));
    } else if (p.rank() == 1) {
      p.send(0, 1, pack<int>(1));
    } else {
      p.recv(0, 2);
    }
  });
  EXPECT_TRUE(report.ok()) << report.deadlock_detail;
}

TEST(Deadlock, LastRankFinishingTriggersDetection) {
  // Rank 1 blocks first; rank 0 computes, then exits without sending.
  // Detection must fire when the last runner *finishes*, not blocks.
  auto report = run_program(2, [](Proc& p) {
    if (p.rank() == 1) {
      p.recv(0, 1);
    } else {
      p.compute(10.0);
    }
  });
  EXPECT_TRUE(report.deadlocked);
}

TEST(Deadlock, WaitanyWithUnsatisfiableRequestsDeadlocks) {
  auto report = run_program(3, [](Proc& p) {
    if (p.rank() == 0) {
      std::vector<mpism::RequestId> reqs = {p.irecv(1, 1), p.irecv(2, 1)};
      p.waitany(reqs);
    }
  });
  EXPECT_TRUE(report.deadlocked);
}

// The deadlock text names every blocked rank and what it waits in, one
// line each, in rank order. Pinned verbatim for each kind of block —
// a receive, a synchronous send, waitany, a blocking probe and a
// collective — so a change to how the engine keeps a rank's block site
// cannot alter the report.
TEST(DeadlockDetail, GoldenTextForEveryBlockKind) {
  auto report = run_program(6, [](Proc& p) {
    const mpism::CommId dup = p.comm_dup();
    p.barrier(dup);
    switch (p.rank()) {
      case 0:
        p.recv(1, 7);  // rank 1 never sends tag 7
        break;
      case 1:
        p.ssend(0, 9, pack<int>(1));  // rank 0 never receives tag 9
        break;
      case 2: {
        std::vector<mpism::RequestId> reqs = {p.irecv(3, 4), p.irecv(4, 4)};
        p.waitany(reqs);
        break;
      }
      case 3:
        p.probe(4, 5, dup);
        break;
      default:
        p.barrier(dup);  // ranks 0-3 never join the second barrier
        break;
    }
  });
  ASSERT_TRUE(report.deadlocked);
  EXPECT_EQ(report.deadlock_detail,
            "rank 0 blocked in wait(recv src=1 tag=7 comm=0)\n"
            "rank 1 blocked in wait(ssend comm=0)\n"
            "rank 2 blocked in waitany\n"
            "rank 3 blocked in probe(src=4 tag=5 comm=1)\n"
            "rank 4 blocked in collective barrier comm=1 gen=1\n"
            "rank 5 blocked in collective barrier comm=1 gen=1\n");
}

// Scale sweep: deadlock detection stays exact with many ranks blocked in
// mixed states (collective + receive).
class DeadlockScaleTest : public ::testing::TestWithParam<int> {};

TEST_P(DeadlockScaleTest, MixedBlockedStatesDetected) {
  const int n = GetParam();
  auto report = run_program(n, [n](Proc& p) {
    if (p.rank() == n - 1) {
      p.recv(0, 99);  // never sent
    } else {
      p.barrier();  // rank n-1 never joins
    }
  });
  EXPECT_TRUE(report.deadlocked);
}

INSTANTIATE_TEST_SUITE_P(Scales, DeadlockScaleTest,
                         ::testing::Values(2, 4, 16, 64));

}  // namespace
}  // namespace dampi::test
