// Observability subsystem tests: lock-free tracer lanes (stress,
// wraparound), Chrome trace_event export/validation, and the metrics
// registry. The emit-macro and end-to-end sections compile only when the
// tracer is compiled in (DAMPI_TRACE=ON, the default).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/run_helpers.hpp"
#include "support/verify_helpers.hpp"
#include "workloads/patterns.hpp"

namespace dampi::test {
namespace {

using obs::EventKind;
using obs::Phase;
using obs::Tracer;

/// Enables tracing for one test and restores a clean tracer afterwards.
class TracerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::instance().reset();
    Tracer::instance().set_capacity(1u << 14);
    Tracer::instance().set_enabled(true);
  }
  void TearDown() override {
    Tracer::instance().set_enabled(false);
    Tracer::instance().reset();
  }
};

TEST_F(TracerFixture, LaneKeepsEveryEventBelowCapacity) {
  obs::Lane* lane = Tracer::instance().acquire("solo");
  ASSERT_NE(lane, nullptr);
  for (int i = 0; i < 100; ++i) {
    lane->emit(EventKind::kSendMatch, Phase::kInstant, i, 2 * i, 3 * i,
               static_cast<std::uint64_t>(i));
  }
  Tracer::instance().release(lane);

  const auto lanes = Tracer::instance().snapshot();
  ASSERT_EQ(lanes.size(), 1u);
  EXPECT_EQ(lanes[0].name, "solo");
  EXPECT_EQ(lanes[0].emitted, 100u);
  ASSERT_EQ(lanes[0].events.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    const auto& e = lanes[0].events[static_cast<std::size_t>(i)];
    EXPECT_EQ(e.a, i);
    EXPECT_EQ(e.b, 2 * i);
    EXPECT_EQ(e.c, 3 * i);
    EXPECT_EQ(e.d, static_cast<std::uint64_t>(i));
    EXPECT_EQ(e.kind, EventKind::kSendMatch);
  }
}

TEST_F(TracerFixture, RingWraparoundKeepsNewestEvents) {
  Tracer::instance().set_capacity(64);
  obs::Lane* lane = Tracer::instance().acquire("wrap");
  ASSERT_NE(lane, nullptr);
  const std::uint64_t total = 1000;
  for (std::uint64_t i = 0; i < total; ++i) {
    lane->emit(EventKind::kRecvMatch, Phase::kInstant, 0, 0, 0, i);
  }
  Tracer::instance().release(lane);

  const auto lanes = Tracer::instance().snapshot();
  ASSERT_EQ(lanes.size(), 1u);
  EXPECT_EQ(lanes[0].emitted, total);
  ASSERT_EQ(lanes[0].events.size(), 64u);
  // Oldest-to-newest window ending at the last event emitted.
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(lanes[0].events[i].d, total - 64 + i);
  }
}

TEST_F(TracerFixture, ConcurrentLanesLoseNoEventsAndTearNone) {
  constexpr int kThreads = 8;
  constexpr std::uint64_t kEvents = 20000;
  Tracer::instance().set_capacity(kEvents);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      obs::Lane* lane =
          Tracer::instance().acquire("stress " + std::to_string(t));
      ASSERT_NE(lane, nullptr);
      for (std::uint64_t i = 0; i < kEvents; ++i) {
        // a/b/c/d all derived from (t, i): any torn write shows up as an
        // inconsistent tuple below.
        lane->emit(EventKind::kBlock, Phase::kInstant, t,
                   static_cast<std::int32_t>(i & 0x7fffffff),
                   t ^ static_cast<std::int32_t>(i & 0x7fffffff), i);
      }
      Tracer::instance().release(lane);
    });
  }
  for (auto& t : threads) t.join();

  const auto lanes = Tracer::instance().snapshot();
  ASSERT_EQ(lanes.size(), static_cast<std::size_t>(kThreads));
  for (const auto& lane : lanes) {
    ASSERT_EQ(lane.name.rfind("stress ", 0), 0u);
    const int t = std::stoi(lane.name.substr(7));
    EXPECT_EQ(lane.emitted, kEvents) << lane.name;
    ASSERT_EQ(lane.events.size(), kEvents) << lane.name;
    std::uint64_t prev_ts = 0;
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      const auto& e = lane.events[i];
      ASSERT_EQ(e.d, i) << lane.name;  // none lost, in order
      ASSERT_EQ(e.a, t) << lane.name;
      ASSERT_EQ(e.b, static_cast<std::int32_t>(i & 0x7fffffff));
      ASSERT_EQ(e.c, t ^ static_cast<std::int32_t>(i & 0x7fffffff));
      ASSERT_GE(e.ts_ns, prev_ts) << lane.name;  // monotone per lane
      prev_ts = e.ts_ns;
    }
  }
}

TEST_F(TracerFixture, LanesAreRecycledByName) {
  obs::Lane* first = Tracer::instance().acquire("rank 0");
  first->emit(EventKind::kSendMatch, Phase::kInstant, 1, 2, 3, 4);
  Tracer::instance().release(first);
  obs::Lane* second = Tracer::instance().acquire("rank 0");
  EXPECT_EQ(first, second);  // sequential claims share the lane
  obs::Lane* third = Tracer::instance().acquire("rank 0");
  EXPECT_NE(second, third);  // concurrent claims get a fresh one
  Tracer::instance().release(second);
  Tracer::instance().release(third);
  EXPECT_EQ(Tracer::instance().snapshot().size(), 2u);
}

TEST_F(TracerFixture, AcquireWhileDisabledReturnsNoLane) {
  Tracer::instance().set_enabled(false);
  EXPECT_EQ(Tracer::instance().acquire("off"), nullptr);
  Tracer::instance().release(nullptr);  // must be harmless
}

TEST_F(TracerFixture, ChromeExportValidatesWithMonotonicLanes) {
  for (int t = 0; t < 3; ++t) {
    obs::Lane* lane = Tracer::instance().acquire("lane " + std::to_string(t));
    for (int i = 0; i < 50; ++i) {
      lane->emit(EventKind::kCollective, Phase::kBegin, 1, 0, 0, 0);
      lane->emit(EventKind::kCollective, Phase::kEnd, 1, 0, 0, 0);
      lane->emit(EventKind::kDeadlock, Phase::kInstant, 0, 0, 0, 0);
    }
    Tracer::instance().release(lane);
  }
  const std::string json =
      obs::chrome_trace_json(Tracer::instance().snapshot());
  std::string error;
  std::size_t event_lanes = 0;
  EXPECT_TRUE(obs::validate_chrome_trace(json, &error, &event_lanes))
      << error;
  EXPECT_EQ(event_lanes, 3u);
}

TEST_F(TracerFixture, ExportReportsDroppedEventsOnWraparound) {
  Tracer::instance().set_capacity(16);
  obs::Lane* lane = Tracer::instance().acquire("droppy");
  for (int i = 0; i < 100; ++i) {
    lane->emit(EventKind::kRecvPost, Phase::kInstant, 0, 0, 0, 0);
  }
  Tracer::instance().release(lane);
  const std::string json =
      obs::chrome_trace_json(Tracer::instance().snapshot());
  EXPECT_NE(json.find("dropped"), std::string::npos);
  std::string error;
  EXPECT_TRUE(obs::validate_chrome_trace(json, &error)) << error;
}

TEST(ChromeTraceValidator, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(obs::validate_chrome_trace("not json", &error));
  EXPECT_FALSE(obs::validate_chrome_trace("{}", &error));
  EXPECT_FALSE(obs::validate_chrome_trace("[{\"ph\":\"i\"}]", &error));
  // Non-monotone timestamps within one tid.
  const std::string backwards =
      "[{\"name\":\"a\",\"ph\":\"i\",\"pid\":1,\"tid\":1,\"ts\":5.0},"
      "{\"name\":\"b\",\"ph\":\"i\",\"pid\":1,\"tid\":1,\"ts\":4.0}]";
  EXPECT_FALSE(obs::validate_chrome_trace(backwards, &error));
  EXPECT_NE(error.find("backwards"), std::string::npos);
  // The same timestamps on different tids are fine.
  const std::string two_lanes =
      "[{\"name\":\"a\",\"ph\":\"i\",\"pid\":1,\"tid\":1,\"ts\":5.0},"
      "{\"name\":\"b\",\"ph\":\"i\",\"pid\":1,\"tid\":2,\"ts\":4.0}]";
  std::size_t event_lanes = 0;
  EXPECT_TRUE(obs::validate_chrome_trace(two_lanes, &error, &event_lanes))
      << error;
  EXPECT_EQ(event_lanes, 2u);
}

TEST(Metrics, CountersAccumulateAcrossThreads) {
  obs::Counter counter;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < 100000; ++i) counter.add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value(), 800000u);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

// A default run executes its ranks as coop fibers in every build,
// AddressSanitizer and ThreadSanitizer builds included: the scheduler
// counts the run and its fiber switches.
TEST(Metrics, DefaultRunCountsCoopRunsInEveryBuild) {
  auto& reg = obs::Registry::instance();
  reg.reset();
  const auto report = run_program(
      4, [](mpism::Proc& p) { workloads::fan_in_rounds(p, 2); });
  ASSERT_TRUE(report.ok()) << report.deadlock_detail;
  EXPECT_EQ(reg.counter("scheduler.coop_runs").value(), 1u);
  EXPECT_GT(reg.counter("scheduler.switches").value(), 0u);
  reg.reset();
}

TEST(Metrics, GaugeTracksLevelAndHighWater) {
  obs::Gauge gauge;
  gauge.set(5);
  gauge.set(12);
  gauge.set(3);
  EXPECT_EQ(gauge.value(), 3);
  EXPECT_EQ(gauge.max(), 12);
}

TEST(Metrics, HistogramQuantilesBoundSamples) {
  obs::FixedHistogram hist(1e-3, 16);
  for (int i = 0; i < 90; ++i) hist.add(1e-3);
  for (int i = 0; i < 10; ++i) hist.add(1.0);
  EXPECT_EQ(hist.count(), 100u);
  EXPECT_LE(hist.quantile_bound(0.5), 4e-3);
  EXPECT_GE(hist.quantile_bound(0.99), 1.0);
}

TEST(Metrics, RegistryReturnsStableReferencesAndDumps) {
  auto& registry = obs::Registry::instance();
  obs::Counter& c1 = registry.counter("test_obs.sample_counter");
  obs::Counter& c2 = registry.counter("test_obs.sample_counter");
  EXPECT_EQ(&c1, &c2);
  c1.add(41);
  c2.add(1);
  registry.gauge("test_obs.sample_gauge").set(7);
  registry.histogram("test_obs.sample_hist").add(0.5);
  const std::string dump = registry.dump();
  EXPECT_NE(dump.find("test_obs.sample_counter 42"), std::string::npos);
  EXPECT_NE(dump.find("test_obs.sample_gauge 7"), std::string::npos);
  EXPECT_NE(dump.find("test_obs.sample_hist n=1"), std::string::npos);
  c1.reset();
}

#if DAMPI_TRACE_ENABLED

TEST(TraceMacros, EmitIsDroppedWithoutALane) {
  Tracer::instance().reset();
  Tracer::instance().set_enabled(true);
  // This thread holds no lane: the macro must be a safe no-op.
  DAMPI_TEVENT(EventKind::kDeadlock, Phase::kInstant);
  Tracer::instance().set_enabled(false);
  EXPECT_TRUE(Tracer::instance().snapshot().empty());
  Tracer::instance().reset();
}

// End to end: a traced exploration produces one lane per simulated rank
// plus the exploring thread, and the lanes carry the event taxonomy the
// verifier promises (epoch opens/closes on rank lanes, decision events
// on the explore lane), exported as a valid Chrome trace.
TEST(TraceEndToEnd, ExplorerRunProducesRankAndExploreLanes) {
  Tracer::instance().reset();
  Tracer::instance().set_enabled(true);

  core::ExplorerOptions options = explorer_options(3);
  core::Explorer explorer(options);
  const auto result = explorer.explore(workloads::fig3_benign);
  Tracer::instance().set_enabled(false);
  EXPECT_GE(result.interleavings, 2u);

  const auto lanes = Tracer::instance().snapshot();
  std::size_t rank_lanes = 0;
  bool explore_lane_seen = false;
  std::size_t epoch_opens = 0;
  std::size_t decision_pushes = 0;
  for (const auto& lane : lanes) {
    if (lane.name.rfind("rank ", 0) == 0) ++rank_lanes;
    if (lane.name == "explore") explore_lane_seen = true;
    for (const auto& e : lane.events) {
      if (e.kind == EventKind::kEpochOpen) ++epoch_opens;
      if (e.kind == EventKind::kDecisionPush) ++decision_pushes;
      if (e.kind == EventKind::kEpochOpen ||
          e.kind == EventKind::kEpochClose) {
        EXPECT_EQ(lane.name, "rank " + std::to_string(e.a));
      }
    }
  }
  EXPECT_EQ(rank_lanes, 3u);  // sequential replays recycle the rank lanes
  EXPECT_TRUE(explore_lane_seen);
  // fig3-benign records one wildcard epoch per interleaving on rank 0.
  EXPECT_GE(epoch_opens, result.interleavings);
  EXPECT_GE(decision_pushes, 1u);

  std::string error;
  std::size_t event_lanes = 0;
  EXPECT_TRUE(obs::validate_chrome_trace(
      obs::chrome_trace_json(lanes), &error, &event_lanes))
      << error;
  EXPECT_GE(event_lanes, 4u);
  Tracer::instance().reset();
}

#endif  // DAMPI_TRACE_ENABLED

}  // namespace
}  // namespace dampi::test
