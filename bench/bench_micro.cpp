// Microbenchmarks (google-benchmark): substrate costs underpinning the
// experiment harnesses — clock operations, runtime message round trips,
// wildcard matching, and instrumented vs native per-message wall cost.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <map>

#include "clocks/lamport.hpp"
#include "core/decision.hpp"
#include "clocks/vector_clock.hpp"
#include "core/dampi_layer.hpp"
#include "mpism/runtime.hpp"
#include "workloads/patterns.hpp"

namespace {

using namespace dampi;

void BM_LamportTickMerge(benchmark::State& state) {
  clocks::LamportClock clock;
  std::uint64_t remote = 0;
  for (auto _ : state) {
    clock.tick();
    clock.merge(remote += 3);
    benchmark::DoNotOptimize(clock.value());
  }
}
BENCHMARK(BM_LamportTickMerge);

void BM_VectorClockMerge(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  clocks::VectorClock a(n, 0);
  clocks::VectorClock b(n, 1);
  for (auto _ : state) {
    b.tick();
    a.merge(b);
    benchmark::DoNotOptimize(a.components().data());
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_VectorClockMerge)->Arg(8)->Arg(64)->Arg(512)->Arg(1024);

void BM_VectorClockCompare(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  clocks::VectorClock a(n, 0);
  clocks::VectorClock b(n, 1);
  a.tick();
  b.tick();
  for (auto _ : state) {
    benchmark::DoNotOptimize(clocks::VectorClock::compare(a, b));
  }
}
BENCHMARK(BM_VectorClockCompare)->Arg(8)->Arg(64)->Arg(512);

/// The schedule-lookup hot path: every wildcard completion queries the
/// forced-decision map. Storage is a sorted flat vector (cache-dense
/// binary search); the std::map baseline is timed alongside to keep the
/// replacement honest.
void BM_ScheduleLookupFlat(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  core::ForcedDecisions forced;
  for (int i = 0; i < n; ++i) {
    forced[core::EpochKey{i % 7, static_cast<std::uint64_t>(i)}] = i % 3;
  }
  core::Schedule schedule;
  schedule.forced = forced;
  int probe = 0;
  for (auto _ : state) {
    const core::EpochKey key{probe % 7, static_cast<std::uint64_t>(probe)};
    benchmark::DoNotOptimize(schedule.lookup(key));
    probe = (probe + 1) % (n + 1);  // n+1: one miss per cycle
  }
}
BENCHMARK(BM_ScheduleLookupFlat)->Arg(4)->Arg(32)->Arg(256);

void BM_ScheduleLookupMapBaseline(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::map<core::EpochKey, mpism::Rank> forced;
  for (int i = 0; i < n; ++i) {
    forced[core::EpochKey{i % 7, static_cast<std::uint64_t>(i)}] = i % 3;
  }
  int probe = 0;
  for (auto _ : state) {
    const core::EpochKey key{probe % 7, static_cast<std::uint64_t>(probe)};
    const auto it = forced.find(key);
    benchmark::DoNotOptimize(it == forced.end() ? mpism::kAnySource
                                                : it->second);
    probe = (probe + 1) % (n + 1);
  }
}
BENCHMARK(BM_ScheduleLookupMapBaseline)->Arg(4)->Arg(32)->Arg(256);

/// Wall cost of a full 2-rank run: thread spawn + N ping-pong rounds.
/// Timed in real time: the rank threads do the work while this thread
/// waits, so a CPU-time rate would divide by almost nothing.
void BM_RuntimePingPong(benchmark::State& state) {
  const int rounds = static_cast<int>(state.range(0));
  for (auto _ : state) {
    mpism::RunOptions options;
    options.nprocs = 2;
    mpism::Runtime runtime(std::move(options));
    const auto report = runtime.run([rounds](mpism::Proc& p) {
      for (int i = 0; i < rounds; ++i) {
        if (p.rank() == 0) {
          p.send(1, 1, mpism::pack<int>(i));
          p.recv(1, 2);
        } else {
          p.recv(0, 1);
          p.send(0, 2, mpism::pack<int>(i));
        }
      }
    });
    if (!report.completed) state.SkipWithError("run failed");
  }
  state.SetItemsProcessed(state.iterations() * rounds * 2);
}
BENCHMARK(BM_RuntimePingPong)->Arg(64)->Arg(1024)->UseRealTime();

/// Wildcard matching with a deep unexpected queue: the engine must find
/// per-source heads among q queued messages. Timed in real time, like
/// BM_RuntimePingPong: the rank threads do the work.
void BM_WildcardMatchDepth(benchmark::State& state) {
  const int queued = static_cast<int>(state.range(0));
  for (auto _ : state) {
    mpism::RunOptions options;
    options.nprocs = 4;
    mpism::Runtime runtime(std::move(options));
    const auto report = runtime.run([queued](mpism::Proc& p) {
      if (p.rank() == 0) {
        p.barrier();
        for (int i = 0; i < 3 * queued; ++i) {
          p.recv(mpism::kAnySource, 7);
        }
      } else {
        for (int i = 0; i < queued; ++i) {
          p.send(0, 7, mpism::pack<int>(i));
        }
        p.barrier();
      }
    });
    if (!report.completed) state.SkipWithError("run failed");
  }
  state.SetItemsProcessed(state.iterations() * 3 * queued);
}
BENCHMARK(BM_WildcardMatchDepth)->Arg(16)->Arg(128)->UseRealTime();

/// Native vs DAMPI-instrumented wall cost of the same small program,
/// timed in real time (the rank threads do the work).
void BM_InstrumentationWallOverhead(benchmark::State& state) {
  const bool instrumented = state.range(0) != 0;
  for (auto _ : state) {
    if (instrumented) {
      core::ExplorerOptions options;
      options.nprocs = 3;
      auto sink = std::make_shared<core::TraceSink>();
      auto shared = std::make_shared<core::DampiShared>(options,
                                                        core::Schedule{},
                                                        sink);
      mpism::RunOptions run_options;
      run_options.nprocs = 3;
      run_options.tools = core::make_dampi_setup(shared, nullptr);
      mpism::Runtime runtime(std::move(run_options));
      benchmark::DoNotOptimize(runtime.run(workloads::fig3_benign));
    } else {
      mpism::RunOptions run_options;
      run_options.nprocs = 3;
      mpism::Runtime runtime(std::move(run_options));
      benchmark::DoNotOptimize(runtime.run(workloads::fig3_benign));
    }
  }
}
BENCHMARK(BM_InstrumentationWallOverhead)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"instrumented"})
    ->UseRealTime();

/// Arms every per-run watchdog budget far above what the run uses, so
/// the measured delta is pure bookkeeping: one branch + counter + clock
/// read per op entry.
void arm_generous_watchdogs(mpism::RunOptions& options) {
  options.max_run_wall_seconds = 3600.0;
  options.max_run_vtime_us = 1e15;
  options.max_ops = 1ull << 60;
}

/// Watchdog cost on the hot 2-rank path: identical ping-pong runs with
/// budgets unarmed (0) vs armed (1). EXPERIMENTS.md records the delta.
void BM_WatchdogOverheadPingPong(benchmark::State& state) {
  const bool armed = state.range(0) != 0;
  const int rounds = 1024;
  for (auto _ : state) {
    mpism::RunOptions options;
    options.nprocs = 2;
    if (armed) arm_generous_watchdogs(options);
    mpism::Runtime runtime(std::move(options));
    const auto report = runtime.run([](mpism::Proc& p) {
      for (int i = 0; i < rounds; ++i) {
        if (p.rank() == 0) {
          p.send(1, 1, mpism::pack<int>(i));
          p.recv(1, 2);
        } else {
          p.recv(0, 1);
          p.send(0, 2, mpism::pack<int>(i));
        }
      }
    });
    if (!report.completed) state.SkipWithError("run failed");
  }
  state.SetItemsProcessed(state.iterations() * rounds * 2);
}
BENCHMARK(BM_WatchdogOverheadPingPong)->Arg(0)->Arg(1)->ArgNames({"armed"});

/// Watchdog cost at scale: a 256-rank coop-fiber fan-in, unarmed vs
/// armed.
void BM_WatchdogOverheadRanks256(benchmark::State& state) {
  const bool armed = state.range(0) != 0;
  for (auto _ : state) {
    mpism::RunOptions options;
    options.nprocs = 256;
    if (armed) arm_generous_watchdogs(options);
    mpism::Runtime runtime(std::move(options));
    const auto report = runtime.run(
        [](mpism::Proc& p) { workloads::fan_in_rounds(p, 1); });
    if (!report.completed) state.SkipWithError("run failed");
  }
}
BENCHMARK(BM_WatchdogOverheadRanks256)->Arg(0)->Arg(1)->ArgNames({"armed"});

}  // namespace

BENCHMARK_MAIN();
