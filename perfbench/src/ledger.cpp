#include "ledger.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <system_error>
#include <utility>

#include "core/checkpoint.hpp"
#include "core/shard.hpp"
#include "mpism/runtime.hpp"

namespace perfbench {

namespace core = dampi::core;
namespace mpism = dampi::mpism;

namespace {

using Clock = std::chrono::steady_clock;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double rate(const Campaign& c) {
  return ratio(static_cast<double>(c.result.interleavings), c.wall_s);
}

template <typename Pred>
std::vector<const Campaign*> select(const std::vector<Campaign>& campaigns,
                                    Pred pred) {
  std::vector<const Campaign*> out;
  for (const Campaign& c : campaigns) {
    if (pred(c)) out.push_back(&c);
  }
  return out;
}

template <typename Fn>
std::vector<double> each(const std::vector<const Campaign*>& campaigns,
                         Fn fn) {
  std::vector<double> out;
  for (const Campaign* c : campaigns) out.push_back(fn(*c));
  return out;
}

/// Wall time of a campaign not covered by the setup span or by any
/// replay interval [end - wall, end], as a share of the campaign wall.
double unattributed_share(const Campaign& c) {
  std::vector<std::pair<double, double>> spans = {{0.0, c.setup_s}};
  for (const RunSample& r : c.runs) {
    if (r.wall_s > 0.0) spans.emplace_back(r.end_s - r.wall_s, r.end_s);
  }
  std::sort(spans.begin(), spans.end());
  double covered = 0.0;
  double reach = 0.0;
  for (auto [lo, hi] : spans) {
    lo = std::max(lo, reach);
    hi = std::min(hi, c.wall_s);
    if (hi > lo) {
      covered += hi - lo;
      reach = hi;
    }
  }
  return 1.0 - ratio(covered, c.wall_s);
}

/// Serial wall minus setup, minus every replay after the discovery run,
/// minus the journal writes (each charged the measured save time).
double explorer_self_s(const Campaign& c, double save_ms) {
  double replays = 0.0;
  for (std::size_t i = 1; i < c.runs.size(); ++i) replays += c.runs[i].wall_s;
  const double journal =
      static_cast<double>(c.result.checkpoint_writes) * save_ms / 1e3;
  return c.wall_s - c.setup_s - replays - journal;
}

/// Largest over smallest interleavings per worker process, from the
/// per-shard registry dumps workers ship home (a worker that got no
/// shard counts as 1, so the ratio stays finite).
double worker_imbalance(const Campaign& c) {
  std::map<int, double> per_worker;
  for (const auto& [worker, dump] : c.worker_metrics) {
    std::istringstream lines(dump);
    std::string name;
    std::string value;
    while (lines >> name >> value) {
      if (name == "explorer.interleavings") {
        per_worker[worker] += std::strtod(value.c_str(), nullptr);
      }
      lines.ignore(1 << 20, '\n');
    }
  }
  if (per_worker.empty()) return 0.0;
  double lo = per_worker.begin()->second;
  double hi = lo;
  for (const auto& [worker, n] : per_worker) {
    lo = std::min(lo, n);
    hi = std::max(hi, n);
  }
  if (static_cast<int>(per_worker.size()) < c.dist.workers_spawned) lo = 0.0;
  return hi / std::max(lo, 1.0);
}

}  // namespace

SideLedger measure_side_loops(const Workload& w, double budget_s) {
  SideLedger side;
  mpism::RunOptions native;
  native.nprocs = w.options.nprocs;
  native.cost = w.options.cost;
  native.sched = w.options.sched;

  constexpr int kMinSamples = 5;
  constexpr int kMaxSamples = 400;
  const Clock::time_point stop =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(budget_s));
  for (int i = 0; i < kMaxSamples && (i < kMinSamples || Clock::now() < stop);
       ++i) {
    const Clock::time_point t0 = Clock::now();
    auto runtime = std::make_unique<mpism::Runtime>(native);
    const Clock::time_point t1 = Clock::now();
    const mpism::RunReport report = runtime->run(w.program);
    const Clock::time_point t2 = Clock::now();
    runtime.reset();
    const Clock::time_point t3 = Clock::now();
    side.build_us.push_back(us_between(t0, t1));
    side.run_us.push_back(us_between(t1, t2));
    side.teardown_us.push_back(us_between(t2, t3));
    side.native_us.push_back(us_between(t0, t3));
    ++side.attempted;
    if (!report.ok()) side.failures.push_back("native run did not complete");

    const Clock::time_point g0 = Clock::now();
    const core::SingleRun guided =
        core::run_guided_once(w.options, core::Schedule{}, w.program);
    side.guided_us.push_back(us_between(g0, Clock::now()));
    ++side.attempted;
    if (!guided.report.ok()) {
      side.failures.push_back("guided discovery replay did not complete");
    }
  }

  if (w.distributed) {
    core::ExplorerOptions discovery = w.options;
    discovery.discovery_only = true;
    const core::ExploreResult found =
        core::Explorer(discovery).explore(w.program);
    core::Checkpoint root;
    root.fingerprint = core::options_fingerprint(w.options);
    root.frames = found.frontier;
    for (int i = 0; i < kMinSamples; ++i) {
      const Clock::time_point t0 = Clock::now();
      const std::vector<core::Checkpoint> shards =
          core::split_frontier(root, 0, w.options.por);
      side.split_ms.push_back(us_between(t0, Clock::now()) / 1e3);
      ++side.attempted;
      if (shards.empty()) side.failures.push_back("split_frontier: no shards");
    }
  }
  return side;
}

void measure_journal(const Workload& w, const std::string& path, int reps,
                     SideLedger& side) {
  const std::string fingerprint = core::options_fingerprint(w.options);
  const std::string copy = path + ".resave";
  for (int i = 0; i < reps; ++i) {
    std::string error;
    const Clock::time_point t0 = Clock::now();
    const std::optional<core::Checkpoint> cp =
        core::load_checkpoint(path, fingerprint, &error);
    const Clock::time_point t1 = Clock::now();
    ++side.attempted;
    if (!cp) {
      side.failures.push_back("load_checkpoint: " + error);
      return;
    }
    const bool saved = core::save_checkpoint(*cp, copy);
    const Clock::time_point t2 = Clock::now();
    if (!saved) side.failures.push_back("save_checkpoint failed");
    side.load_ms.push_back(us_between(t0, t1) / 1e3);
    side.save_ms.push_back(us_between(t1, t2) / 1e3);
  }
  std::error_code ignored;
  std::filesystem::remove(copy, ignored);
}

double peak_rss_mb() {
  // This process's high-water mark comes from VmHWM: getrusage's
  // ru_maxrss survives execve, so it would report the launching
  // process's footprint. Worker processes are this binary, forked from
  // here, so their ru_maxrss is at most this process's peak or their own.
  double self_kb = 0.0;
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      status >> self_kb;
      break;
    }
    status.ignore(1 << 20, '\n');
  }
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  return std::max(self_kb, static_cast<double>(children.ru_maxrss)) / 1024.0;
}

std::vector<Metric> end_to_end_metrics(const std::vector<Campaign>& all,
                                       double peak_rss) {
  // Throughput pools every campaign of a width: interleavings over
  // campaign wall time, as campaigns run back to back.
  auto throughput = [&](bool wide) {
    double interleavings = 0.0;
    double wall = 0.0;
    for (const Campaign& c : all) {
      if (c.wide != wide) continue;
      interleavings += static_cast<double>(c.result.interleavings);
      wall += c.wall_s;
    }
    return ratio(interleavings, wall);
  };
  std::vector<double> setup_s;
  for (const Campaign& c : all) setup_s.push_back(c.setup_s);
  return {
      {"interleavings_per_s", "1/s", throughput(true)},
      {"interleavings_per_s_serial", "1/s", throughput(false)},
      {"setup_s", "s", median(setup_s)},
      {"peak_rss_mb", "MB", peak_rss},
  };
}

std::vector<Metric> per_layer_metrics(const SideLedger& side,
                                      const std::vector<Campaign>& all) {
  const auto serial = select(
      all, [](const Campaign& c) { return c.traced && !c.wide; });
  const auto wide_traced =
      select(all, [](const Campaign& c) { return c.traced && c.wide; });
  const auto wide_untraced =
      select(all, [](const Campaign& c) { return !c.traced && c.wide; });

  // Registry deltas and replay samples of the serial (one-thread,
  // in-process) campaigns, where every counted run is this campaign's.
  std::map<std::string, double> sum;
  std::vector<double> replay_us;
  for (const Campaign* c : serial) {
    for (const auto& [name, delta] : c->counter_deltas) {
      sum[name] += static_cast<double>(delta);
    }
    for (std::size_t i = 1; i < c->runs.size(); ++i) {
      if (c->runs[i].wall_s > 0.0) replay_us.push_back(c->runs[i].wall_s * 1e6);
    }
  }
  const double runs = sum["engine.runs"];
  const double acquired = sum["engine.pool.req_acquired"] +
                          sum["engine.pool.node_acquired"] +
                          sum["engine.pool.buf_acquired"];
  const double reused = sum["engine.pool.req_reused"] +
                        sum["engine.pool.node_reused"] +
                        sum["engine.pool.buf_reused"];

  const core::ExploreResult* first_serial =
      serial.empty() ? nullptr : &serial.front()->result;
  const double pruned =
      first_serial ? static_cast<double>(first_serial->por_pruned) : 0.0;
  const double explored =
      first_serial ? static_cast<double>(first_serial->interleavings) : 0.0;

  std::vector<double> in_flight;
  for (const Campaign* c : wide_traced) {
    for (const RunSample& r : c->runs) {
      if (r.wall_s > 0.0) in_flight.push_back(static_cast<double>(r.in_flight));
    }
  }
  auto wide_median = [&](auto fn) { return median(each(wide_traced, fn)); };
  const double save_ms = median(side.save_ms);

  return {
      {"mpism.runtime_build_us", "us", median(side.build_us)},
      {"mpism.runtime_teardown_us", "us", median(side.teardown_us)},
      {"mpism.native_run_us", "us", median(side.run_us)},
      {"mpism.native_samples", "count",
       static_cast<double>(side.native_us.size())},
      {"mpism.messages_per_run", "count",
       ratio(sum["engine.messages_sent"], runs)},
      {"mpism.lock_acquired_per_run", "count",
       ratio(sum["engine.lock.acquired"], runs)},
      {"mpism.sched_switches_per_run", "count",
       ratio(sum["scheduler.switches"], runs)},
      {"mpism.envelope_heap_spill_ratio", "ratio",
       ratio(sum["engine.envelope.heap_spills"],
             sum["engine.envelope.heap_spills"] +
                 sum["engine.envelope.inline_hits"])},
      {"mpism.pool_reuse_ratio", "ratio", ratio(reused, acquired)},
      {"core.replay_us_p50", "us", quantile(replay_us, 0.50)},
      {"core.replay_us_p99", "us", quantile(replay_us, 0.99)},
      {"core.replay_samples", "count", static_cast<double>(replay_us.size())},
      {"core.layer_overhead_us", "us",
       median(side.guided_us) - median(side.native_us)},
      {"core.late_messages_per_run", "count",
       ratio(sum["layer.late_messages"], runs)},
      {"core.potential_matches_per_run", "count",
       ratio(sum["layer.potential_matches"], runs)},
      {"core.explorer_self_s", "s",
       median(each(serial,
                   [&](const Campaign& c) {
                     return explorer_self_s(c, save_ms);
                   }))},
      {"core.explorer_self_share", "ratio",
       median(each(serial,
                   [&](const Campaign& c) {
                     return ratio(explorer_self_s(c, save_ms), c.wall_s);
                   }))},
      {"core.por_pruned", "count", pruned},
      {"core.por_sleep_hits", "count",
       first_serial ? static_cast<double>(first_serial->por_sleep_hits) : 0.0},
      {"core.por_prune_ratio", "ratio", ratio(pruned, pruned + explored)},
      {"core.pool_inline_share", "ratio",
       wide_median([](const Campaign& c) {
         return ratio(static_cast<double>(c.result.pool.inline_runs),
                      static_cast<double>(c.result.interleavings));
       })},
      {"core.pool_waste_ratio", "ratio",
       wide_median([](const Campaign& c) {
         return ratio(static_cast<double>(c.result.pool.speculative_waste),
                      static_cast<double>(c.result.pool.worker_runs));
       })},
      {"core.pool_in_flight_mean", "count", mean(in_flight)},
      {"core.checkpoint_writes", "count",
       first_serial ? static_cast<double>(first_serial->checkpoint_writes)
                    : 0.0},
      {"core.checkpoint_bytes", "B",
       serial.empty() ? 0.0
                      : static_cast<double>(serial.front()->journal_bytes)},
      {"core.checkpoint_save_ms", "ms", save_ms},
      {"core.checkpoint_load_ms", "ms", median(side.load_ms)},
      {"dist.shards", "count",
       wide_median([](const Campaign& c) {
         return static_cast<double>(c.dist.shards_initial);
       })},
      {"dist.steals", "count",
       wide_median([](const Campaign& c) {
         return static_cast<double>(c.dist.shards_stolen);
       })},
      {"dist.escapes", "count",
       wide_median([](const Campaign& c) {
         return static_cast<double>(c.dist.shards_escaped);
       })},
      {"dist.worker_imbalance", "ratio", wide_median(worker_imbalance)},
      {"dist.split_ms", "ms", median(side.split_ms)},
      {"unattributed_share", "ratio", wide_median(unattributed_share)},
      {"tracing_overhead_per_s", "1/s",
       median(each(wide_traced, rate)) - median(each(wide_untraced, rate))},
  };
}

}  // namespace perfbench
