#include "campaign.hpp"

#include <chrono>
#include <filesystem>
#include <system_error>

#include "obs/metrics.hpp"

namespace perfbench {

namespace core = dampi::core;
namespace dist = dampi::dist;
namespace obs = dampi::obs;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::map<std::string, std::uint64_t> snapshot_counters() {
  std::map<std::string, std::uint64_t> values;
  for (const std::string& name : traced_counters()) {
    values[name] = obs::Registry::instance().counter(name).value();
  }
  return values;
}

}  // namespace

const std::vector<std::string>& traced_counters() {
  static const std::vector<std::string> names = {
      "engine.runs",
      "engine.messages_sent",
      "engine.lock.acquired",
      "scheduler.switches",
      "engine.envelope.inline_hits",
      "engine.envelope.heap_spills",
      "engine.pool.req_acquired",
      "engine.pool.req_reused",
      "engine.pool.node_acquired",
      "engine.pool.node_reused",
      "engine.pool.buf_acquired",
      "engine.pool.buf_reused",
      "layer.late_messages",
      "layer.potential_matches",
  };
  return names;
}

Campaign run_campaign(const CampaignSetup& setup, bool wide, bool traced) {
  const Workload& w = *setup.workload;
  Campaign c;
  c.wide = wide;
  c.traced = traced;

  core::ExplorerOptions options = w.options;
  if (w.checkpointed) {
    std::error_code ignored;
    std::filesystem::remove(setup.journal_path, ignored);
    options.checkpoint_path = setup.journal_path;
  }
  if (wide && !w.distributed) options.jobs = setup.width;
  if (traced) c.runs.reserve(w.answer.interleavings + 64);

  // The explorer serializes run_stats delivery, and explore() joins its
  // pool before returning, so the callback may write these unguarded.
  Clock::time_point t0;
  Clock::time_point first_run;
  bool have_first_run = false;
  options.run_stats = [&](const core::RunStats& rs) {
    const Clock::time_point now = Clock::now();
    if (!have_first_run) {
      have_first_run = true;
      first_run = now;
    }
    if (traced) {
      c.runs.push_back(
          {seconds_between(t0, now), rs.wall_seconds, rs.runs_in_flight});
    }
  };

  const std::map<std::string, std::uint64_t> before =
      traced ? snapshot_counters() : std::map<std::string, std::uint64_t>{};
  std::string error;
  t0 = Clock::now();
  if (wide && w.distributed) {
    dist::DistOptions d;
    d.workers = setup.width;
    d.worker_argv = setup.worker_argv;
    d.explorer = options;
    dist::DistResult r = dist::run_distributed(d, w.program);
    c.wall_s = seconds_between(t0, Clock::now());
    c.result = std::move(r.exploration);
    c.dist = r.stats;
    c.worker_metrics = std::move(r.worker_metrics);
    error = r.error;
  } else {
    c.result = core::Explorer(options).explore(w.program);
    c.wall_s = seconds_between(t0, Clock::now());
  }
  c.setup_s = have_first_run ? seconds_between(t0, first_run) : c.wall_s;

  if (traced) {
    const std::map<std::string, std::uint64_t> after = snapshot_counters();
    for (const auto& [name, value] : after) {
      c.counter_deltas[name] = value - before.at(name);
    }
    if (w.checkpointed) {
      std::error_code ec;
      const auto size = std::filesystem::file_size(setup.journal_path, ec);
      if (!ec) c.journal_bytes = size;
    }
  }

  c.verdict = verdict(c.result);
  c.mismatch = check_answer(w.answer, c.result);
  if (!error.empty()) c.mismatch += "distributed campaign error: " + error;
  return c;
}

}  // namespace perfbench
