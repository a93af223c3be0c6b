// Fault-sweep throughput: plans/sec at workers {1, 2, 4} over the
// fig3-benign fixture, with the byte-identity contract asserted — every
// worker count must produce the exact same crash-tolerance report (the
// sweep is a pure function of program/budget/seed, workers only change
// the wall clock).
//
// Emits BENCH_sweep.json (override with DAMPI_BENCH_OUT) for
// scripts/bench_compare.py --sweep.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "mpism/runtime.hpp"
#include "sweep/sweep.hpp"
#include "workloads/patterns.hpp"

namespace {

struct Row {
  int workers = 0;
  double wall_s = 0.0;
  std::size_t plans = 0;
  double plans_per_s = 0.0;
  int exit_code = -1;
};

}  // namespace

int main() {
  dampi::bench::banner(
      "Fault-sweep campaigns: plans/sec vs sweep worker count",
      "the crash-tolerance report is byte-identical at any worker count; "
      "throughput scales with workers when cores are available");

  const unsigned nproc = std::thread::hardware_concurrency();
  const std::uint64_t budget =
      static_cast<std::uint64_t>(dampi::bench::quick_mode() ? 16 : 48);
  std::printf("host cores: %u, plan budget: %llu\n\n", nproc,
              static_cast<unsigned long long>(budget));

  dampi::sweep::SweepOptions base;
  base.explorer.nprocs = 3;
  base.program_name = "fig3-benign";
  base.budget = budget;
  base.seed = 5;
  base.plan_max_interleavings = 16;

  std::vector<int> widths = {1, 2, 4};
  if (dampi::bench::quick_mode()) widths = {1, 2};

  std::vector<Row> rows;
  std::string reference_report;
  std::printf("%8s %10s %8s %12s %8s\n", "workers", "wall_s", "plans",
              "plans/s", "speedup");
  for (const int w : widths) {
    dampi::sweep::SweepOptions options = base;
    options.workers = w;
    dampi::bench::WallTimer timer;
    const dampi::sweep::SweepResult result =
        dampi::sweep::run_sweep(options, dampi::workloads::fig3_benign);
    Row row;
    row.workers = w;
    row.wall_s = timer.seconds();
    row.plans = result.records.size();
    row.plans_per_s = row.wall_s > 0.0 ? row.plans / row.wall_s : 0.0;
    row.exit_code = dampi::sweep::sweep_exit_code(result);
    if (!result.error.empty()) {
      std::fprintf(stderr, "bench_sweep: sweep failed at %d workers: %s\n", w,
                   result.error.c_str());
      return 2;
    }
    const std::string report =
        dampi::sweep::format_sweep_report_json(options, result);
    if (reference_report.empty()) {
      reference_report = report;
    } else if (report != reference_report) {
      std::fprintf(stderr,
                   "bench_sweep: DIVERGENCE at %d workers — the report is "
                   "not byte-identical to the 1-worker run\n",
                   w);
      return 1;
    }
    const double speedup = rows.empty() || row.wall_s <= 0.0
                               ? 1.0
                               : rows.front().wall_s / row.wall_s;
    std::printf("%8d %10.3f %8zu %12.1f %7.2fx\n", row.workers, row.wall_s,
                row.plans, row.plans_per_s, speedup);
    rows.push_back(row);
  }

  const char* out_path = std::getenv("DAMPI_BENCH_OUT");
  if (out_path == nullptr) out_path = "BENCH_sweep.json";
  FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_sweep: cannot write %s\n", out_path);
    return 2;
  }
  std::fprintf(f,
               "{\n  \"program\": \"fig3-benign\",\n  \"budget\": %llu,\n"
               "  \"nproc\": %u,\n  \"rows\": [\n",
               static_cast<unsigned long long>(budget), nproc);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const double speedup =
        r.wall_s <= 0.0 ? 0.0 : rows.front().wall_s / r.wall_s;
    std::fprintf(f,
                 "    {\"workers\": %d, \"wall_s\": %.6f, \"plans\": %zu, "
                 "\"plans_per_s\": %.3f, \"speedup\": %.4f, \"exit\": %d}%s\n",
                 r.workers, r.wall_s, r.plans, r.plans_per_s, speedup,
                 r.exit_code, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path);

  for (const Row& r : rows) {
    if (r.plans != rows.front().plans || r.exit_code != rows.front().exit_code) {
      std::fprintf(stderr,
                   "bench_sweep: DIVERGENCE at %d workers (plans %zu vs %zu, "
                   "exit %d vs %d)\n",
                   r.workers, r.plans, rows.front().plans, r.exit_code,
                   rows.front().exit_code);
      return 1;
    }
  }
  return 0;
}
