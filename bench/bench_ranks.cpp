// Rank-scaling of the cooperative fibers, 8..512 ranks.
//
// The coop scheduler's scaling claim: rank counts in the hundreds cost
// fiber stacks instead of OS threads, so a 512-rank verification runs on
// a single core at a usable rate. Measured here as native-engine
// runs/second of the wavefront workload (real wall clock — this bench is
// about tool cost, not simulated time) plus process peak RSS.
//
// ru_maxrss is monotone over the process lifetime, so cells run in
// ascending rank count and each cell also reports the *delta* it added
// to the peak — the honest per-cell number.
//
// Output: the table on stdout and BENCH_ranks.json (machine-readable,
// referenced by EXPERIMENTS.md).
#include <sys/resource.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "mpism/runtime.hpp"
#include "workloads/wavefront.hpp"

using namespace dampi;

namespace {

double peak_rss_mb() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KB
}

struct Cell {
  int nprocs = 0;
  int runs = 0;
  double wall_seconds = 0.0;
  double runs_per_sec = 0.0;
  double peak_rss_mb = 0.0;
  double rss_delta_mb = 0.0;
};

Cell measure(int nprocs, int runs) {
  const double rss_before = peak_rss_mb();
  mpism::RunOptions options;
  options.nprocs = nprocs;
  const auto program = [](mpism::Proc& p) {
    workloads::WavefrontConfig config;
    config.sweeps = 1;
    workloads::wavefront(p, config);
  };
  bench::WallTimer timer;
  for (int i = 0; i < runs; ++i) {
    mpism::Runtime runtime(options);
    const auto report = runtime.run(program);
    if (!report.ok()) {
      std::printf("UNEXPECTED FAILURE (%d ranks): %s\n", nprocs,
                  report.deadlock_detail.c_str());
      std::exit(1);
    }
  }
  Cell cell;
  cell.nprocs = nprocs;
  cell.runs = runs;
  cell.wall_seconds = timer.seconds();
  cell.runs_per_sec = runs / cell.wall_seconds;
  cell.peak_rss_mb = peak_rss_mb();
  cell.rss_delta_mb = cell.peak_rss_mb - rss_before;
  return cell;
}

bool write_json(const char* path, const std::vector<Cell>& cells) {
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"bench\": \"ranks\",\n  \"workload\": "
                  "\"wavefront sweeps=1\",\n  \"cells\": [\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::fprintf(f,
                 "    {\"nprocs\": %d, \"runs\": %d, "
                 "\"wall_seconds\": %.6f, \"runs_per_sec\": %.3f, "
                 "\"peak_rss_mb\": %.1f, \"rss_delta_mb\": %.1f}%s\n",
                 c.nprocs, c.runs, c.wall_seconds,
                 c.runs_per_sec, c.peak_rss_mb, c.rss_delta_mb,
                 i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace

int main() {
  bench::banner("Rank scaling — cooperative fibers (8..512 ranks)",
                "run-to-block fibers keep a 512-rank verification usable "
                "on one core");

  const std::vector<int> scales{8, 32, 128, 512};
  // Repetitions shrink with rank count so every cell takes comparable
  // wall time; quick mode quarters them.
  const auto reps_for = [](int nprocs) {
    const int reps = nprocs <= 8 ? 80 : nprocs <= 32 ? 40 : nprocs <= 128 ? 16 : 6;
    return bench::quick_mode() ? std::max(2, reps / 4) : reps;
  };

  std::vector<Cell> cells;
  for (const int nprocs : scales) {
    cells.push_back(measure(nprocs, reps_for(nprocs)));
  }

  TextTable table;
  table.header({"ranks", "runs", "runs/sec", "peak RSS (MB)",
                "RSS delta (MB)"});
  for (const Cell& c : cells) {
    table.row({std::to_string(c.nprocs), std::to_string(c.runs),
               fmt_fixed(c.runs_per_sec, 1), fmt_fixed(c.peak_rss_mb, 1),
               fmt_fixed(c.rss_delta_mb, 1)});
  }
  std::printf("%s\n", table.str().c_str());

  if (write_json("BENCH_ranks.json", cells)) {
    std::printf("wrote BENCH_ranks.json\n");
  } else {
    std::printf("could not write BENCH_ranks.json\n");
    return 1;
  }
  std::printf("Shape check: runs/sec should degrade gently with rank "
              "count; the RSS delta stays fiber-stack sized.\n");
  return 0;
}
