// dampi_perfbench: the repository benchmark (see ../README.md).
//
//   dampi_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   --workdir DIR [--smoke]
//
// Runs whole verification campaigns of one workload for S seconds,
// alternating full host width with width 1, checks every verdict against
// the workload's known answer, and prints one JSON result as the last
// stdout line: end-to-end metrics untraced (--trace 0), the per-layer
// ledger traced (--trace 1). Exit code 1 when any campaign missed its
// known answer, 2 on usage errors or an unsupported build.
//
// Two more roles, both started by the binary itself:
//   --campaign wide|serial   run one untraced campaign and print its record
//   --worker ...             a distributed-campaign worker (the coordinator
//                            appends the flag and its channel)
#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "campaign.hpp"
#include "dist/worker.hpp"
#include "ledger.hpp"
#include "mpism/scheduler.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".";
  bool smoke = false;
  /// Off-by-one known answer: proves the gate fails a run (self-test).
  bool inject_mismatch = false;
  std::string campaign;  ///< "wide" or "serial": one-campaign child role
  bool worker = false;
  int worker_id = 0;
  std::string coordinator_socket;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "--workdir DIR [--smoke]\nworkloads:",
               argv0);
  for (const std::string& name : workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--smoke") {
      args.smoke = true;
    } else if (arg == "--inject-mismatch") {
      args.inject_mismatch = true;
    } else if (arg == "--worker") {
      args.worker = true;
    } else if ((v = value()) == nullptr) {
      return false;
    } else if (arg == "--workload") {
      args.workload = v;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      args.trace = std::string(v) == "1";
    } else if (arg == "--workdir") {
      args.workdir = v;
    } else if (arg == "--campaign") {
      args.campaign = v;
    } else if (arg == "--worker-id") {
      args.worker_id = std::atoi(v);
    } else if (arg == "--coordinator-socket") {
      args.coordinator_socket = v;
    } else {
      return false;
    }
  }
  return !args.workload.empty() && args.seconds > 0.0 &&
         (args.campaign.empty() || args.campaign == "wide" ||
          args.campaign == "serial");
}

/// CPUs this process may run on: the host width every full-width
/// campaign uses, and the affinity mask the result records.
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  return cpus;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

void print_provenance(const Args& args, const Workload& w, int width,
                      const std::vector<int>& cpus) {
  std::string mask;
  for (const int cpu : cpus) {
    mask += (mask.empty() ? "" : ",") + std::to_string(cpu);
  }
  std::printf(
      "{\"provenance\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"ranks\": %d, \"width\": %d, \"nproc\": %d, "
      "\"affinity\": %s, \"build_type\": %s, \"cxx_flags\": %s, "
      "\"compiler\": %s, \"dampi_trace\": %s, \"git_commit\": %s}}\n",
      json_string(w.name).c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, w.options.nprocs, width,
      static_cast<int>(std::thread::hardware_concurrency()),
      json_string(mask).c_str(), json_string(PERFBENCH_BUILD_TYPE).c_str(),
      json_string(PERFBENCH_CXX_FLAGS).c_str(),
      json_string(PERFBENCH_COMPILER).c_str(),
      PERFBENCH_DAMPI_TRACE ? "\"on\"" : "\"off\"",
      json_string(PERFBENCH_GIT_COMMIT).c_str());
}

void print_result(int attempted, int failed,
                  const std::vector<Metric>& metrics) {
  std::string body;
  for (const Metric& m : metrics) {
    if (!body.empty()) body += ", ";
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    body += json_string(m.name) + ": {\"value\": " + value +
            ", \"unit\": " + json_string(m.unit) + "}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": "
      "{%s}}\n",
      failed == 0 ? "true" : "false", attempted, failed, body.c_str());
  std::fflush(stdout);
}

/// Runs `argv` (argv[0] found like execvp does) with stdout captured;
/// stderr is shared. Returns the exit code, or -1 when the process could
/// not start or was killed.
int run_process(const std::vector<std::string>& argv, std::string& out) {
  int fds[2];
  if (pipe(fds) != 0) return -1;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<char*> args;
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);
  pid_t pid = 0;
  const int rc =
      posix_spawnp(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (rc == 0) {
    char buf[4096];
    for (;;) {
      const ssize_t n = read(fds[0], buf, sizeof(buf));
      if (n > 0) {
        out.append(buf, static_cast<std::size_t>(n));
      } else if (n == 0 || errno != EINTR) {
        break;
      }
    }
  }
  close(fds[0]);
  if (rc != 0) return -1;
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// The one-line record a --campaign child prints:
///   campaign WIDE WALL_S SETUP_S INTERLEAVINGS PEAK_RSS_MB VERDICT MISMATCH...
void print_record(const Campaign& c) {
  std::printf("campaign %d %.17g %.17g %llu %.17g %s %s\n", c.wide ? 1 : 0,
              c.wall_s, c.setup_s,
              static_cast<unsigned long long>(c.result.interleavings),
              peak_rss_mb(), c.verdict.c_str(), c.mismatch.c_str());
}

/// Runs one untraced campaign in a fresh process, as a user's verifier
/// run would: in a long-lived process a campaign's speed depends on the
/// heap, arenas and pages earlier campaigns leave behind.
Campaign run_campaign_process(const std::vector<std::string>& base, bool wide,
                              double& peak_rss) {
  std::vector<std::string> argv = base;
  argv.push_back("--campaign");
  argv.push_back(wide ? "wide" : "serial");
  std::string out;
  const int code = run_process(argv, out);
  Campaign c;
  c.wide = wide;
  std::istringstream record(out);
  std::string tag;
  int record_wide = 0;
  unsigned long long interleavings = 0;
  double rss = 0.0;
  if (code == 0 && record >> tag >> record_wide >> c.wall_s >> c.setup_s >>
                       interleavings >> rss >> c.verdict &&
      tag == "campaign") {
    c.result.interleavings = interleavings;
    std::getline(record >> std::ws, c.mismatch);
    peak_rss = std::max(peak_rss, rss);
  } else {
    c.mismatch = "campaign process failed (exit " + std::to_string(code) + ")";
  }
  return c;
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage(argv[0]);
  // Sanitizer builds silently swap fibers for OS threads, which would
  // measure a different program: refuse instead.
  if (!dampi::mpism::coop_supported()) {
    std::fprintf(stderr,
                 "perfbench: coop fibers are unsupported in this build "
                 "(sanitizer instrumentation); rebuild without "
                 "DAMPI_SANITIZE to benchmark\n");
    return 2;
  }
  std::optional<Workload> workload =
      make_workload(args.workload, args.seed, args.smoke);
  if (!workload) return usage(argv[0]);
  Workload& w = *workload;

  if (args.worker) {
    dampi::dist::WorkerConfig config;
    config.socket_spec = args.coordinator_socket;
    config.worker_id = args.worker_id;
    config.options = w.options;
    return dampi::dist::run_worker(config, w.program);
  }
  if (args.inject_mismatch) ++w.answer.interleavings;

  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                 args.workdir.c_str(), ec.message().c_str());
    return 2;
  }
  const std::vector<int> cpus = allowed_cpus();
  const int width = std::max<int>(1, static_cast<int>(cpus.size()));

  // Every process this run starts is this binary, on the same workload.
  std::vector<std::string> self = {argv[0],  "--workload", w.name,
                                   "--seed", std::to_string(args.seed),
                                   "--workdir", args.workdir};
  if (args.smoke) self.push_back("--smoke");
  CampaignSetup setup;
  setup.workload = &w;
  setup.width = width;
  setup.journal_path = args.workdir + "/" + w.name + ".journal";
  setup.worker_argv = self;

  if (!args.campaign.empty()) {
    const Campaign c = run_campaign(setup, args.campaign == "wide", false);
    std::filesystem::remove(setup.journal_path, ec);
    print_record(c);
    return 0;
  }
  if (args.inject_mismatch) self.push_back("--inject-mismatch");

  print_provenance(args, w, width, cpus);

  const Clock::time_point start = Clock::now();
  SideLedger side;
  if (args.trace) side = measure_side_loops(w, 0.2 * args.seconds);

  // Untraced: alternate full width and width 1, one process per
  // campaign. Traced, in this process: cycle a traced width-1, a traced
  // full-width and an untraced full-width campaign (the last gives the
  // tracing overhead). The seed picks the starting kind.
  struct Kind {
    bool wide;
    bool traced;
  };
  const std::vector<Kind> cycle =
      args.trace ? std::vector<Kind>{{false, true}, {true, true}, {true, false}}
                 : std::vector<Kind>{{true, false}, {false, false}};
  std::vector<Campaign> campaigns;
  double peak_rss = 0.0;
  for (std::size_t i = args.seed % cycle.size();
       campaigns.size() < cycle.size() || since(start) < args.seconds; ++i) {
    const Kind kind = cycle[i % cycle.size()];
    campaigns.push_back(args.trace
                            ? run_campaign(setup, kind.wide, kind.traced)
                            : run_campaign_process(self, kind.wide, peak_rss));
  }
  if (args.trace && w.checkpointed) {
    measure_journal(w, setup.journal_path, 5, side);
  }
  std::filesystem::remove(setup.journal_path, ec);

  int attempted = side.attempted;
  int failed = static_cast<int>(side.failures.size());
  for (const std::string& failure : side.failures) {
    std::fprintf(stderr, "perfbench: %s\n", failure.c_str());
  }
  const Campaign* serial_reference = nullptr;
  for (const Campaign& c : campaigns) {
    if (!c.wide && c.mismatch.empty()) {
      serial_reference = &c;
      break;
    }
  }
  for (const Campaign& c : campaigns) {
    std::fprintf(stderr, "  %s %-6s %9.4f s  setup %9.6f s  %s\n",
                 c.traced ? "traced  " : "untraced",
                 c.wide ? "wide" : "serial", c.wall_s, c.setup_s,
                 c.verdict.c_str());
    std::string mismatch = c.mismatch;
    // The sharded campaign must reach the single-process verdict.
    if (w.distributed && c.wide && mismatch.empty() && serial_reference &&
        c.verdict != serial_reference->verdict) {
      mismatch = "verdict " + c.verdict + " != single-process " +
                 serial_reference->verdict;
    }
    ++attempted;
    if (!mismatch.empty()) {
      ++failed;
      std::fprintf(stderr, "perfbench: %s %s campaign missed its answer: %s\n",
                   w.name.c_str(), c.wide ? "full-width" : "serial",
                   mismatch.c_str());
    }
  }

  const std::vector<Metric> metrics =
      args.trace ? per_layer_metrics(side, campaigns)
                 : end_to_end_metrics(campaigns,
                                      std::max(peak_rss, peak_rss_mb()));
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-36s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  print_result(attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}
