// dampi-verify: a command-line front end over the verifier.
//
// Usage:
//   verify_cli --list
//   verify_cli --program <name> [options]
//
// Every flag is one row of kFlags below: its name and value, its help
// line, a strict value parser, and whether it is forwarded to --worker
// processes or conflicts with --sweep-faults. The parser, the usage
// text, a distributed campaign's worker argv and the sweep conflict
// check are all derived from that table. An unknown option, a missing
// value or a malformed one prints the usage and exits 3.
//
// Programs: the paper's pattern fixtures, matmult, mini-ADLB, the
// ParMETIS proxy, and every Table II suite entry by name (104.milc, BT,
// LU, ...).
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/decision_io.hpp"
#include "core/report_format.hpp"
#include "core/verifier.hpp"
#include "dist/coordinator.hpp"
#include "dist/worker.hpp"
#include "mpism/cancel.hpp"
#include "mpism/fault.hpp"
#include "isp/isp_verifier.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sweep/sweep.hpp"
#include "workloads/adlb.hpp"
#include "workloads/matmult.hpp"
#include "workloads/parmetis_proxy.hpp"
#include "workloads/patterns.hpp"
#include "workloads/suites.hpp"

using namespace dampi;

namespace {

/// A registered program and the fewest ranks it runs on (its
/// precondition on the communicator size), so a short --procs is a
/// usage error instead of a failure inside the run.
struct ProgramEntry {
  mpism::ProgramFn fn;
  int min_procs = 1;
};

std::map<std::string, ProgramEntry> program_registry() {
  std::map<std::string, ProgramEntry> programs;
  programs["fig3"] = {workloads::fig3_wildcard_bug, 3};
  programs["fig3-benign"] = {workloads::fig3_benign, 3};
  programs["fig4"] = {workloads::fig4_cross_coupled, 4};
  programs["fig10"] = {workloads::fig10_unsafe_pattern, 3};
  programs["deadlock"] = {workloads::simple_deadlock, 2};
  programs["wildcard-deadlock"] = {workloads::wildcard_dependent_deadlock, 3};
  programs["leaky"] = {workloads::leaky_program, 1};
  programs["livelock"] = {workloads::livelock, 2};
  programs["dist-fanout"] = {
      [](mpism::Proc& p) {
        workloads::dist_fanout(p, /*rounds=*/2, /*spin_us=*/200.0);
      },
      2};
  programs["fan-in-groups"] = {
      [](mpism::Proc& p) {
        workloads::fan_in_groups(p, /*groups=*/p.size() / 3);
      },
      3};
  programs["matmult"] = {
      [](mpism::Proc& p) {
        workloads::MatmultConfig config;
        config.n = 8;
        config.chunk_rows = 1;
        workloads::matmult(p, config);
      },
      2};
  programs["matmult-bug"] = {
      [](mpism::Proc& p) {
        workloads::MatmultConfig config;
        config.n = 8;
        config.chunk_rows = 1;
        config.inject_order_bug = true;
        workloads::matmult(p, config);
      },
      2};
  // One server plus at least one worker.
  programs["adlb"] = {
      [](mpism::Proc& p) {
        workloads::adlb::Config config;
        config.roots_per_server = 4;
        workloads::adlb::run(p, config);
      },
      2};
  programs["parmetis"] = {
      [](mpism::Proc& p) {
        workloads::parmetis_proxy(p, workloads::ParmetisConfig{}.scaled(5));
      },
      1};
  for (const auto& entry : workloads::table2_suite()) {
    programs[entry.spec.name] = {
        [spec = entry.spec](mpism::Proc& p) {
          workloads::run_skeleton(p, spec);
        },
        1};
  }
  return programs;
}

/// Every setting a command line can carry; the flag parsers write
/// straight into it.
struct Cli {
  Cli() {
    explorer.nprocs = 4;
    explorer.max_interleavings = 4096;
  }
  core::ExplorerOptions explorer;
  /// Sweep budget, seed, kinds, journal and per-plan wall budget; the
  /// rest is filled in from `explorer` when the sweep starts.
  sweep::SweepOptions sweep;
  std::string program;
  bool list = false;
  bool use_isp = false;
  std::string save_repro_path;
  std::string replay_path;
  std::string trace_path;
  std::size_t trace_capacity = 0;  // 0 = the tracer's default
  bool print_metrics = false;
  bool resume = false;
  bool sweep_faults = false;
  std::string sweep_report_path;
  int workers = 0;  // 0 = in-process exploration (the default)
  std::string dist_socket;
  bool worker_mode = false;
  int worker_id = 0;
  std::string coordinator_socket;
};

/// Strict integer values: the whole token must parse and be >= min.
/// Returns why the value was rejected, or the empty string.
template <typename Int>
std::string integer(const char* text, std::type_identity_t<Int> min,
                    Int* out) {
  Int value{};
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || value < min) {
    std::string expected = "expected an integer >= ";
    expected += std::to_string(min);
    return expected;
  }
  *out = value;
  return {};
}

/// Strict durations: a whole, finite, non-negative number of seconds.
std::string seconds(const char* text, double* out) {
  double value = 0.0;
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value) ||
      value < 0.0) {
    return "expected a number of seconds >= 0";
  }
  *out = value;
  return {};
}

std::string set(bool& flag) {
  flag = true;
  return {};
}

std::string assign(std::string& out, const char* value) {
  out = value;
  return {};
}

enum FlagTraits : unsigned {
  kForwarded = 0,
  /// Never forwarded to --worker processes: reporting, the distributed
  /// flags themselves (the coordinator appends each worker's own), and
  /// --resume (shards already embed the restored state).
  kCoordinatorOnly = 1u << 0,
  /// Rejected with --sweep-faults: the sweep owns fault injection,
  /// campaign scheduling, and its own journal.
  kSweepConflict = 1u << 1,
};

struct Flag {
  const char* name;
  const char* value;  ///< the value's usage name; nullptr for a switch
  const char* help;   ///< '\n' continues at the help column
  unsigned traits;
  /// Applies the value (nullptr for a switch) to the settings; returns
  /// why the value was rejected, or the empty string.
  std::string (*apply)(Cli& cli, const char* value);
  const char* section = nullptr;  ///< usage heading opening a group
};

const Flag kFlags[] = {
    {"--program", "NAME", "program to verify (see --list)", kForwarded,
     [](Cli& c, const char* v) {
       c.explorer.checkpoint_tag = v;
       return assign(c.program, v);
     },
     "options:"},
    {"--list", nullptr, "print the program names and exit", kCoordinatorOnly,
     [](Cli& c, const char*) { return set(c.list); }},
    {"--procs", "N", "ranks to simulate (default 4)", kForwarded,
     [](Cli& c, const char* v) { return integer(v, 1, &c.explorer.nprocs); }},
    {"--k", "N", "bounded mixing window (default: unbounded)", kForwarded,
     [](Cli& c, const char* v) {
       return integer(v, 0, &c.explorer.mixing_bound.emplace());
     }},
    {"--clock", "lamport|vector", "causality tracker (default lamport)",
     kForwarded,
     [](Cli& c, const char* v) -> std::string {
       if (std::strcmp(v, "lamport") == 0) {
         c.explorer.clock_mode = core::ClockMode::kLamport;
       } else if (std::strcmp(v, "vector") == 0) {
         c.explorer.clock_mode = core::ClockMode::kVector;
       } else {
         return "expected lamport or vector";
       }
       return {};
     }},
    {"--max-interleavings", "N", "exploration budget (default 4096)",
     kForwarded,
     [](Cli& c, const char* v) {
       return integer(v, 0, &c.explorer.max_interleavings);
     }},
    {"--deferred-sync", nullptr,
     "enable the par-of-clocks fix for the S5 pattern", kForwarded,
     [](Cli& c, const char*) { return set(c.explorer.deferred_clock_sync); }},
    {"--auto-loop", "N", "automatic loop detection threshold", kForwarded,
     [](Cli& c, const char* v) {
       return integer(v, 0, &c.explorer.auto_loop_threshold);
     }},
    {"--jobs", "N",
     "replay-worker pool width (default 1; results\n"
     "are identical at every width)",
     kForwarded,
     [](Cli& c, const char* v) { return integer(v, 1, &c.explorer.jobs); }},
    {"--sched", "KIND",
     "rank scheduler (deterministic run-to-block\n"
     "fibers): coop / coop-rr (default), coop-random,\n"
     "coop-priority",
     kForwarded,
     [](Cli& c, const char* v) -> std::string {
       if (mpism::parse_sched_spec(v, &c.explorer.sched)) return {};
       return "expected coop, coop-rr, coop-random or coop-priority";
     }},
    {"--sched-seed", "N", "seed for coop-random / coop-priority picks",
     kForwarded,
     [](Cli& c, const char* v) {
       return integer(v, 0, &c.explorer.sched.seed);
     }},
    {"--por", "MODE",
     "partial-order reduction: sleep (commuting-decision\n"
     "sleep sets, default) or off (full cross-product\n"
     "baseline); same bugs and per-epoch outcomes in\n"
     "<= interleavings",
     kForwarded,
     [](Cli& c, const char* v) -> std::string {
       if (core::parse_por_spec(v, &c.explorer.por)) return {};
       return "expected sleep or off";
     }},
    {"--isp", nullptr, "use the centralized ISP baseline instead",
     kSweepConflict, [](Cli& c, const char*) { return set(c.use_isp); }},
    {"--save-repro", "FILE", "write the first bug's epoch-decisions file",
     kCoordinatorOnly | kSweepConflict,
     [](Cli& c, const char* v) { return assign(c.save_repro_path, v); }},
    {"--replay", "FILE", "run once under a saved epoch-decisions file",
     kSweepConflict,
     [](Cli& c, const char* v) { return assign(c.replay_path, v); }},
    {"--trace", "FILE",
     "record a Chrome trace_event JSON of the run\n"
     "(open in chrome://tracing or Perfetto)",
     kCoordinatorOnly,
     [](Cli& c, const char* v) { return assign(c.trace_path, v); }},
    {"--trace-capacity", "N", "events retained per lane (default 16384)",
     kCoordinatorOnly,
     [](Cli& c, const char* v) { return integer(v, 0, &c.trace_capacity); }},
    {"--metrics", nullptr, "print the metrics registry after the run",
     kCoordinatorOnly,
     [](Cli& c, const char*) { return set(c.print_metrics); }},
    {"--run-deadline", "SEC",
     "per-run watchdog: kill any single run after\n"
     "SEC wall seconds and report it as a HANG",
     kForwarded,
     [](Cli& c, const char* v) {
       return seconds(v, &c.explorer.run_deadline_seconds);
     },
     "resilience options:"},
    {"--run-max-ops", "N", "per-run watchdog on executed MPI operations",
     kForwarded,
     [](Cli& c, const char* v) {
       return integer(v, 0, &c.explorer.max_run_ops);
     }},
    {"--max-wall-seconds", "S",
     "global budget; cancels even an in-flight run", kForwarded,
     [](Cli& c, const char* v) {
       double budget = 0.0;
       std::string error = seconds(v, &budget);
       // 0 = unlimited: the explorer's and the sweep's own defaults.
       c.explorer.max_wall_seconds =
           budget > 0.0 ? budget : core::ExplorerOptions().max_wall_seconds;
       c.sweep.plan_wall_seconds =
           budget > 0.0 ? budget : sweep::SweepOptions().plan_wall_seconds;
       return error;
     }},
    {"--retries", "N",
     "re-run failed replays up to N times with\n"
     "exponential backoff before quarantining",
     kForwarded,
     [](Cli& c, const char* v) {
       return integer(v, 0, &c.explorer.max_retries);
     }},
    {"--fault", "SPEC",
     "deterministic fault injection, e.g.\n"
     "abort@1:3,delay@0:2:5000,flaky@1:1:2\n"
     "(kinds: abort, error, delay, flaky; points\n"
     "are rank:op-index, op indices 1-based)",
     kSweepConflict,
     [](Cli& c, const char* v) {
       std::string error;
       c.explorer.fault = mpism::parse_fault_plan(v, &error);
       return error;
     }},
    {"--checkpoint", "FILE",
     "journal the DFS frontier to FILE (atomic\n"
     "rename) for crash-safe --resume",
     kSweepConflict,
     [](Cli& c, const char* v) {
       return assign(c.explorer.checkpoint_path, v);
     }},
    {"--checkpoint-interval", "N", "journal every N interleavings (default 64)",
     kForwarded,
     [](Cli& c, const char* v) {
       return integer(v, 0, &c.explorer.checkpoint_interval);
     }},
    {"--resume", nullptr,
     "continue from --checkpoint FILE instead of\n"
     "starting over (options must match); in sweep\n"
     "mode, continue from --sweep-journal without\n"
     "re-running completed plans",
     kCoordinatorOnly, [](Cli& c, const char*) { return set(c.resume); }},
    {"--sweep-faults", nullptr,
     "enumerate single-point fault plans over the\n"
     "program's op inventory and run one bounded\n"
     "campaign per plan (a crash-tolerance matrix);\n"
     "--max-interleavings bounds each plan's\n"
     "campaign, --workers runs plans concurrently",
     kForwarded, [](Cli& c, const char*) { return set(c.sweep_faults); },
     "fault-sweep options:"},
    {"--sweep-budget", "N",
     "max plans (default 64; abort/error points\n"
     "first, then sampled delay/flaky ones)",
     kForwarded,
     [](Cli& c, const char* v) { return integer(v, 1, &c.sweep.budget); }},
    {"--sweep-seed", "N", "seeds the delay/flaky sampler (default 1)",
     kForwarded,
     [](Cli& c, const char* v) { return integer(v, 0, &c.sweep.seed); }},
    {"--sweep-kinds", "SPEC",
     "fault families to sweep, e.g. abort,delay\n"
     "(default all)",
     kForwarded,
     [](Cli& c, const char* v) {
       std::string error;
       sweep::parse_sweep_kinds(v, &c.sweep.kinds, &error);
       return error;
     }},
    {"--sweep-report", "FILE",
     "write the machine-readable JSON report;\n"
     "byte-identical for the same (program,\n"
     "options, budget, seed) at any --workers\n"
     "and across kill/--resume",
     kForwarded,
     [](Cli& c, const char* v) { return assign(c.sweep_report_path, v); }},
    {"--sweep-journal", "FILE",
     "crash-safe journal of completed plans (atomic\n"
     "rename per plan) for --resume",
     kForwarded,
     [](Cli& c, const char* v) { return assign(c.sweep.journal_path, v); }},
    {"--workers", "N",
     "distributed campaign: shard the frontier across\n"
     "N worker processes with work-stealing; the\n"
     "merged report and exit code are identical to a\n"
     "single-process run's",
     kCoordinatorOnly,
     [](Cli& c, const char* v) { return integer(v, 1, &c.workers); },
     "distributed options:"},
    {"--dist-socket", "PATH",
     "rendezvous over an AF_UNIX socket at PATH\n"
     "instead of inherited socketpairs",
     kCoordinatorOnly | kSweepConflict,
     [](Cli& c, const char* v) { return assign(c.dist_socket, v); }},
    {"--worker", nullptr,
     "run as a campaign worker (spawned by the\n"
     "coordinator; not for direct use)",
     kCoordinatorOnly | kSweepConflict,
     [](Cli& c, const char*) { return set(c.worker_mode); }},
    {"--worker-id", "N", "this worker's id within the campaign",
     kCoordinatorOnly,
     [](Cli& c, const char* v) { return integer(v, 0, &c.worker_id); }},
    {"--coordinator-socket", "S", "worker-side channel: fd:N or a socket path",
     kCoordinatorOnly,
     [](Cli& c, const char* v) { return assign(c.coordinator_socket, v); }},
};

int usage(const char* argv0) {
  std::printf("usage: %s --program <name> [options]\n       %s --list\n",
              argv0, argv0);
  for (const Flag& flag : kFlags) {
    if (flag.section != nullptr) std::printf("%s\n", flag.section);
    std::string left = std::string("  ") + flag.name;
    if (flag.value != nullptr) left.append(" ").append(flag.value);
    std::string help;
    for (const char* c = flag.help; *c != '\0'; ++c) {
      help += *c;
      if (*c == '\n') help.append(25, ' ');
    }
    std::printf("%-24s %s\n", left.c_str(), help.c_str());
  }
  std::printf(
      "exit codes: 0 clean, 1 bug(s) found, 2 budget exhausted / "
      "interrupted /\n"
      "            quarantined subtrees, 3 usage or internal error\n");
  return 3;
}

/// One flag as given on the command line.
struct Given {
  const Flag* flag;
  const char* value;  ///< nullptr for a switch
};

/// Parses argv through kFlags into `cli`, recording every flag given
/// in order. Stops at --list. Returns false, after saying why, on an
/// unknown flag, a missing value, or a value the flag's row rejects.
bool parse(int argc, char** argv, Cli& cli, std::vector<Given>& given) {
  for (int i = 1; i < argc && !cli.list; ++i) {
    const Flag* flag = nullptr;
    for (const Flag& row : kFlags) {
      if (std::strcmp(argv[i], row.name) == 0) flag = &row;
    }
    if (flag == nullptr) {
      std::printf("unknown option: %s\n", argv[i]);
      return false;
    }
    const char* value = nullptr;
    if (flag->value != nullptr) {
      if (i + 1 == argc) {
        std::printf("%s requires a value\n", flag->name);
        return false;
      }
      value = argv[++i];
    }
    const std::string error = flag->apply(cli, value);
    if (!error.empty()) {
      std::printf("invalid %s value '%s': %s\n", flag->name, value,
                  error.c_str());
      return false;
    }
    given.push_back({flag, value});
  }
  return true;
}

/// SIGINT lands here; a bridge thread polls the flag and fires the
/// CancelSource (not async-signal-safe, so it cannot run in the
/// handler). A second ^C gets the default disposition: immediate death.
volatile std::sig_atomic_t g_sigint = 0;

void handle_sigint(int) {
  g_sigint = 1;
  std::signal(SIGINT, SIG_DFL);
}

}  // namespace

int main(int argc, char** argv) {
  const auto programs = program_registry();

  Cli cli;
  std::vector<Given> given;
  if (!parse(argc, argv, cli, given)) return usage(argv[0]);
  if (cli.list) {
    for (const auto& [prog_name, entry] : programs) {
      std::printf("%s\n", prog_name.c_str());
    }
    return 0;
  }

  auto it = programs.find(cli.program);
  if (it == programs.end()) {
    std::printf("unknown or missing --program (try --list)\n");
    return usage(argv[0]);
  }
  const mpism::ProgramFn& program = it->second.fn;
  core::ExplorerOptions& explorer_options = cli.explorer;
  if (explorer_options.nprocs < it->second.min_procs) {
    std::printf("program %s needs --procs >= %d (got %d)\n",
                cli.program.c_str(), it->second.min_procs,
                explorer_options.nprocs);
    return 3;
  }

  if (!cli.trace_path.empty()) {
    if (!DAMPI_TRACE_ENABLED) {
      std::printf(
          "warning: this binary was built with DAMPI_TRACE=OFF; the "
          "trace will contain no events\n");
    }
    if (cli.trace_capacity > 0) {
      obs::Tracer::instance().set_capacity(cli.trace_capacity);
    }
    obs::Tracer::instance().set_enabled(true);
  }
  // Emits the trace/metrics on every exit path of the run below.
  auto finish = [&](int code) {
    if (!cli.trace_path.empty()) {
      obs::Tracer::instance().set_enabled(false);
      if (obs::write_chrome_trace(cli.trace_path)) {
        std::printf("trace written          : %s\n", cli.trace_path.c_str());
      } else {
        std::printf("could not write trace %s\n", cli.trace_path.c_str());
        code = code == 0 ? 3 : code;
      }
    }
    if (cli.print_metrics) {
      std::printf("metrics:\n%s", obs::Registry::instance().dump().c_str());
    }
    return code;
  };

  if (explorer_options.fault) {
    // Eager semantic validation: a point aimed at a rank this campaign
    // does not simulate would sit silently unreachable for the whole
    // run — reject it now, naming the offending point.
    const std::string error = mpism::validate_fault_plan(
        *explorer_options.fault, explorer_options.nprocs);
    if (!error.empty()) {
      std::printf("bad --fault spec: %s\n", error.c_str());
      return 3;
    }
  }

  if (cli.sweep_faults) {
    for (const Given& g : given) {
      if ((g.flag->traits & kSweepConflict) != 0) {
        std::printf("--sweep-faults cannot be combined with %s\n",
                    g.flag->name);
        return usage(argv[0]);
      }
    }
    if (cli.resume && cli.sweep.journal_path.empty()) {
      std::printf("--resume in sweep mode requires --sweep-journal FILE\n");
      return usage(argv[0]);
    }
  }
  if (cli.worker_mode) {
    if (cli.coordinator_socket.empty()) {
      std::printf("--worker requires --coordinator-socket\n");
      return usage(argv[0]);
    }
    // A terminal ^C goes to the whole foreground process group; workers
    // must ignore it and let the coordinator cancel them cooperatively
    // over the channel, or every ^C would look like a crash storm.
    std::signal(SIGINT, SIG_IGN);
    dist::WorkerConfig config;
    config.socket_spec = cli.coordinator_socket;
    config.worker_id = cli.worker_id;
    config.options = explorer_options;
    return dist::run_worker(config, program);
  }

  if (cli.resume && !cli.sweep_faults) {
    const std::string& checkpoint_path = explorer_options.checkpoint_path;
    if (checkpoint_path.empty()) {
      std::printf("--resume requires --checkpoint FILE\n");
      return usage(argv[0]);
    }
    std::string error;
    auto cp = core::load_checkpoint(
        checkpoint_path, core::options_fingerprint(explorer_options), &error);
    if (!cp.has_value()) {
      std::printf("cannot resume from %s: %s\n", checkpoint_path.c_str(),
                  error.c_str());
      return 3;
    }
    explorer_options.resume_from =
        std::make_shared<core::Checkpoint>(std::move(*cp));
  }

  // ^C cancels the campaign cooperatively: in-flight runs unwind, the
  // final checkpoint flush journals the frontier, and the partial
  // report is still printed.
  auto cancel = std::make_shared<mpism::CancelSource>();
  explorer_options.cancel = cancel;
  std::signal(SIGINT, handle_sigint);
  std::atomic<bool> bridge_stop{false};
  std::thread sigint_bridge([&] {
    while (!bridge_stop.load(std::memory_order_acquire)) {
      if (g_sigint != 0) {
        cancel->cancel("SIGINT");
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  });
  auto stop_bridge = [&] {
    bridge_stop.store(true, std::memory_order_release);
    if (sigint_bridge.joinable()) sigint_bridge.join();
  };

  if (cli.sweep_faults) {
    sweep::SweepOptions& sweep_options = cli.sweep;
    sweep_options.explorer = explorer_options;
    // Per-campaign budget, not a whole-sweep one: each plan's
    // exploration is bounded by the interleaving budget independently.
    sweep_options.plan_max_interleavings = explorer_options.max_interleavings;
    sweep_options.program_name = cli.program;
    // --workers here fans plan campaigns out across threads (no
    // coordinator processes: campaigns are already independent).
    sweep_options.workers = cli.workers > 0 ? cli.workers : 1;
    sweep_options.resume = cli.resume;
    sweep_options.cancel = cancel;

    const sweep::SweepResult sweep_result =
        sweep::run_sweep(sweep_options, program);
    stop_bridge();
    std::printf("%s",
                sweep::format_sweep_summary(sweep_options, sweep_result)
                    .c_str());
    int code = sweep::sweep_exit_code(sweep_result);
    const std::string& journal_path = sweep_options.journal_path;
    if (!journal_path.empty() && sweep_result.error.empty()) {
      std::printf("sweep journal          : %s%s\n", journal_path.c_str(),
                  sweep_result.interrupted ? " (resume with --resume)" : "");
    }
    if (!cli.sweep_report_path.empty() && sweep_result.error.empty()) {
      std::FILE* out = std::fopen(cli.sweep_report_path.c_str(), "w");
      const std::string report =
          sweep::format_sweep_report_json(sweep_options, sweep_result);
      if (out == nullptr ||
          std::fwrite(report.data(), 1, report.size(), out) !=
              report.size()) {
        std::printf("could not write %s\n", cli.sweep_report_path.c_str());
        code = code == 0 ? 3 : code;
      } else {
        std::printf("sweep report           : %s\n",
                    cli.sweep_report_path.c_str());
      }
      if (out != nullptr) std::fclose(out);
    }
    return finish(code);
  }

  if (!cli.replay_path.empty()) {
    const std::string& replay_path = cli.replay_path;
    std::string error;
    const auto schedule = core::load_schedule(replay_path, &error);
    if (!schedule.has_value()) {
      std::printf("cannot load %s: %s\n", replay_path.c_str(), error.c_str());
      stop_bridge();
      return 3;
    }
    const auto run = core::run_guided_once(explorer_options, *schedule, program);
    stop_bridge();
    std::printf("replay of %s (%zu decisions):\n", replay_path.c_str(),
                schedule->forced.size());
    if (run.report.deadlocked) {
      std::printf("DEADLOCK reproduced:\n%s",
                  run.report.deadlock_detail.c_str());
      return finish(1);
    }
    if (!run.report.errors.empty()) {
      std::printf("FAILURE reproduced:\n");
      for (const auto& error_info : run.report.errors) {
        std::printf("  rank %d: %s\n", error_info.rank,
                    error_info.message.c_str());
      }
      return finish(1);
    }
    if (run.report.timed_out) {
      std::printf("HANG reproduced: %s\n", run.report.stop_reason.c_str());
      return finish(1);
    }
    if (run.report.cancelled) {
      std::printf("replay interrupted: %s\n", run.report.stop_reason.c_str());
      return finish(2);
    }
    std::printf("run completed cleanly (divergences: %llu)\n",
                static_cast<unsigned long long>(run.divergences));
    return finish(0);
  }

  const bool distributed = cli.workers > 0;
  if (distributed && cli.use_isp) {
    std::printf("--workers is not supported with --isp\n");
    stop_bridge();
    return usage(argv[0]);
  }

  // A distributed campaign replaces the in-process walk; the native
  // baseline and the verdicts come from the same core::verify_campaign.
  std::string dist_error;
  dist::DistStats dist_stats;
  auto shard_campaign = [&](const core::ExplorerOptions& options) {
    dist::DistOptions dist_options;
    dist_options.workers = cli.workers;
    dist_options.socket_path = cli.dist_socket;
    dist_options.explorer = options;
    // Workers re-parse this binary's own flags, minus the
    // coordinator-only ones, so they build the same options (and the
    // same options_fingerprint) from the same table.
    dist_options.worker_argv.push_back(argv[0]);
    for (const Given& g : given) {
      if ((g.flag->traits & kCoordinatorOnly) != 0) continue;
      dist_options.worker_argv.push_back(g.flag->name);
      if (g.value != nullptr) dist_options.worker_argv.push_back(g.value);
    }
    dist::DistResult dist_result = dist::run_distributed(dist_options,
                                                         program);
    dist_error = dist_result.error;
    dist_stats = dist_result.stats;
    for (const auto& [wid, dump] : dist_result.worker_metrics) {
      // Appended, not `"w" + std::to_string(wid)`: GCC 12 at -O3 reports
      // a false -Wrestrict on that operator+.
      std::string prefix = "w";
      prefix += std::to_string(wid);
      obs::Registry::instance().merge_dump(dump, prefix);
    }
    return std::move(dist_result.exploration);
  };

  core::VerifyResult result;
  if (cli.use_isp) {
    isp::IspOptions options;
    options.explorer = explorer_options;
    result = isp::IspVerifier(options).verify(program);
  } else {
    core::VerifyOptions options;
    options.explorer = explorer_options;
    result = distributed
                 ? core::verify_campaign(options, program, shard_campaign)
                 : core::Verifier(options).verify(program);
  }
  stop_bridge();

  std::printf("program                : %s (%d ranks, %s, sched %s, por %s)\n",
              cli.program.c_str(), explorer_options.nprocs,
              cli.use_isp ? "ISP baseline" : "DAMPI",
              mpism::sched_spec(explorer_options.sched).c_str(),
              core::por_spec(explorer_options.por));
  if (distributed) {
    std::printf(
        "distributed campaign   : %d workers (%d spawned), %llu shards "
        "(%llu stolen, %llu escaped, %llu requeued), %d worker deaths\n",
        cli.workers, dist_stats.workers_spawned,
        static_cast<unsigned long long>(dist_stats.shards_initial),
        static_cast<unsigned long long>(dist_stats.shards_stolen),
        static_cast<unsigned long long>(dist_stats.shards_escaped),
        static_cast<unsigned long long>(dist_stats.shards_requeued),
        dist_stats.worker_deaths);
  }
  std::printf("%s", core::format_verify_result(result).c_str());
  if (!dist_error.empty()) {
    std::printf("campaign error         : %s\n", dist_error.c_str());
    return finish(3);
  }
  const core::ExploreResult& e = result.exploration;
  if (e.bugs.empty()) {
    // No verdicts, but a partial search is not a clean bill of health:
    // exhausted budgets, interruption, and quarantined subtrees all mean
    // coverage is incomplete.
    const bool partial = e.interleaving_budget_exhausted ||
                         e.time_budget_exhausted || e.interrupted ||
                         e.quarantined > 0;
    return finish(partial ? 2 : 0);
  }
  if (!cli.save_repro_path.empty()) {
    if (core::save_schedule(e.bugs.front().schedule, cli.save_repro_path)) {
      std::printf("reproducer saved       : %s (replay with --replay)\n",
                  cli.save_repro_path.c_str());
    } else {
      std::printf("could not write %s\n", cli.save_repro_path.c_str());
    }
  }
  return finish(1);
}
