#include "workloads.hpp"

#include <functional>
#include <sstream>

#include "core/shard.hpp"
#include "workloads/matmult.hpp"
#include "workloads/patterns.hpp"
#include "workloads/wavefront.hpp"

namespace perfbench {

namespace core = dampi::core;
namespace mpism = dampi::mpism;
namespace workloads = dampi::workloads;

namespace {

core::ExplorerOptions base_options(int nprocs, const std::string& tag) {
  core::ExplorerOptions options;
  options.nprocs = nprocs;
  // The thread scheduler's potential-match counts are racy, so its
  // verdicts cannot be checked exactly; every campaign runs on fibers.
  options.sched.kind = mpism::SchedulerKind::kCoop;
  options.por = core::PorMode::kSleep;
  options.jobs = 1;
  options.checkpoint_tag = tag;
  return options;
}

std::set<std::string> bug_keys(const core::ExploreResult& result) {
  std::set<std::string> keys;
  for (const core::BugRecord& bug : result.bugs) {
    keys.insert(core::bug_key(bug));
  }
  return keys;
}

// matmult: the paper's master/worker matrix product (§III, Fig. 6), an
// exhaustive walk under Lamport clocks. Tiny replays, so per-replay fixed
// cost, DFS bookkeeping and pool handoff dominate.
Workload matmult(std::uint64_t seed, bool smoke) {
  const int nprocs = smoke ? 3 : 5;
  Workload w;
  w.name = "matmult";
  w.options = base_options(nprocs, w.name);
  w.program = [seed](mpism::Proc& p) {
    workloads::MatmultConfig config;
    config.n = 8;
    config.chunk_rows = 1;
    config.seed = seed;
    workloads::matmult(p, config);
  };
  w.answer.interleavings = smoke ? 128 : 6144;
  return w;
}

// wavefront-512: the NAS-LU sweep at 512 ranks under vector clocks and
// sleep-set POR, cut at a fixed interleaving budget and journalling its
// frontier. Long replays with 4 KB piggybacks: engine, scheduler, DAMPI
// layer, POR and checkpoint serialization dominate.
Workload wavefront(bool smoke) {
  const int nprocs = smoke ? 16 : 512;
  Workload w;
  w.name = "wavefront-512";
  w.options = base_options(nprocs, w.name);
  w.options.clock_mode = core::ClockMode::kVector;
  w.options.max_interleavings = smoke ? 6 : 16;
  w.options.checkpoint_interval = smoke ? 2 : 4;
  w.checkpointed = true;
  w.program = [](mpism::Proc& p) {
    workloads::WavefrontConfig config;
    workloads::wavefront(p, config);
  };
  w.answer.interleavings = w.options.max_interleavings;
  w.answer.exit = ExitClass::kPartial;
  w.answer.por_pruned = smoke ? 1 : 10;
  return w;
}

// dist-fanout: the paper's distributed verifier at campaign level. The
// full-width campaign shards the frontier across worker processes.
Workload dist_fanout(bool smoke) {
  const int nprocs = smoke ? 4 : 6;
  Workload w;
  w.name = "dist-fanout";
  w.options = base_options(nprocs, w.name);
  w.distributed = true;
  w.program = [](mpism::Proc& p) {
    workloads::dist_fanout(p, /*rounds=*/2, /*spin_us=*/200.0);
  };
  w.answer.interleavings = smoke ? 36 : 14400;
  return w;
}

}  // namespace

const char* exit_class_name(ExitClass exit) {
  switch (exit) {
    case ExitClass::kClean:
      return "clean";
    case ExitClass::kBug:
      return "bug";
    case ExitClass::kPartial:
      return "partial";
  }
  return "?";
}

ExitClass exit_class(const core::ExploreResult& result) {
  if (result.found_bug()) return ExitClass::kBug;
  if (result.interleaving_budget_exhausted || result.time_budget_exhausted ||
      result.interrupted || result.quarantined > 0) {
    return ExitClass::kPartial;
  }
  return ExitClass::kClean;
}

std::vector<std::string> workload_names() {
  return {"matmult", "wavefront-512", "dist-fanout"};
}

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed, bool smoke) {
  if (name == "matmult") return matmult(seed, smoke);
  if (name == "wavefront-512") return wavefront(smoke);
  if (name == "dist-fanout") return dist_fanout(smoke);
  return std::nullopt;
}

std::string check_answer(const KnownAnswer& answer,
                         const core::ExploreResult& result) {
  std::ostringstream out;
  if (result.interleavings != answer.interleavings) {
    out << "interleavings " << result.interleavings << " != "
        << answer.interleavings << "; ";
  }
  if (bug_keys(result) != answer.bug_keys) {
    out << "bug set of " << result.bugs.size() << " != expected "
        << answer.bug_keys.size() << "; ";
  }
  if (exit_class(result) != answer.exit) {
    out << "exit class " << exit_class_name(exit_class(result))
        << " != " << exit_class_name(answer.exit) << "; ";
  }
  if (result.por_pruned != answer.por_pruned) {
    out << "por_pruned " << result.por_pruned << " != " << answer.por_pruned
        << "; ";
  }
  return out.str();
}

std::string verdict(const core::ExploreResult& result) {
  std::string bugs;
  for (const std::string& key : bug_keys(result)) bugs += key + "\n";
  std::ostringstream out;
  out << "interleavings=" << result.interleavings
      << ",exit=" << exit_class_name(exit_class(result))
      << ",por_pruned=" << result.por_pruned << ",bugs="
      << result.bugs.size() << ":" << std::hex
      << std::hash<std::string>{}(bugs);
  return out.str();
}

}  // namespace perfbench
