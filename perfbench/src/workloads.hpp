// The benchmark's fixed workload set and the known answer each campaign
// is checked against (README.md says why each workload is in the set).
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/explorer.hpp"
#include "core/options.hpp"
#include "mpism/runtime.hpp"

namespace perfbench {

/// How a campaign ended, in the verifier CLI's exit-code terms: clean
/// (0), bug found (1), or partial coverage (2: a budget was hit, the
/// walk was interrupted, or subtrees were quarantined).
enum class ExitClass { kClean, kBug, kPartial };

const char* exit_class_name(ExitClass exit);
ExitClass exit_class(const dampi::core::ExploreResult& result);

struct KnownAnswer {
  std::uint64_t interleavings = 0;
  /// core::bug_key of every bug the campaign must report (and no other).
  std::set<std::string> bug_keys;
  ExitClass exit = ExitClass::kClean;
  /// POR-pruned subtree count; checked on every campaign, because the
  /// walk's result is identical at every replay-pool width under the
  /// coop scheduler.
  std::uint64_t por_pruned = 0;
};

struct Workload {
  std::string name;
  /// Campaign options at width 1; the full-width campaign changes only
  /// `jobs` (or shards across worker processes when `distributed`).
  dampi::core::ExplorerOptions options;
  dampi::mpism::ProgramFn program;
  bool distributed = false;
  /// The campaign journals its frontier (options.checkpoint_interval);
  /// the runner supplies the journal path.
  bool checkpointed = false;
  KnownAnswer answer;
};

std::vector<std::string> workload_names();

/// The named workload at benchmark size, or at the tiny smoke-test
/// size. `seed` enters the program's inputs where it has any (matmult's
/// matrices); it never changes the known answer.
std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed, bool smoke);

/// Empty when `result` matches the known answer; otherwise what differs.
std::string check_answer(const KnownAnswer& answer,
                         const dampi::core::ExploreResult& result);

/// The campaign's verdict in one space-free token: interleavings, exit
/// class, POR-pruned count and the sorted bug keys. Two campaigns of one
/// workload agree when their verdicts are equal.
std::string verdict(const dampi::core::ExploreResult& result);

}  // namespace perfbench
