// Partial-order reduction over epoch decisions (DESIGN.md §4.14).
//
// Two epoch decisions *commute* when neither can influence the other's
// outcome: they fire on different ranks, draw from disjoint candidate
// source sets on incompatible (comm, tag) channels, and are causally
// concurrent per the recorded vector timestamps. The explorer uses this
// relation for sleep-set pruning: once the subtree under one value of a
// decision is fully explored, re-enumerating a *commuting* sibling
// decision in the next subtree only permutes equivalent interleavings,
// so those sources are put to sleep instead of re-explored.
//
// The relation is deliberately conservative. Whenever the evidence for
// independence is missing — Lamport-only mode records no vector
// timestamps — the answer is "dependent" and nothing is pruned, which
// keeps `--por sleep` behaviourally identical to `--por off` there.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/epoch.hpp"
#include "mpism/types.hpp"

namespace dampi::core {

/// kOff is the compiled-in differential baseline: the full cross-product
/// walk, selectable per campaign for equivalence sweeps.
enum class PorMode { kOff, kSleep };

bool parse_por_spec(const std::string& spec, PorMode* out);
const char* por_spec(PorMode mode);

/// Everything the independence relation may consult about one epoch
/// decision, extracted from data the run already left behind (the
/// EpochRecord / DfsFrame — no extra instrumentation).
struct DecisionFootprint {
  int rank = -1;  ///< receiver rank (the rank the epoch fired on)
  mpism::CommId comm = mpism::kCommWorld;
  mpism::Tag tag = mpism::kAnyTag;  ///< as posted; may be kAnyTag
  /// Candidate source set: matched source ∪ alternative keys — every
  /// world rank whose send this decision may bind. Sorted ascending.
  std::vector<mpism::Rank> candidates;
  /// Vector timestamp at epoch open (empty in Lamport-only mode).
  std::vector<std::uint64_t> vc;
};

/// Footprint of an epoch as one run recorded it: candidates are the
/// matched source plus every alternative key.
DecisionFootprint epoch_footprint(const EpochRecord& epoch);

/// True iff the two decisions provably commute. Dependent (false) when:
///  - either vector timestamp is missing (Lamport fallback),
///  - both fire on the same rank (program order),
///  - they share a candidate source on the same comm with compatible
///    tags (the contested-sender case — flipping one steals the other's
///    message),
///  - either decision's candidate set contains the other's receiver
///    rank (the outcome can change what that rank later sends),
///  - the epochs are causally ordered per the vector timestamps.
bool independent(const DecisionFootprint& a, const DecisionFootprint& b);

}  // namespace dampi::core
