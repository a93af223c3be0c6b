// The Epoch Decisions file (paper §II-B/E): which source each guided
// epoch must match in a replay. A rank runs GUIDED until the first of its
// epochs with no decision, then reverts to SELF_RUN — the paper's
// guided_epoch frontier, expressed per key.
#pragma once

#include <algorithm>
#include <iterator>
#include <utility>
#include <vector>

#include "core/epoch.hpp"
#include "mpism/types.hpp"

namespace dampi::core {

/// Sorted flat map of epoch decisions. The map is consulted on every ND
/// event of every replay (DampiLayer::guided_source), so lookups run a
/// binary search over one contiguous allocation instead of chasing
/// red-black-tree nodes; bench_micro's BM_ScheduleLookup measures the
/// difference against the std::map it replaced. Iteration order and
/// operator== match the old map exactly (key-ascending), so the decision
/// file format, checkpoint grammar, and bug keys are unchanged.
class ForcedDecisions {
 public:
  using value_type = std::pair<EpochKey, mpism::Rank>;
  using const_iterator = std::vector<value_type>::const_iterator;

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }

  const_iterator find(const EpochKey& key) const {
    auto it = lower_bound(key);
    return (it != entries_.end() && it->first == key) ? it : entries_.end();
  }

  std::size_t count(const EpochKey& key) const {
    return find(key) == entries_.end() ? 0 : 1;
  }

  /// Insert-or-assign, map-style.
  mpism::Rank& operator[](const EpochKey& key) {
    auto it = lower_bound(key);
    if (it == entries_.end() || it->first != key) {
      it = entries_.insert(it, {key, mpism::kAnySource});
    }
    return it->second;
  }

  /// Insert-if-absent; returns whether the key was new.
  bool emplace(const EpochKey& key, mpism::Rank src) {
    auto it = lower_bound(key);
    if (it != entries_.end() && it->first == key) return false;
    entries_.insert(it, {key, src});
    return true;
  }

  /// Replaces the contents with `entries`, given in any order: one sort
  /// instead of a sorted insert per entry. On a repeated key the later
  /// entry wins, as with operator[].
  void assign(std::vector<value_type> entries) {
    std::stable_sort(
        entries.begin(), entries.end(),
        [](const value_type& a, const value_type& b) {
          return a.first < b.first;
        });
    // Keep the last of each run of equal keys.
    auto out = entries.begin();
    for (auto it = entries.begin(); it != entries.end(); ++it) {
      const auto next = std::next(it);
      if (next != entries.end() && next->first == it->first) continue;
      *out++ = *it;
    }
    entries.erase(out, entries.end());
    entries_ = std::move(entries);
  }

  friend bool operator==(const ForcedDecisions&,
                         const ForcedDecisions&) = default;

 private:
  std::vector<value_type>::iterator lower_bound(const EpochKey& key) {
    return std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const value_type& e, const EpochKey& k) { return e.first < k; });
  }
  const_iterator lower_bound(const EpochKey& key) const {
    return std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const value_type& e, const EpochKey& k) { return e.first < k; });
  }

  std::vector<value_type> entries_;  ///< sorted by key, unique
};

struct Schedule {
  /// epoch -> forced source (world rank).
  ForcedDecisions forced;

  bool empty() const { return forced.empty(); }

  /// Decision for this epoch, or kAnySource if none.
  mpism::Rank lookup(const EpochKey& key) const {
    auto it = forced.find(key);
    return it == forced.end() ? mpism::kAnySource : it->second;
  }
};

}  // namespace dampi::core
