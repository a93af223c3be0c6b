// Small statistics helpers shared by benches and the runtime's op counters.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dampi {

/// Streaming mean / min / max / stddev accumulator (Welford).
class RunningStat {
 public:
  void add(double x);
  /// Combine another accumulator into this one (exact: parallel Welford).
  void merge(const RunningStat& other);
  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double variance() const;
  double stddev() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Render `count` as a compact human string the way the paper prints op
/// counts: 187K, 1315K, 7986K — i.e. thousands with a K suffix once >= 10K.
std::string human_count(std::uint64_t count);

/// Power-of-two bucketed histogram for positive samples (per-run wall
/// times, virtual times). Bucket i covers [first_limit * 2^(i-1),
/// first_limit * 2^i); the last bucket is a catch-all. Mergeable, so
/// per-thread instances can be combined without locking the hot path.
class Histogram {
 public:
  explicit Histogram(double first_limit = 1e-6, int buckets = 32);

  void add(double x);
  void merge(const Histogram& other);

  std::size_t count() const { return stat_.count(); }
  double min() const { return stat_.min(); }
  double max() const { return stat_.max(); }
  double mean() const { return stat_.mean(); }

  /// Smallest bucket upper bound that covers at least fraction `q` of the
  /// samples, clamped to [min(), max()] (0 when empty). Exact within a
  /// factor of 2.
  double quantile_bound(double q) const;

  /// Compact one-line rendering: "n=37 mean=1.2e-03 p50<=2.0e-03 ...".
  std::string str() const;

 private:
  double first_limit_;
  std::vector<std::uint64_t> counts_;
  RunningStat stat_;
};

/// Simple fixed-width text table used by the bench harnesses to print
/// paper-style tables. Columns are sized to the widest cell.
class TextTable {
 public:
  void header(std::vector<std::string> cells);
  void row(std::vector<std::string> cells);
  /// Render with column separators, header underline.
  std::string str() const;

 private:
  std::vector<std::vector<std::string>> rows_;
  bool has_header_ = false;
};

}  // namespace dampi
