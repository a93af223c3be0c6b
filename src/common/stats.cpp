#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace dampi {

void RunningStat::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStat::merge(const RunningStat& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  const double delta = other.mean_ - mean_;
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  n_ += other.n_;
}

double RunningStat::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

std::string human_count(std::uint64_t count) {
  char buf[32];
  if (count >= 10'000) {
    std::snprintf(buf, sizeof buf, "%lluK",
                  static_cast<unsigned long long>((count + 500) / 1000));
  } else {
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(count));
  }
  return buf;
}

Histogram::Histogram(double first_limit, int buckets)
    : first_limit_(first_limit),
      counts_(static_cast<std::size_t>(std::max(buckets, 1)), 0) {}

void Histogram::add(double x) {
  stat_.add(x);
  std::size_t bucket = 0;
  double limit = first_limit_;
  while (bucket + 1 < counts_.size() && x >= limit) {
    limit *= 2.0;
    ++bucket;
  }
  ++counts_[bucket];
}

void Histogram::merge(const Histogram& other) {
  stat_.merge(other.stat_);
  if (other.first_limit_ == first_limit_ &&
      other.counts_.size() == counts_.size()) {
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      counts_[i] += other.counts_[i];
    }
  } else {
    // Mismatched shapes: fold the other histogram's bulk into the bucket
    // of its mean; summary stats above stay exact.
    std::size_t bucket = 0;
    double limit = first_limit_;
    while (bucket + 1 < counts_.size() && other.mean() >= limit) {
      limit *= 2.0;
      ++bucket;
    }
    counts_[bucket] += other.count();
  }
}

double Histogram::quantile_bound(double q) const {
  if (stat_.count() == 0) return 0.0;
  const double target = q * static_cast<double>(stat_.count());
  std::uint64_t seen = 0;
  double limit = first_limit_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (static_cast<double>(seen) >= target) {
      // A bucket limit can overshoot every sample it covers; the
      // observed range is the tighter bound.
      return i + 1 == counts_.size()
                 ? stat_.max()
                 : std::clamp(limit, stat_.min(), stat_.max());
    }
    limit *= 2.0;
  }
  return stat_.max();
}

std::string Histogram::str() const {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "n=%zu mean=%.3g p50<=%.3g p90<=%.3g max=%.3g",
                count(), mean(), quantile_bound(0.5), quantile_bound(0.9),
                max());
  return buf;
}

void TextTable::header(std::vector<std::string> cells) {
  rows_.insert(rows_.begin(), std::move(cells));
  has_header_ = true;
}

void TextTable::row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

std::string TextTable::str() const {
  std::vector<std::size_t> width;
  for (const auto& r : rows_) {
    if (width.size() < r.size()) width.resize(r.size(), 0);
    for (std::size_t c = 0; c < r.size(); ++c) {
      width[c] = std::max(width[c], r[c].size());
    }
  }
  std::string out;
  auto emit = [&](const std::vector<std::string>& r) {
    for (std::size_t c = 0; c < width.size(); ++c) {
      const std::string& cell = c < r.size() ? r[c] : std::string();
      out += cell;
      out.append(width[c] - cell.size() + 2, ' ');
    }
    while (!out.empty() && out.back() == ' ') out.pop_back();
    out += '\n';
  };
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    emit(rows_[i]);
    if (i == 0 && has_header_) {
      std::size_t total = 0;
      for (std::size_t w : width) total += w + 2;
      out.append(total - 2, '-');
      out += '\n';
    }
  }
  return out;
}

}  // namespace dampi
