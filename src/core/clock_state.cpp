#include "core/clock_state.hpp"

#include <algorithm>
#include <cstring>

#include "common/check.hpp"

namespace dampi::core {
namespace {

using VcValue = clocks::VectorClock::Value;

VcValue load_component(const mpism::Bytes& bytes, std::size_t i) {
  VcValue v;
  std::memcpy(&v, bytes.data() + i * sizeof(VcValue), sizeof(VcValue));
  return v;
}

}  // namespace

ClockState::ClockState(ClockMode mode, int nprocs, int rank)
    : mode_(mode), rank_(static_cast<std::size_t>(rank)) {
  DAMPI_CHECK(rank >= 0 && rank < nprocs);
  if (mode_ == ClockMode::kVector) {
    vector_.assign(static_cast<std::size_t>(nprocs), 0);
  }
}

void ClockState::tick() {
  // The Lamport value advances in both modes: it is the trace-ordering
  // key even in vector mode.
  lamport_.tick();
  if (mode_ == ClockMode::kVector) ++vector_[rank_];
}

void ClockState::decode(mpism::Bytes&& remote, MsgClock* out) const {
  if (mode_ == ClockMode::kLamport) {
    decode(static_cast<const mpism::Bytes&>(remote), out);
    return;
  }
  out->empty_ = remote.empty();
  if (out->empty_) return;
  DAMPI_CHECK_MSG(remote.size() == vector_.size() * sizeof(VcValue),
                  "payload size mismatch");
  out->wire_ = std::move(remote);
}

void ClockState::decode(const mpism::Bytes& remote, MsgClock* out) const {
  if (mode_ == ClockMode::kVector) {
    decode(mpism::Bytes(remote), out);
    return;
  }
  out->empty_ = remote.empty();
  if (!out->empty_) out->lc_ = mpism::unpack<std::uint64_t>(remote);
}

void ClockState::merge(const MsgClock& remote) {
  if (remote.empty()) return;
  if (mode_ == ClockMode::kLamport) {
    lamport_.merge(remote.lc_);
    return;
  }
  // Keep the scalar view consistent: a scalar max over the sum is not
  // meaningful, so the Lamport view absorbs the remote's max component,
  // which preserves per-rank monotonicity for trace ordering.
  VcValue max_c = 0;
  for (std::size_t i = 0; i < vector_.size(); ++i) {
    const VcValue v = load_component(remote.wire_, i);
    max_c = std::max(max_c, v);
    if (v > vector_[i]) vector_[i] = v;
  }
  lamport_.merge(max_c);
}

mpism::Bytes ClockState::serialize() const {
  if (mode_ == ClockMode::kLamport) {
    return mpism::pack<std::uint64_t>(lamport_.value());
  }
  return mpism::pack_vec(vector_);
}

void ClockState::serialize_into(mpism::Bytes* out) const {
  if (mode_ == ClockMode::kLamport) {
    const std::uint64_t v = lamport_.value();
    out->resize(sizeof(v));
    std::memcpy(out->data(), &v, sizeof(v));
    return;
  }
  out->resize(vector_.size() * sizeof(VcValue));
  if (!vector_.empty()) {
    std::memcpy(out->data(), vector_.data(), out->size());
  }
}

bool ClockState::is_late(const MsgClock& msg_clock, std::uint64_t epoch_lc,
                         const std::vector<VcValue>& epoch_vc) const {
  return !is_after(msg_clock, epoch_lc, epoch_vc);
}

bool ClockState::is_after(const MsgClock& msg_clock, std::uint64_t epoch_lc,
                          const std::vector<VcValue>& epoch_vc) const {
  if (msg_clock.empty()) return true;
  if (mode_ == ClockMode::kLamport) return msg_clock.lc_ >= epoch_lc;
  // Causally after or equal: no component behind the epoch's.
  DAMPI_CHECK(epoch_vc.size() == vector_.size());
  for (std::size_t i = 0; i < epoch_vc.size(); ++i) {
    if (load_component(msg_clock.wire_, i) < epoch_vc[i]) return false;
  }
  return true;
}

void ClockState::merge_epoch(
    std::uint64_t lc, const std::vector<clocks::VectorClock::Value>& vc) {
  lamport_.merge(lc);
  if (mode_ != ClockMode::kVector || vc.empty()) return;
  DAMPI_CHECK(vc.size() == vector_.size());
  for (std::size_t i = 0; i < vc.size(); ++i) {
    vector_[i] = std::max(vector_[i], vc[i]);
  }
}

mpism::Bytes ClockState::merge_serialized(
    const std::vector<mpism::Bytes>& all) {
  DAMPI_CHECK(!all.empty());
  if (all[0].size() == sizeof(std::uint64_t)) {
    std::uint64_t best = 0;
    for (const mpism::Bytes& b : all) {
      best = std::max(best, mpism::unpack<std::uint64_t>(b));
    }
    return mpism::pack(best);
  }
  // Component-wise max straight over the serialized bytes: one copy of
  // the first clock, no decoded vectors.
  DAMPI_CHECK_MSG(all[0].size() % sizeof(VcValue) == 0,
                  "payload size mismatch");
  mpism::Bytes merged = all[0];
  const std::size_t n = merged.size() / sizeof(VcValue);
  for (std::size_t i = 1; i < all.size(); ++i) {
    DAMPI_CHECK(all[i].size() == merged.size());
    for (std::size_t k = 0; k < n; ++k) {
      const VcValue other = load_component(all[i], k);
      if (other > load_component(merged, k)) {
        std::memcpy(merged.data() + k * sizeof(VcValue), &other,
                    sizeof(VcValue));
      }
    }
  }
  return merged;
}

}  // namespace dampi::core
