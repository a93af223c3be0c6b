// Message envelope: what travels from a sender to a receiver's queues.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>

#include "mpism/pool.hpp"
#include "mpism/types.hpp"

namespace dampi::mpism {

struct RequestRecord;

/// Message payload with a small-buffer inline store. Most traffic —
/// control messages, piggybacked clock prefixes, the example suites'
/// halo cells — is ≤ 64 bytes; keeping those bytes inside the envelope
/// means matching and queueing never chase a heap `std::vector`, and an
/// eager send of a small message performs no allocation at all. Larger
/// payloads fall back to an owned heap vector, with the source vector's
/// capacity adopted wholesale (no copy).
class Payload {
 public:
  static constexpr std::size_t kInlineCapacity = 64;

  Payload() = default;

  /// Implicit on purpose: call sites assign `pack<T>(v)` (a Bytes)
  /// straight into `env.payload`, mirroring the pre-SBO field.
  Payload(Bytes&& bytes) {  // NOLINT(google-explicit-constructor)
    adopt(std::move(bytes), nullptr);
  }
  Payload(const Bytes& bytes) {  // NOLINT(google-explicit-constructor)
    if (bytes.size() <= kInlineCapacity) {
      set_inline(bytes.data(), bytes.size());
    } else {
      heap_ = bytes;
      size_ = heap_.size();
      inline_ = false;
    }
  }

  /// Adopts `bytes`; when the content fits inline, the dead source
  /// vector's capacity is donated to `pool` (if given) so the sender's
  /// next pack() can reuse it.
  Payload(Bytes&& bytes, BufferPool* pool) { adopt(std::move(bytes), pool); }

  Payload(const Payload& other) { copy_from(other); }
  Payload& operator=(const Payload& other) {
    if (this != &other) {
      heap_ = Bytes();
      copy_from(other);
    }
    return *this;
  }

  Payload(Payload&& other) noexcept { move_from(std::move(other)); }
  Payload& operator=(Payload&& other) noexcept {
    if (this != &other) {
      heap_ = Bytes();
      move_from(std::move(other));
    }
    return *this;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool is_inline() const { return inline_; }
  const std::byte* data() const {
    return inline_ ? sbo_.data() : heap_.data();
  }

  /// Extracts the content as a Bytes, leaving the payload empty. Inline
  /// content is copied into a (pool-recycled, if given) buffer; heap
  /// content moves out without copying.
  Bytes release(BufferPool* pool) {
    Bytes out;
    if (inline_) {
      out = pool != nullptr ? pool->acquire() : Bytes();
      out.resize(size_);
      if (size_ != 0) std::memcpy(out.data(), sbo_.data(), size_);
    } else {
      out = std::move(heap_);
      heap_ = Bytes();
    }
    size_ = 0;
    inline_ = true;
    return out;
  }

  /// Drops the content, donating heap capacity to `pool`.
  void recycle_into(BufferPool& pool) {
    if (!inline_) pool.recycle(std::move(heap_));
    heap_ = Bytes();
    size_ = 0;
    inline_ = true;
  }

  friend bool operator==(const Payload& a, const Payload& b) {
    return a.size_ == b.size_ &&
           (a.size_ == 0 || std::memcmp(a.data(), b.data(), a.size_) == 0);
  }
  friend bool operator!=(const Payload& a, const Payload& b) {
    return !(a == b);
  }

 private:
  void set_inline(const std::byte* src, std::size_t n) {
    size_ = n;
    inline_ = true;
    if (n != 0) std::memcpy(sbo_.data(), src, n);
  }

  void adopt(Bytes&& bytes, BufferPool* pool) {
    if (bytes.size() <= kInlineCapacity) {
      set_inline(bytes.data(), bytes.size());
      if (pool != nullptr) pool->recycle(std::move(bytes));
    } else {
      heap_ = std::move(bytes);
      size_ = heap_.size();
      inline_ = false;
    }
  }

  void copy_from(const Payload& other) {
    size_ = other.size_;
    inline_ = other.inline_;
    if (other.inline_) {
      if (size_ != 0) std::memcpy(sbo_.data(), other.sbo_.data(), size_);
    } else {
      heap_ = other.heap_;
    }
  }

  void move_from(Payload&& other) {
    size_ = other.size_;
    inline_ = other.inline_;
    if (other.inline_) {
      if (size_ != 0) std::memcpy(sbo_.data(), other.sbo_.data(), size_);
    } else {
      heap_ = std::move(other.heap_);
      other.heap_ = Bytes();
    }
    other.size_ = 0;
    other.inline_ = true;
  }

  std::size_t size_ = 0;
  bool inline_ = true;
  std::array<std::byte, kInlineCapacity> sbo_;
  Bytes heap_;
};

/// One in-flight (or delivered-but-unmatched) message. Ranks are *world*
/// ranks; user-facing APIs translate to communicator-relative ranks at the
/// boundary.
struct Envelope {
  Rank src_world = -1;
  Rank dst_world = -1;
  Tag tag = 0;
  CommId comm = kCommWorld;
  /// Send order within (src_world, dst_world, comm): the engine enforces
  /// MPI's non-overtaking rule using this.
  std::uint64_t seq = 0;
  /// Globally unique id across the run.
  std::uint64_t msg_id = 0;
  /// Virtual time at which the message becomes visible at the destination
  /// (sender's clock at injection + latency + bandwidth term).
  double arrival_vtime = 0.0;
  Payload payload;
  /// True for messages issued by tool layers (piggyback traffic); excluded
  /// from user-visible op statistics and leak accounting.
  bool tool_internal = false;
  /// Non-null for synchronous sends: the sender's request, which only
  /// completes when this envelope is matched by a receive (rendezvous
  /// semantics — the MPI_Ssend mode eager buffering hides).
  RequestId sender_req = kNullRequest;
  Rank sender_world = -1;
  /// Direct pointer to the sender's request record for synchronous
  /// sends (slab storage, address-stable for the run). The receiver
  /// completes the rendezvous through this pointer.
  RequestRecord* sender_rec = nullptr;
};

}  // namespace dampi::mpism
