// Fundamental types of the mpism MPI runtime simulator.
//
// mpism is the stand-in for a real MPI library (MVAPICH2 in the paper): an
// in-process runtime with one coop fiber per rank, an eager-send matching
// engine that honors MPI's non-overtaking rule, communicators, collectives
// with relaxed completion semantics, probes, and deadlock detection. The
// verifier layers (src/core, src/isp) sit on top of it through a
// PnMPI-style tool stack (tool.hpp) exactly as DAMPI sits on PnMPI.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/check.hpp"

namespace dampi::mpism {

/// Process rank. All public Proc APIs take ranks *relative to the
/// communicator* passed alongside; the engine translates to world ranks.
using Rank = int;

/// Message tag. Non-negative in user code; negative values are reserved
/// for the wildcards below and for tool-internal traffic.
using Tag = int;

/// Communicator handle. kCommWorld is always valid.
using CommId = int;

inline constexpr Rank kAnySource = -1;  ///< MPI_ANY_SOURCE
inline constexpr Tag kAnyTag = -1;      ///< MPI_ANY_TAG
inline constexpr CommId kCommWorld = 0;
inline constexpr CommId kCommNull = -1;

/// Untyped message payload.
using Bytes = std::vector<std::byte>;

/// Pack a trivially copyable value into a payload.
template <typename T>
Bytes pack(const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  Bytes out(sizeof(T));
  std::memcpy(out.data(), &value, sizeof(T));
  return out;
}

/// Pack a contiguous array of trivially copyable values.
template <typename T>
Bytes pack_range(const T* data, std::size_t count) {
  static_assert(std::is_trivially_copyable_v<T>);
  Bytes out(sizeof(T) * count);
  if (count != 0) std::memcpy(out.data(), data, out.size());
  return out;
}

template <typename T>
Bytes pack_vec(const std::vector<T>& v) {
  return pack_range(v.data(), v.size());
}

/// Unpack a single value; payload must be exactly sizeof(T).
template <typename T>
T unpack(const Bytes& payload) {
  static_assert(std::is_trivially_copyable_v<T>);
  DAMPI_CHECK_MSG(payload.size() == sizeof(T), "payload size mismatch");
  T value;
  std::memcpy(&value, payload.data(), sizeof(T));
  return value;
}

/// Unpack an array; payload must be a multiple of sizeof(T).
template <typename T>
std::vector<T> unpack_vec(const Bytes& payload) {
  static_assert(std::is_trivially_copyable_v<T>);
  DAMPI_CHECK_MSG(payload.size() % sizeof(T) == 0, "payload size mismatch");
  std::vector<T> out(payload.size() / sizeof(T));
  if (!out.empty()) std::memcpy(out.data(), payload.data(), payload.size());
  return out;
}

/// Completion status of a receive or probe, mirroring MPI_Status.
/// `source` is relative to the communicator of the operation.
struct Status {
  Rank source = kAnySource;
  Tag tag = kAnyTag;
  std::uint64_t bytes = 0;
  /// Per-(sender, receiver, communicator) send sequence number. Not part
  /// of MPI_Status; exposed so tool layers can pair piggyback messages
  /// with their payloads robustly (see piggyback/separate_message.cpp).
  std::uint64_t seq = 0;
  /// Globally unique message id (diagnostics and the telepathic transport).
  std::uint64_t msg_id = 0;
};

/// Request handle returned by nonblocking operations. Valid until waited
/// or tested-to-completion. Value 0 is never a live request.
using RequestId = std::uint64_t;
inline constexpr RequestId kNullRequest = 0;

/// Reduction operators for the typed collective helpers.
enum class ReduceOp { kSumU64, kMaxU64, kMinU64, kSumF64, kMaxF64, kMinF64 };

/// Collective operation kinds (also used for tool hooks and op stats).
enum class CollKind {
  kBarrier,
  kBcast,
  kReduce,
  kAllreduce,
  kGather,
  kScatter,
  kAllgather,
  kAlltoall,
  kCommDup,
  kCommSplit,
  kCommFree,
};

const char* coll_kind_name(CollKind kind);

/// Operation categories as reported in the paper's Table I.
enum class OpCategory { kSendRecv, kCollective, kWait, kOther };

/// Error found in the program under test (not a tool failure).
struct ErrorInfo {
  Rank rank = -1;
  std::string message;
};

}  // namespace dampi::mpism
