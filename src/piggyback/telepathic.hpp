// Telepathic transport: clocks move through a shared table keyed by
// message id instead of through messages. Two uses:
//  - modelling ISP's centralized scheduler, which observes every send and
//    receive directly and therefore needs no piggyback protocol;
//  - a zero-interference oracle in tests (no extra traffic, no shadow
//    communicators) against which the real transports are validated.
#pragma once

#include <unordered_map>
#include <utility>

#include "common/check.hpp"
#include "piggyback/transport.hpp"

namespace dampi::piggyback {

/// Run-wide shared clock table. A run's ranks share one host thread, and
/// a sender deposits in its post-injection hook, before it can block or
/// yield — so by the time any receiver completes the message its clock
/// is on the board. take() checks that instead of waiting: nothing could
/// deposit while the receiver waited.
class TelepathicBoard {
 public:
  void put(std::uint64_t msg_id, mpism::Bytes clock) {
    clocks_[msg_id] = std::move(clock);
  }

  mpism::Bytes take(std::uint64_t msg_id) {
    auto it = clocks_.find(msg_id);
    DAMPI_CHECK_MSG(it != clocks_.end(), "telepathic clock never deposited");
    mpism::Bytes clock = std::move(it->second);
    clocks_.erase(it);
    return clock;
  }

 private:
  std::unordered_map<std::uint64_t, mpism::Bytes> clocks_;
};

class TelepathicTransport final : public Transport {
 public:
  explicit TelepathicTransport(std::shared_ptr<TelepathicBoard> board)
      : board_(std::move(board)) {}

  void on_post_send(mpism::ToolCtx&, const mpism::SendCall&,
                    const mpism::SendInfo& info,
                    mpism::Bytes clock) override {
    board_->put(info.msg_id, std::move(clock));
  }

  mpism::Bytes on_recv_complete(mpism::ToolCtx&,
                                mpism::ReqCompletion& c) override {
    return board_->take(c.msg_id);
  }

 private:
  std::shared_ptr<TelepathicBoard> board_;
};

}  // namespace dampi::piggyback
