#include "piggyback/separate_message.hpp"

#include <utility>

#include "common/check.hpp"

namespace dampi::piggyback {
namespace {

/// The pb message reuses the payload's channel sequence number as its
/// tag, folded into the user tag range.
mpism::Tag pb_tag(std::uint64_t seq) {
  return static_cast<mpism::Tag>(seq % (1u << 29));
}

}  // namespace

void SeparateMessageTransport::on_init(mpism::ToolCtx& ctx) {
  shadow_[mpism::kCommWorld] = ctx.raw_comm_dup(mpism::kCommWorld);
}

mpism::CommId SeparateMessageTransport::shadow_of(mpism::CommId comm) const {
  auto it = shadow_.find(comm);
  DAMPI_CHECK_MSG(it != shadow_.end(),
                  "no shadow communicator for payload communicator");
  return it->second;
}

void SeparateMessageTransport::on_post_send(mpism::ToolCtx& ctx,
                                            const mpism::SendCall& call,
                                            const mpism::SendInfo& info,
                                            mpism::Bytes clock) {
  ctx.raw_isend(call.dst, pb_tag(info.seq), shadow_of(call.comm),
                std::move(clock));
}

mpism::Bytes SeparateMessageTransport::on_recv_complete(
    mpism::ToolCtx& ctx, mpism::ReqCompletion& c) {
  mpism::Bytes clock;
  ctx.raw_recv(c.status.source, pb_tag(c.seq), shadow_of(c.comm), &clock);
  return clock;
}

void SeparateMessageTransport::on_new_comm(mpism::ToolCtx& ctx,
                                           mpism::CommId comm) {
  shadow_[comm] = ctx.raw_comm_dup(comm);
}

}  // namespace dampi::piggyback
