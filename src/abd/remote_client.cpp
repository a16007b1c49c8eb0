#include "abd/remote_client.hpp"

#include <any>
#include <utility>

namespace asnap::abd {

TcpTransport::TcpTransport(std::vector<net::Endpoint> replicas,
                           std::uint64_t client_id)
    : client_id_(client_id),
      bus_(std::move(replicas), /*seed=*/client_id * 0x9E3779B97F4A7C15ull + 1) {}

void TcpTransport::send(net::NodeId to, const Request<Value>& request,
                        std::chrono::steady_clock::time_point deadline) {
  net::wire::Frame frame;
  // The engine's request types coincide with the wire's except kConfirm,
  // which the wire numbers after its ping/pong probes.
  frame.type = static_cast<std::uint8_t>(request.type);
  if (request.type == kConfirm) frame.type = net::wire::kConfirm;
  frame.from = client_id_;
  frame.rid = request.rid;
  frame.reg = request.reg;
  frame.ts = request.ts;
  frame.value = request.value;
  bus_.send(to, frame, deadline);  // a failed send is a lost message
}

std::optional<Reply<TcpTransport::Value>> TcpTransport::decode(
    net::Message& msg) const {
  auto* frame = std::any_cast<net::wire::Frame>(&msg.payload);
  if (frame == nullptr || msg.from >= bus_.size()) return std::nullopt;
  return Reply<Value>{frame->epoch, frame->ts,
                      (frame->flags & net::wire::kFlagTsConfirmed) != 0,
                      std::move(frame->value)};
}

}  // namespace asnap::abd
