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
  frame.flags = net::wire::kFlagBatch;  // every request is a v3 batch
  frame.from = client_id_;
  frame.rid = request.rid;
  frame.entries.reserve(request.entries.size());
  for (const Entry<Value>& e : request.entries) {
    frame.entries.push_back(net::wire::Entry{e.reg, e.ts, 0, e.value});
  }
  bus_.send(to, frame, deadline);  // a failed send is a lost message
}

std::optional<Reply<TcpTransport::Value>> TcpTransport::decode(
    net::Message& msg) const {
  auto* frame = std::any_cast<net::wire::Frame>(&msg.payload);
  if (frame == nullptr || msg.from >= bus_.size()) return std::nullopt;
  Reply<Value> reply{frame->epoch, {}};
  reply.entries.reserve(frame->entries.size());
  for (net::wire::Entry& e : frame->entries) {
    reply.entries.push_back(
        Entry<Value>{e.reg, e.ts, (e.flags & net::wire::kFlagTsConfirmed) != 0,
                     std::move(e.value)});
  }
  return reply;
}

}  // namespace asnap::abd
