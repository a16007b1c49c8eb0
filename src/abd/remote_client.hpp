// ABD quorum client for a real socket cluster of tools/abd_replicad daemons:
// abd::QuorumClient (quorum.hpp) over TcpTransport, which carries requests
// and replies as wire::Frames on a net::TcpBus, every request as a v3 batch
// frame (wire.hpp) so a collect's k registers share one frame per replica. Every round rule — waves,
// dedup, the epoch and RTO rules, fast reads — is the engine's, shared with
// the in-process AbdCluster; this file only translates between the engine's
// Request/Reply and the wire format.
//
// Each bus send is bounded by the operation's deadline, so a half-open
// connection whose kernel buffer filled cannot wedge an operation past it.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "abd/quorum.hpp"
#include "net/tcp_bus.hpp"
#include "net/wire.hpp"

namespace asnap::abd {

/// QuorumClient transport over TCP: one bus link per replica, replies as
/// Message{from = replica index, payload = wire::Frame} in the bus inbox.
class TcpTransport {
 public:
  using Value = net::wire::Bytes;

  TcpTransport(std::vector<net::Endpoint> replicas, std::uint64_t client_id);

  std::size_t size() const { return bus_.size(); }
  void send(net::NodeId to, const Request<Value>& request,
            std::chrono::steady_clock::time_point deadline);
  net::Mailbox& inbox() { return bus_.inbox(); }
  std::optional<Reply<Value>> decode(net::Message& msg) const;

  std::uint64_t reconnects() const { return bus_.reconnects(); }

 private:
  std::uint64_t client_id_;
  net::TcpBus bus_;
};

/// One socket-cluster client. Register values are opaque bytes (empty with
/// ts == 0: never written); callers own the write timestamps.
class RemoteRegisterClient : public QuorumClient<TcpTransport> {
 public:
  RemoteRegisterClient(std::vector<net::Endpoint> replicas,
                       std::uint64_t client_id, AbdConfig config = {})
      : QuorumClient(static_cast<std::uint32_t>(client_id), config,
                     std::move(replicas), client_id) {}

  std::uint64_t reconnects() const { return transport().reconnects(); }
};

}  // namespace asnap::abd
