#include "abd/socket_snapshot.hpp"

namespace asnap::abd {

namespace {
constexpr std::size_t kTagBytes = 12;
}  // namespace

net::wire::Bytes encode_record(const TagRecord& rec) {
  net::wire::Bytes out;
  out.reserve(kTagBytes * (1 + rec.view.size()));
  const auto append = [&](const lin::Tag& tag) {
    const net::wire::Bytes b = net::wire::encode_tag(tag);
    out.insert(out.end(), b.begin(), b.end());
  };
  append(rec.value);
  for (const lin::Tag& tag : rec.view) append(tag);
  return out;
}

std::optional<TagRecord> decode_record(const net::wire::Bytes& bytes,
                                       std::uint64_t ts, std::size_t n) {
  if (bytes.empty()) {
    return TagRecord{lin::Tag{}, ts, std::vector<lin::Tag>(n)};
  }
  if (bytes.size() != kTagBytes * (1 + n)) return std::nullopt;
  const auto tag_at = [&](std::size_t k) {
    const auto first = bytes.begin() + static_cast<std::ptrdiff_t>(k * kTagBytes);
    return net::wire::decode_tag(net::wire::Bytes(first, first + kTagBytes));
  };
  TagRecord rec;
  rec.value = *tag_at(0);  // exactly kTagBytes long, so it decodes
  rec.seq = ts;
  rec.view.reserve(n);
  for (std::size_t k = 1; k <= n; ++k) rec.view.push_back(*tag_at(k));
  return rec;
}

SocketRegisters::SocketRegisters(const std::vector<net::Endpoint>& replicas,
                                 std::size_t n, std::uint64_t client_id_base,
                                 AbdConfig config)
    : ts_(n), all_regs_(n) {
  clients_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    all_regs_[i] = i;
    clients_.push_back(std::make_unique<RemoteRegisterClient>(
        replicas, client_id_base + i, config));
  }
}

std::optional<std::vector<Versioned<net::wire::Bytes>>>
SocketRegisters::collect(ProcessId reader) {
  return clients_[reader]->try_read_batch(all_regs_);
}

OpStatus SocketRegisters::write(ProcessId owner, net::wire::Bytes value) {
  RemoteRegisterClient& client = *clients_[owner];
  std::optional<std::uint64_t>& ts = ts_[owner];
  if (!ts.has_value()) {
    const std::uint64_t reg = owner;
    const auto current = client.try_query(
        std::span<const std::uint64_t>(&reg, 1), client.majority());
    if (!current.has_value()) return OpStatus::kTimeout;
    ts = current->front().ts;
  }
  // A failed write still consumes its timestamp: it may have reached some
  // replicas, and the next write must supersede it.
  return client.try_write(owner, ++*ts, std::move(value));
}

RoundStats SocketRegisters::stats() const {
  RoundStats total;
  for (const auto& client : clients_) total += client->stats();
  return total;
}

std::uint64_t SocketRegisters::reconnects() const {
  std::uint64_t total = 0;
  for (const auto& client : clients_) total += client->reconnects();
  return total;
}

}  // namespace asnap::abd
