// Atomic snapshot memory on a real socket cluster (Section 6): the
// UNCHANGED Figure 2 algorithm (core::UnboundedSwSnapshot, borrowed views
// included) over ABD registers held by tools/abd_replicad daemons, composed
// as MessagePassingSnapshot composes it over the in-process cluster. Scans
// are therefore wait-free over sockets too: within n+1 double collects
// either one succeeds or some process moved twice and its embedded view is
// borrowed (Lemma 3.4), however busy the writers are.
//
// SocketRegisters is the register array: one quorum client per process id
// (process i's reads and its writes of register i go through client i), and
// per owned register the writer's ABD timestamp. The daemons outlive any
// client, so a writer learns its register's current timestamp by one
// query-only round before its first write; restarting at 1 would be acked
// without being applied (replicas ignore ts <= stored). This assumes the
// previous writer of the register finished its writes: a writer killed
// mid-write may have left its last timestamp on a minority only.
//
// Register values cross the wire as bytes (encode_record/decode_record).
// The record's sequence number is NOT encoded: the register's ABD
// timestamp serves as Figure 2's seq. It grows with every owner write and,
// unlike the writer's process-local count, survives client restarts, which
// is what the double collect's "did r_j change?" test needs.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "abd/remote_client.hpp"
#include "core/unbounded_sw_snapshot.hpp"
#include "lin/history.hpp"
#include "net/socket.hpp"

namespace asnap::abd {

using TagRecord = core::UnboundedRecord<lin::Tag>;

/// Record -> bytes: the value tag, then the n view tags (12 bytes each).
net::wire::Bytes encode_record(const TagRecord& rec);

/// Bytes read at timestamp `ts` -> record of an n-process snapshot, with
/// seq = ts. Empty bytes are the initial record (never written). nullopt
/// for anything else that is not exactly one value tag plus n view tags.
std::optional<TagRecord> decode_record(const net::wire::Bytes& bytes,
                                       std::uint64_t ts, std::size_t n);

/// n single-writer registers on a socket cluster, one quorum client per
/// process id. Process i must have at most one operation in flight (the
/// snapshot well-formedness rule), which keeps each client single-op.
class SocketRegisters {
 public:
  SocketRegisters(const std::vector<net::Endpoint>& replicas, std::size_t n,
                  std::uint64_t client_id_base, AbdConfig config);

  std::size_t size() const { return clients_.size(); }

  /// Atomic read of every register through `reader`'s client, as one
  /// batched query round plus at most one batched write-back.
  std::optional<std::vector<Versioned<net::wire::Bytes>>> collect(
      ProcessId reader);

  /// Owner write of register `owner` at the owner's next timestamp (learned
  /// from a quorum query on the first write).
  OpStatus write(ProcessId owner, net::wire::Bytes value);

  RoundStats stats() const;
  std::uint64_t reconnects() const;

 private:
  std::vector<std::unique_ptr<RemoteRegisterClient>> clients_;
  /// Last timestamp used per owned register; nullopt until learned.
  std::vector<std::optional<std::uint64_t>> ts_;
  std::vector<std::uint64_t> all_regs_;  ///< 0..n-1, for collects
};

/// Figure 2's register array over SocketRegisters: owner writes and
/// batched collects (reg::SwmrRegisterArray's optional collect), which are
/// all the accesses core::UnboundedSwSnapshot makes on an array that can
/// collect. A collect or write that fails — no quorum, or bytes that do
/// not decode — throws QuorumUnavailable.
template <typename Rec>
class SocketRegisterArray {
 public:
  explicit SocketRegisterArray(SocketRegisters& regs) : regs_(&regs) {}

  std::size_t size() const { return regs_->size(); }

  void collect(ProcessId reader, std::vector<Rec>& out) const {
    auto got = regs_->collect(reader);
    if (!got.has_value()) throw QuorumUnavailable("read");
    out.clear();
    out.reserve(got->size());
    for (const Versioned<net::wire::Bytes>& reg : *got) {
      std::optional<Rec> rec = decode_record(reg.value, reg.ts, size());
      if (!rec.has_value()) throw QuorumUnavailable("read");
      out.push_back(*std::move(rec));
    }
  }

  void write(ProcessId owner, Rec rec) {
    if (regs_->write(owner, encode_record(rec)) != OpStatus::kOk) {
      throw QuorumUnavailable("write");
    }
  }

 private:
  SocketRegisters* regs_;
};

/// Figure 2 over socket registers, for lin::Tag values (the value type of
/// every checked workload).
class SocketSnapshot {
 public:
  using Snapshot = core::UnboundedSwSnapshot<lin::Tag, SocketRegisterArray>;

  /// n processes (= registers 0..n-1 on the daemons); process i's client id
  /// is client_id_base + i.
  SocketSnapshot(const std::vector<net::Endpoint>& replicas, std::size_t n,
                 std::uint64_t client_id_base, AbdConfig config = {})
      : registers_(replicas, n, client_id_base, config),
        snapshot_(SocketRegisterArray<TagRecord>(registers_)) {}

  std::size_t size() const { return snapshot_.size(); }

  /// Throwing entry points (QuorumUnavailable), for callers such as the
  /// service layer that propagate failures.
  void update(ProcessId i, lin::Tag value) { snapshot_.update(i, value); }
  std::vector<lin::Tag> scan(ProcessId i) { return snapshot_.scan(i); }

  /// Degraded-mode entry points. A failed update is INDETERMINATE; retrying
  /// with the same value is the sound recovery.
  bool try_update(ProcessId i, lin::Tag value) {
    try {
      snapshot_.update(i, value);
      return true;
    } catch (const QuorumUnavailable&) {
      return false;
    }
  }
  std::optional<std::vector<lin::Tag>> try_scan(ProcessId i) {
    try {
      return snapshot_.scan(i);
    } catch (const QuorumUnavailable&) {
      return std::nullopt;
    }
  }

  const core::ScanStats& stats(ProcessId i) const { return snapshot_.stats(i); }
  RoundStats round_stats() const { return registers_.stats(); }
  std::uint64_t reconnects() const { return registers_.reconnects(); }

 private:
  SocketRegisters registers_;
  Snapshot snapshot_;
};

}  // namespace asnap::abd
