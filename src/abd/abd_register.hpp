// ABD emulation of single-writer multi-reader atomic registers over the
// simulated asynchronous network (Attiya, Bar-Noy, Dolev: "Sharing Memory
// Robustly in Message-Passing Systems", cited as [ABD] in Section 6).
//
// Each of the n nodes keeps a timestamped replica of every register and
// runs one quorum client; register r is written by node r's client. The
// read and write protocols, including one-round fast reads, are described
// in quorum.hpp.
//
// The network may LOSE, DUPLICATE and DELAY messages (net::FaultInjector)
// and nodes may crash and recover(). The client side of every round —
// retransmission, reply dedup, the epoch and RTO rules, fast reads and the
// optional circuit breaker — is abd::QuorumClient (quorum.hpp), shared with
// the real-socket client; this file supplies its in-process transport
// (SimTransport: typed payloads through net::Network mailboxes, no wire
// encoding) and the replicas. Replica handlers are idempotent — a
// WRITE(ts, v) applied twice is a no-op the second time (ts <= replica ts),
// and a READ reply is pure — so retransmitted and duplicated requests are
// harmless. Liveness requires a majority of nodes alive and reachable
// within the deadline; otherwise operations return OpStatus::kTimeout.
//
// Crashed nodes may recover(): their endpoints reopen and, before the
// replica resumes serving, its state is resynchronized by one batched
// quorum query of every register so it rejoins no staler than the latest
// majority-acked write. Each recovery bumps the node's incarnation EPOCH,
// which its replica stamps on every reply.
//
// AbdRegisterArray adapts a cluster to reg::SwmrRegisterArray, so the
// UNCHANGED Figure 2 snapshot algorithm (core::UnboundedSwSnapshot) can be
// instantiated on top of a message-passing system; its collect is one
// batched read of every register (QuorumClient::try_read_batch). Quorum
// failures surface as QuorumUnavailable exceptions so degraded-mode callers
// (try_scan / try_update on the snapshot layer) can observe them without
// aborting.
#pragma once

#include <any>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "abd/quorum.hpp"
#include "common/assert.hpp"
#include "common/config.hpp"
#include "common/instrumentation.hpp"
#include "net/failure_detector.hpp"
#include "net/network.hpp"
#include "trace/event.hpp"

namespace asnap::abd {

/// QuorumClient transport over the simulated network: node `self`'s client
/// endpoint. Requests travel as typed Request<V> payloads to the replicas'
/// Port::kServer mailboxes; replies arrive as Reply<V> on Port::kClient.
template <typename V>
class SimTransport {
 public:
  using Value = V;

  SimTransport(net::Network& net, net::NodeId self) : net_(&net), self_(self) {}

  std::size_t size() const { return net_->size(); }

  void send(net::NodeId to, const Request<V>& request,
            std::chrono::steady_clock::time_point /*deadline*/) {
    net_->send(self_, to, net::Port::kServer, request.type, request.rid,
               std::any(request));
  }

  net::Mailbox& inbox() { return net_->mailbox(self_, net::Port::kClient); }

  std::optional<Reply<V>> decode(net::Message& msg) const {
    auto* reply = std::any_cast<Reply<V>>(&msg.payload);
    if (reply == nullptr) return std::nullopt;
    return std::move(*reply);
  }

 private:
  net::Network* net_;
  net::NodeId self_;
};

/// A cluster of n nodes replicating `regs` single-writer registers of type
/// V. Register r is owned (written) by node r's client; every node hosts a
/// replica of every register. Client operations may be invoked from any
/// thread, at most one in flight per node id (the snapshot well-formedness
/// rule).
template <typename V>
class AbdCluster {
 public:
  using Client = QuorumClient<SimTransport<V>>;

  AbdCluster(std::size_t nodes, std::size_t regs, const V& init,
             std::uint64_t seed = 1, AbdConfig config = {})
      : net_(nodes, seed),
        replicas_(nodes),
        write_ts_(regs, 0),
        all_regs_(regs),
        epochs_(nodes),
        recover_mu_(nodes) {
    ASNAP_ASSERT(nodes >= 1 && regs >= 1);
    for (auto& epoch : epochs_) epoch.store(0, std::memory_order_relaxed);
    for (std::size_t reg = 0; reg < regs; ++reg) all_regs_[reg] = reg;
    for (auto& node_replicas : replicas_) {
      node_replicas.assign(regs, Replica{0, 0, init});
    }
    for (std::size_t id = 0; id < nodes; ++id) {
      const auto node = static_cast<net::NodeId>(id);
      clients_.emplace_back(node, config, net_, node);
    }
    servers_.reserve(nodes);
    for (std::size_t id = 0; id < nodes; ++id) {
      servers_.emplace_back(
          [this, id](std::stop_token st) { serve(static_cast<net::NodeId>(id), st); });
    }
  }

  ~AbdCluster() {
    for (auto& server : servers_) server.request_stop();
    for (std::size_t id = 0; id < net_.size(); ++id) {
      net_.mailbox(static_cast<net::NodeId>(id), net::Port::kServer).close();
    }
    servers_.clear();  // join
  }

  AbdCluster(const AbdCluster&) = delete;
  AbdCluster& operator=(const AbdCluster&) = delete;

  std::size_t nodes() const { return net_.size(); }
  std::size_t registers() const { return write_ts_.size(); }
  std::size_t majority() const { return net_.size() / 2 + 1; }

  /// Owner write: one broadcast + majority acks (the owner's timestamp is
  /// fresh by construction). Returns kTimeout/kClosed instead of blocking
  /// when no majority of distinct replicas acks within the deadline.
  OpStatus try_write(std::size_t reg, net::NodeId writer, V value) {
    ASNAP_ASSERT(reg < registers());
    const std::uint64_t ts = ++write_ts_[reg];
    return clients_[writer].try_write(reg, ts, std::move(value));
  }

  /// Read, one round when the query proves the value stable, else query +
  /// write-back (QuorumClient::try_read). nullopt carries the round's
  /// failure (timeout or closed endpoint).
  std::optional<V> try_read(std::size_t reg, net::NodeId reader) {
    ASNAP_ASSERT(reg < registers());
    std::optional<Versioned<V>> got = clients_[reader].try_read(reg);
    if (!got.has_value()) return std::nullopt;
    return std::move(got->value);
  }

  /// Atomic read of every register into `out` (out[r] = register r) by one
  /// batched query round plus at most one batched write-back round
  /// (QuorumClient::try_read_batch). Each register's read is linearized
  /// inside the call. False carries the round's failure.
  bool try_collect(net::NodeId reader, std::vector<V>& out) {
    auto got = clients_[reader].try_read_batch(all_regs_);
    if (!got.has_value()) return false;
    out.clear();
    out.reserve(got->size());
    for (Versioned<V>& reg : *got) out.push_back(std::move(reg.value));
    return true;
  }

  /// Asserting wrappers for callers that operate under the liveness
  /// precondition (a majority alive and reachable): the snapshot layer and
  /// the fault-free tests/benches.
  void write(std::size_t reg, net::NodeId writer, V value) {
    const OpStatus status = try_write(reg, writer, std::move(value));
    ASNAP_ASSERT_MSG(status == OpStatus::kOk,
                     "ABD write found no majority within its deadline "
                     "(majority crashed or partitioned?)");
  }

  V read(std::size_t reg, net::NodeId reader) {
    std::optional<V> value = try_read(reg, reader);
    ASNAP_ASSERT_MSG(value.has_value(),
                     "ABD read found no majority within its deadline "
                     "(majority crashed or partitioned?)");
    return *std::move(value);
  }

  /// Fail-stop a node: closing its mailboxes makes its server loop exit and
  /// drops all of its traffic. In-flight operations of OTHER nodes keep
  /// completing as long as a majority remains alive; in-flight operations of
  /// this node return kClosed.
  void crash(net::NodeId node) { net_.crash(node); }
  bool crashed(net::NodeId node) const { return net_.crashed(node); }

  /// Restart a crashed node: rejoin the network, resynchronize every
  /// replica from a majority quorum, then resume serving. Replica state is
  /// retained across a crash (crash-recovery with stable storage, as in
  /// [ABD]), so the node's own replica counts as one member of the resync
  /// quorum; the query round collects the remaining majority()-1 distinct
  /// replies from the other replicas and adopts the maximum timestamp, so
  /// the node rejoins no staler than the latest majority-acked write.
  /// Returns false — and re-crashes the node — if no such quorum was
  /// reachable; the caller may retry later.
  ///
  /// Safe against the double-recover race (supervisor and a test both
  /// calling it): a per-node mutex serializes the two, and recovering a
  /// node that is already live is a no-op returning true. Each effective
  /// recovery bumps the node's incarnation epoch FIRST, so replies the dead
  /// incarnation left in flight are discarded by every client that has
  /// heard from the new one.
  bool recover(net::NodeId node) {
    ASNAP_ASSERT(node < nodes());
    std::lock_guard recover_lock(recover_mu_[node]);
    if (!net_.crashed(node)) return true;  // double recover: already live
    const std::uint64_t epoch =
        epochs_[node].fetch_add(1, std::memory_order_acq_rel) + 1;
    ASNAP_TRACE_EVENT(trace::EventKind::kRecoverBegin, node, epoch);
    servers_[node] = std::jthread();  // join the exited incarnation
    net_.recover(node);
    // Resync before serving: the node's replica may predate majority-acked
    // writes it missed while down. One query-only round over every
    // register from the node's own client (its server is not up yet, so
    // replies can only come from the other replicas). The query never
    // writes back and never installs confirmed_ts: resync learns a value,
    // not that a majority stores it.
    std::vector<Replica>& local = replicas_[node];
    std::vector<Versioned<V>> seed;
    seed.reserve(local.size());
    for (const Replica& rep : local) seed.push_back({rep.ts, rep.value});
    auto best =
        clients_[node].try_query(all_regs_, majority() - 1, std::move(seed));
    if (!best.has_value()) {
      net_.crash(node);  // could not resync: stay down
      ASNAP_TRACE_EVENT(trace::EventKind::kRecoverEnd, node, 0);
      return false;
    }
    for (std::size_t reg = 0; reg < local.size(); ++reg) {
      if ((*best)[reg].ts > local[reg].ts) {
        local[reg].ts = (*best)[reg].ts;
        local[reg].value = std::move((*best)[reg].value);
      }
    }
    servers_[node] = std::jthread(
        [this, node](std::stop_token st) { serve(node, st); });
    ASNAP_TRACE_EVENT(trace::EventKind::kRecoverEnd, node, 1);
    return true;
  }

  /// Attach (or detach, with nullptr) the failure detector whose per-client
  /// suspicion hints drive the circuit breaker. Call from a quiescent point
  /// before the workload starts; the detector must outlive the cluster or a
  /// later attach_detector(nullptr).
  void attach_detector(const net::FailureDetector* detector) {
    for (auto& client : clients_) client.attach_detector(detector);
  }

  /// Current incarnation epoch of a node (0 until its first recovery).
  std::uint64_t epoch(net::NodeId node) const {
    ASNAP_ASSERT(node < nodes());
    return epochs_[node].load(std::memory_order_acquire);
  }

  /// Sever / restore the link between two nodes. Liveness requires every
  /// node that still issues operations to reach a majority of replicas
  /// directly.
  void cut_link(net::NodeId a, net::NodeId b) { net_.cut_link(a, b); }
  void restore_link(net::NodeId a, net::NodeId b) { net_.restore_link(a, b); }

  /// Fault-injection control passthroughs — see net::FaultPlan.
  net::Network& network() { return net_; }
  void set_fault_plan(const net::FaultPlan& plan) { net_.set_fault_plan(plan); }
  void partition(const std::vector<std::vector<net::NodeId>>& groups) {
    net_.partition(groups);
  }
  void heal() { net_.heal(); }

  std::uint64_t messages_sent() const { return net_.messages_sent(); }
  std::size_t alive_count() const { return net_.alive_count(); }

  /// Round counters summed over every node's client (per-thread breakdowns
  /// come from asnap::RetryMeter).
  RoundStats round_stats() const {
    RoundStats total;
    for (const auto& client : clients_) total += client.stats();
    return total;
  }
  std::uint64_t protocol_rounds() const {
    return round_stats().protocol_rounds;
  }
  std::uint64_t fast_reads() const { return round_stats().fast_reads; }
  std::uint64_t fast_fallbacks() const { return round_stats().fast_fallbacks; }
  std::uint64_t retransmits_sent() const { return round_stats().retransmits; }
  std::uint64_t round_timeouts() const { return round_stats().round_timeouts; }

  /// Test hook: a replica's current timestamp for one register. Only valid
  /// at quiescent points (no in-flight operation touching the node).
  std::uint64_t replica_ts(net::NodeId node, std::size_t reg) const {
    ASNAP_ASSERT(node < nodes() && reg < registers());
    return replicas_[node][reg].ts;
  }

  /// Test hook: the highest timestamp a replica knows to be majority-acked
  /// (0 = none confirmed). Unlike replica_ts() it may be polled while the
  /// replica runs: confirms are fire-and-forget, so there is no reply to
  /// wait for.
  std::uint64_t replica_confirmed_ts(net::NodeId node, std::size_t reg) {
    ASNAP_ASSERT(node < nodes() && reg < registers());
    return std::atomic_ref(replicas_[node][reg].confirmed_ts)
        .load(std::memory_order_relaxed);
  }

 private:
  struct Replica {
    std::uint64_t ts = 0;
    /// Highest ts known majority-acked (kConfirm). Invariant: a confirm for
    /// T is only broadcast after T reached a majority, so confirmed_ts >= ts
    /// proves the stored (ts, value) needs no write-back. May exceed ts when
    /// this replica missed the confirmed write itself — still safe evidence
    /// for a reader whose quorum maximum is ts (see DESIGN.md §15).
    std::uint64_t confirmed_ts = 0;
    V value{};
  };

  /// Replica event loop for one node. Only this thread touches
  /// replicas_[id], so replica state needs no locking. Handlers are
  /// idempotent: re-delivered or duplicated requests re-send the reply but
  /// never re-apply an effect (WRITE applies only on a strictly larger ts).
  void serve(net::NodeId id, std::stop_token st) {
    auto& inbox = net_.mailbox(id, net::Port::kServer);
    while (!st.stop_requested()) {
      auto msg = inbox.receive();
      if (!msg.has_value()) return;  // closed: shutdown or crash
      const auto& req = std::any_cast<const Request<V>&>(msg->payload);
      std::vector<Replica>& regs = replicas_[id];
      for (const Entry<V>& e : req.entries) ASNAP_ASSERT(e.reg < regs.size());
      const std::uint64_t epoch = epochs_[id].load(std::memory_order_relaxed);
      switch (msg->type) {
        case kReadReq: {
          Reply<V> reply{epoch, {}};
          reply.entries.reserve(req.entries.size());
          for (const Entry<V>& e : req.entries) {
            const Replica& rep = regs[e.reg];
            reply.entries.push_back(Entry<V>{
                e.reg, rep.ts, rep.ts > 0 && rep.confirmed_ts >= rep.ts,
                rep.value});
          }
          net_.send(id, msg->from, net::Port::kClient, kReadReply, msg->rid,
                    std::any(std::move(reply)));
          break;
        }
        case kWriteReq:
          for (const Entry<V>& e : req.entries) {
            Replica& rep = regs[e.reg];
            if (e.ts > rep.ts) {
              rep.ts = e.ts;
              rep.value = e.value;
            }
          }
          net_.send(id, msg->from, net::Port::kClient, kWriteAck, msg->rid,
                    std::any(Reply<V>{epoch, {}}));
          break;
        case kConfirm:
          // Atomic store: tests poll replica_confirmed_ts() while the
          // server folds in a confirm that no reply acknowledges.
          for (const Entry<V>& e : req.entries) {
            Replica& rep = regs[e.reg];
            if (e.ts > rep.confirmed_ts) {
              std::atomic_ref(rep.confirmed_ts)
                  .store(e.ts, std::memory_order_relaxed);
            }
          }
          break;  // fire-and-forget: no reply
        default:
          ASNAP_ASSERT_MSG(false, "unknown message type at replica");
      }
    }
  }

  net::Network net_;
  std::vector<std::vector<Replica>> replicas_;  ///< [node][register]
  std::vector<std::uint64_t> write_ts_;  ///< per register; owner-only access
  std::vector<std::uint64_t> all_regs_;  ///< 0..registers()-1, for batches
  /// Incarnation epoch per node, bumped by each effective recover().
  std::vector<std::atomic<std::uint64_t>> epochs_;
  /// One quorum client per node (deque: clients don't move).
  std::deque<Client> clients_;
  /// Serializes recover() calls for one node (supervisor vs. schedule).
  std::deque<std::mutex> recover_mu_;
  std::vector<std::jthread> servers_;
};

/// Adapter: exposes an AbdCluster as a reg::SwmrRegisterArray so the
/// snapshot algorithms run unchanged over message passing.
template <typename Rec>
class AbdRegisterArray {
 public:
  explicit AbdRegisterArray(AbdCluster<Rec>& cluster) : cluster_(&cluster) {}

  std::size_t size() const { return cluster_->registers(); }

  Rec read(ProcessId owner, ProcessId reader) const {
    std::optional<Rec> value = cluster_->try_read(owner, reader);
    if (!value.has_value()) throw QuorumUnavailable("read");
    return *std::move(value);
  }

  /// Every register in one batched read (reg::SwmrRegisterArray's optional
  /// collect): one query round plus at most one write-back round.
  void collect(ProcessId reader, std::vector<Rec>& out) const {
    if (!cluster_->try_collect(reader, out)) throw QuorumUnavailable("read");
  }

  void write(ProcessId owner, Rec rec) {
    if (cluster_->try_write(owner, owner, std::move(rec)) != OpStatus::kOk) {
      throw QuorumUnavailable("write");
    }
  }

 private:
  AbdCluster<Rec>* cluster_;
};

}  // namespace asnap::abd
