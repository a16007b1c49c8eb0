// The ABD quorum client, written once over a small transport concept
// (Attiya, Bar-Noy, Dolev: "Sharing Memory Robustly in Message-Passing
// Systems", cited as [ABD] in Section 6).
//
// QuorumClient<Transport> is one client's side of the [ABD] register
// emulation. Every round rule lives here and nowhere else:
//
//   * ROUNDS. A round sends one request to the replicas, then collects
//     replies matching its request id until `needed` DISTINCT replicas
//     answered. Waits are bounded by a retransmission timeout (RetryBackoff,
//     doubling up to max_rto); on expiry the request is retransmitted with
//     the SAME rid to every replica not yet counted. Replica handlers are
//     idempotent, so retransmits and duplicated deliveries are harmless. An
//     operation's deadline (op_deadline) spans all of its rounds; on expiry
//     the operation reports OpStatus::kTimeout instead of blocking.
//   * DEDUP. Replies are counted once per responder, so a duplicated or
//     retransmission-induced repeat reply can never let one replica satisfy
//     the majority twice.
//   * EPOCH RULE. Replicas stamp every reply with their incarnation epoch,
//     bumped on every restart. A client keeps the highest epoch it has seen
//     from each replica and discards replies stamped with a lower one: they
//     come from a pre-crash incarnation (for example a SIGSTOPped process
//     resumed after its successor started) whose state may predate acked
//     writes.
//   * RTO RULE. The first retransmission timeout of a round is
//     clamp(kRttMultiplier x the slowest smoothed per-replica RTT,
//     initial_rto, max_rto), or initial_rto before any RTT sample exists.
//     initial_rto is thus both the floor and the cold-start value. RTT
//     samples obey Karn's rule: only a replica that was sent the request
//     exactly once yields a sample, because a reply after a retransmit may
//     answer either copy. A round that retransmitted without getting a
//     single clean sample passes its backed-off timeout on to the next
//     round, so a timeout that starts below the RTT grows until samples
//     flow instead of retransmitting every round forever.
//   * READS. write(ts, v) is one round of majority acks. read is a query
//     round (adopt the maximum (ts, value)) plus a write-back round of the
//     adopted pair, which upgrades regularity to atomicity. With fast_reads
//     (after "Oh-RAM! One and a Half Round Atomic Memory") the query doubles
//     as a stability probe and the write-back is skipped when every counted
//     replier reported the adopted ts, or some replier at that ts carried
//     the confirmed bit. Completed writes and write-backs broadcast a
//     fire-and-forget CONFIRM(ts) to make the second case common. Any other
//     evidence runs the two-round path, so safety reduces to [ABD]'s
//     (DESIGN.md §15).
//   * BATCHES. Requests and replies carry a list of register entries. A
//     batched read of k registers is ONE query round whose replies carry k
//     (ts, confirmed, value) triples; the maximum and the evidence are
//     folded per register, and only the registers without evidence are
//     written back, together in one write-back round followed by one
//     confirm broadcast. A one-register read is the k = 1 case, so the
//     fast-read decision exists once. Each register keeps [ABD] atomicity
//     on its own: its read is linearized inside the batch's interval
//     (DESIGN.md §11, "Batched collects").
//   * BREAKER. With AbdConfig::breaker.enabled and a failure detector
//     attached, waves skip replicas the client suspects (every
//     probe_every-th wave probes them anyway) and a round fails fast once
//     fewer plausibly-live replicas than it needs have persisted past
//     fail_fast_grace. The breaker never shrinks the quorum, so safety does
//     not depend on detector accuracy (unsafe_shrink_quorum violates this
//     and exists only for the negative chaos test).
//
// The transport is what differs between the in-process cluster and real
// sockets (see QuorumTransport below): SimTransport in abd_register.hpp
// passes typed payloads through net::Network mailboxes, TcpTransport in
// remote_client.hpp encodes wire::Frames over net::TcpBus.
//
// One operation at a time per client (an internal mutex serializes them):
// concurrency comes from many clients, one per process.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <concepts>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "abd/replica_health.hpp"
#include "common/assert.hpp"
#include "common/backoff.hpp"
#include "common/instrumentation.hpp"
#include "net/failure_detector.hpp"
#include "net/network.hpp"
#include "trace/event.hpp"

namespace asnap::abd {

enum MsgType : std::uint64_t {
  kReadReq = 1,
  kReadReply = 2,
  kWriteReq = 3,
  kWriteAck = 4,
  /// Fire-and-forget stability notice: "ts for reg is majority-acked".
  /// Sent after a completed write or write-back round; replicas fold it
  /// into confirmed_ts. Losing every copy only costs fast-read hits.
  kConfirm = 5,
};

/// Outcome of one client quorum round / operation.
enum class OpStatus : std::uint8_t {
  kOk = 0,
  kTimeout = 1,  ///< no majority of distinct replicas answered in time
  kClosed = 2,   ///< the client's own endpoint closed (node crashed/shutdown)
};

/// Circuit-breaker knobs, consulted only when `enabled` is set AND a
/// failure detector is attached (QuorumClient::attach_detector).
struct BreakerConfig {
  bool enabled = false;
  /// Every probe_every-th transmission wave also targets suspected replicas,
  /// so a healed node is re-admitted to rounds without waiting for the
  /// detector's own trust transition. 0 disables probing.
  std::uint32_t probe_every = 4;
  /// Fail the round (kTimeout) once fewer plausibly-live replicas than the
  /// quorum needs — non-suspected or already counted this round — have
  /// persisted continuously for this long. Keeps degraded-mode latency at
  /// detector scale instead of op_deadline scale.
  std::chrono::microseconds fail_fast_grace{std::chrono::milliseconds(25)};
  /// NEGATIVE-TEST ONLY: let the breaker shrink the quorum by the number of
  /// suspected replicas. This breaks the majority-intersection safety
  /// argument of [ABD]; it exists so the chaos checkers can demonstrate
  /// they catch exactly this class of bug. Never set it elsewhere.
  bool unsafe_shrink_quorum = false;
};

/// Client-side timing knobs. Defaults are generous so fault-free workloads
/// never retransmit spuriously; fault-heavy tests and socket clients
/// tighten them.
struct AbdConfig {
  /// Floor of a round's first retransmission timeout, and its value until
  /// the client has an RTT sample (see the RTO rule above); doubles
  /// (RetryBackoff) up to max_rto on every retransmission.
  std::chrono::microseconds initial_rto{std::chrono::milliseconds(20)};
  std::chrono::microseconds max_rto{std::chrono::milliseconds(160)};
  /// Total budget for one operation (a read spends it across both its query
  /// and write-back rounds). On expiry the operation reports kTimeout.
  std::chrono::microseconds op_deadline{std::chrono::seconds(10)};
  /// One-round fast reads (Oh-RAM! / Imbs–Raynal style): skip the
  /// write-back round when the query quorum proves the adopted value is
  /// already stable at a majority — every counted replier reported
  /// best_ts, or a best_ts reply carried the confirmed bit. Any other
  /// evidence falls back to the full query + write-back slow path.
  bool fast_reads = true;
  /// NEGATIVE-TEST ONLY: skip the write-back round unconditionally, with no
  /// stability evidence. This reintroduces the new/old inversion [ABD]'s
  /// write-back exists to prevent; it exists so the exact checker can
  /// demonstrate it catches exactly this class of bug. Never set it
  /// elsewhere.
  bool unsafe_always_fast_read = false;
  BreakerConfig breaker;
};

/// One register's slot in a request or a reply. A kReadReq entry names
/// its register; a kWriteReq entry carries (reg, ts, value) and a kConfirm
/// entry (reg, ts). A kReadReply entry is the replica's (ts, confirmed,
/// value) for the register of the request entry at the same position.
template <typename V>
struct Entry {
  std::uint64_t reg = 0;
  std::uint64_t ts = 0;
  bool confirmed = false;  ///< kReadReply: ts > 0 and known majority-acked
  V value{};
};

/// A client request over one or more registers.
template <typename V>
struct Request {
  std::uint64_t type = 0;
  std::uint64_t rid = 0;
  std::vector<Entry<V>> entries;
};

/// A replica's reply, as a transport decodes it (the responder, type and
/// rid travel in the enclosing net::Message).
template <typename V>
struct Reply {
  std::uint64_t epoch = 0;  ///< responder's incarnation at reply time
  /// kReadReply: one entry per request entry, in request order; a reply
  /// that does not answer every requested register is dropped. Empty for
  /// acks.
  std::vector<Entry<V>> entries;
};

/// A register's (timestamp, value) pair; ts == 0 is the initial value.
template <typename V>
struct Versioned {
  std::uint64_t ts = 0;
  V value{};
};

/// Round counters of one client, or summed over many.
struct RoundStats {
  /// Protocol rounds started (query / write / write-back), NOT counting
  /// retransmission waves within a round — see retransmits for those.
  std::uint64_t protocol_rounds = 0;
  std::uint64_t fast_reads = 0;      ///< reads that skipped write-back
  std::uint64_t fast_fallbacks = 0;  ///< reads that fell back to write-back
  std::uint64_t retransmits = 0;     ///< retransmission waves
  std::uint64_t dup_replies = 0;
  std::uint64_t round_timeouts = 0;
  std::uint64_t breaker_skips = 0;
  std::uint64_t fail_fasts = 0;
  std::uint64_t stale_epoch_replies = 0;

  RoundStats& operator+=(const RoundStats& o) {
    protocol_rounds += o.protocol_rounds;
    fast_reads += o.fast_reads;
    fast_fallbacks += o.fast_fallbacks;
    retransmits += o.retransmits;
    dup_replies += o.dup_replies;
    round_timeouts += o.round_timeouts;
    breaker_skips += o.breaker_skips;
    fail_fasts += o.fail_fasts;
    stale_epoch_replies += o.stale_epoch_replies;
    return *this;
  }
};

/// What QuorumClient needs from a network: the replica count, a way to send
/// one request to replica `to` (the deadline bounds a send that can block,
/// such as a TCP write to a half-open peer), the client's reply mailbox,
/// and a decoder that moves a Reply out of a received message — nullopt for
/// anything that is not a well-formed reply from a replica index below
/// size().
template <typename T>
concept QuorumTransport =
    requires(T t, const T ct, net::NodeId to,
             const Request<typename T::Value>& request,
             std::chrono::steady_clock::time_point deadline,
             net::Message& msg) {
      typename T::Value;
      { ct.size() } -> std::convertible_to<std::size_t>;
      t.send(to, request, deadline);
      { t.inbox() } -> std::same_as<net::Mailbox&>;
      { t.decode(msg) } -> std::same_as<std::optional<Reply<typename T::Value>>>;
    };

template <QuorumTransport Transport>
class QuorumClient {
 public:
  using V = typename Transport::Value;
  using Clock = std::chrono::steady_clock;

  /// A first retransmission earlier than this multiple of the smoothed RTT
  /// mostly duplicates traffic still in flight.
  static constexpr int kRttMultiplier = 4;

  /// `self` names this client in traces and in the failure detector's
  /// suspicion matrix; the remaining arguments construct the transport.
  template <typename... TransportArgs>
  QuorumClient(std::uint32_t self, AbdConfig config, TransportArgs&&... args)
      : transport_(std::forward<TransportArgs>(args)...),
        self_(self),
        config_(config),
        max_epoch_(transport_.size(), 0),
        health_(transport_.size()) {}

  QuorumClient(const QuorumClient&) = delete;
  QuorumClient& operator=(const QuorumClient&) = delete;

  std::size_t majority() const { return transport_.size() / 2 + 1; }

  /// Majority write of (ts, value), then the confirm broadcast. The caller
  /// owns the timestamp and keeps it monotone per register (the
  /// single-writer regime); retrying a timed-out write with the same
  /// (ts, value) is sound.
  OpStatus try_write(std::uint64_t reg, std::uint64_t ts, V value) {
    std::lock_guard lock(op_mu_);
    step_point(StepKind::kRegisterWrite);
    const auto deadline = Clock::now() + config_.op_deadline;
    std::vector<Entry<V>> entries(1);
    entries[0] = Entry<V>{reg, ts, false, std::move(value)};
    const OpStatus status = write_round(entries, deadline);
    // The "half round" of the 1.5-round write: once a majority acked ts,
    // tell every replica so future fast reads of ts can skip write-back.
    if (status == OpStatus::kOk) broadcast_confirm(entries);
    return status;
  }

  /// Atomic read of one register: the batch of one (try_read_batch).
  std::optional<Versioned<V>> try_read(std::uint64_t reg) {
    auto got = try_read_batch(std::span<const std::uint64_t>(&reg, 1));
    if (!got.has_value()) return std::nullopt;
    return std::move(got->front());
  }

  /// Atomic read of every register in `regs`, in order: ONE query round
  /// whose replies carry a triple per register, then — unless the query
  /// proved every adopted pair stable (fast reads) — ONE write-back round
  /// carrying exactly the registers without stability evidence. Each
  /// register's read is linearized inside this call. nullopt carries the
  /// failure (timeout or closed endpoint).
  std::optional<std::vector<Versioned<V>>> try_read_batch(
      std::span<const std::uint64_t> regs) {
    std::lock_guard lock(op_mu_);
    for (std::size_t i = 0; i < regs.size(); ++i) {
      step_point(StepKind::kRegisterRead);
    }
    const auto deadline = Clock::now() + config_.op_deadline;
    std::vector<Versioned<V>> best(regs.size());
    std::vector<Evidence> ev(regs.size());
    if (query_round(regs, majority(), deadline, best, /*have=*/false,
                    /*allow_breaker=*/true, ev) != OpStatus::kOk) {
      return std::nullopt;
    }
    // Write-back round: make every adopted pair without evidence stable at
    // a majority before returning it (the atomicity upgrade).
    std::vector<Entry<V>> write_back;
    for (std::size_t i = 0; i < regs.size(); ++i) {
      if (!skip_write_back(regs[i], best[i].ts, ev[i])) {
        write_back.push_back(
            Entry<V>{regs[i], best[i].ts, false, best[i].value});
      }
    }
    if (!write_back.empty()) {
      if (write_round(write_back, deadline) != OpStatus::kOk) {
        return std::nullopt;
      }
      broadcast_confirm(write_back);
    }
    return best;
  }

  /// Query round only, with NO write-back and no breaker: not atomic on its
  /// own. For replica resync (which installs the result locally instead of
  /// serving it) and for a restarted writer learning its register's
  /// timestamp. `needed` distinct replies are folded, per register of
  /// `regs`, into `seed` (one pair per register; a resync seeds with the
  /// local replica, which is then one quorum member).
  std::optional<std::vector<Versioned<V>>> try_query(
      std::span<const std::uint64_t> regs, std::size_t needed,
      std::vector<Versioned<V>> seed = {}) {
    std::lock_guard lock(op_mu_);
    const auto deadline = Clock::now() + config_.op_deadline;
    const bool have = !seed.empty();
    ASNAP_ASSERT(!have || seed.size() == regs.size());
    std::vector<Versioned<V>> best =
        have ? std::move(seed) : std::vector<Versioned<V>>(regs.size());
    std::vector<Evidence> ev(regs.size());
    if (query_round(regs, needed, deadline, best, have,
                    /*allow_breaker=*/false, ev) != OpStatus::kOk) {
      return std::nullopt;
    }
    return best;
  }

  /// Attach (or detach, with nullptr) the failure detector whose suspicion
  /// hints drive the circuit breaker. The detector must outlive the client
  /// or a later attach_detector(nullptr).
  void attach_detector(const net::FailureDetector* detector) {
    detector_.store(detector, std::memory_order_release);
  }

  RoundStats stats() const {
    RoundStats s;
    s.protocol_rounds = rounds_.load(std::memory_order_relaxed);
    s.fast_reads = fast_reads_.load(std::memory_order_relaxed);
    s.fast_fallbacks = fast_fallbacks_.load(std::memory_order_relaxed);
    s.retransmits = retransmits_.load(std::memory_order_relaxed);
    s.dup_replies = dup_replies_.load(std::memory_order_relaxed);
    s.round_timeouts = round_timeouts_.load(std::memory_order_relaxed);
    s.breaker_skips = breaker_skips_.load(std::memory_order_relaxed);
    s.fail_fasts = fail_fasts_.load(std::memory_order_relaxed);
    s.stale_epoch_replies =
        stale_epoch_replies_.load(std::memory_order_relaxed);
    return s;
  }

  /// Smoothed RTT to one replica; 0 before any Karn-clean sample.
  std::chrono::nanoseconds rtt_estimate(std::size_t replica) const {
    return health_.rtt(replica);
  }

  Transport& transport() { return transport_; }
  const Transport& transport() const { return transport_; }

 private:
  /// Stability evidence a query round gathers for the fast-read decision.
  struct Evidence {
    std::size_t accepted = 0;     ///< replies counted toward the quorum
    std::size_t agree = 0;        ///< of those, replies at the final best ts
    bool best_confirmed = false;  ///< some best-ts reply was confirmed
  };

  /// Per-replica bookkeeping of one round.
  struct Target {
    bool counted = false;
    std::uint32_t sends = 0;
    Clock::time_point first_tx{};
  };

  std::uint64_t next_rid() { return next_rid_++; }

  /// A read reply counts only if it carries a triple for every requested
  /// register, in request order.
  static bool answers(const Request<V>& request, const Reply<V>& reply) {
    if (reply.entries.size() != request.entries.size()) return false;
    for (std::size_t i = 0; i < reply.entries.size(); ++i) {
      if (reply.entries[i].reg != request.entries[i].reg) return false;
    }
    return true;
  }

  /// One retransmitting quorum round for `request`, collecting replies of
  /// `want_type` until `needed` distinct replicas are counted. on_reply
  /// runs once per counted reply.
  template <typename OnReply>
  OpStatus run_round(const Request<V>& request, std::uint64_t want_type,
                     std::size_t needed, Clock::time_point deadline,
                     bool allow_breaker, OnReply&& on_reply) {
    if (needed == 0) return OpStatus::kOk;
    const std::size_t n = transport_.size();
    const std::uint64_t rid = request.rid;
    auto& inbox = transport_.inbox();
    const net::FailureDetector* fd =
        allow_breaker ? detector_.load(std::memory_order_acquire) : nullptr;
    const bool breaker = config_.breaker.enabled && fd != nullptr;

    auto rto = config_.initial_rto;
    if (const auto est = health_.max_rtt(); est.count() > 0) {
      const auto adaptive =
          std::chrono::duration_cast<std::chrono::microseconds>(
              est * kRttMultiplier);
      rto = std::max(config_.initial_rto, std::min(adaptive, config_.max_rto));
    }
    rto = std::max(rto, carried_rto_);
    RetryBackoff backoff(rto, std::max(rto, config_.max_rto));
    bool sampled = false;  // got a Karn-clean RTT sample this round

    std::vector<Target> targets(n);
    std::size_t accepted = 0;
    std::uint32_t waves = 0;
    Clock::time_point starved_since{};  ///< {} = not short of replicas

    auto transmit_wave = [&] {
      const std::uint32_t wave = waves++;
      const bool probe = breaker && config_.breaker.probe_every != 0 &&
                         (wave + 1) % config_.breaker.probe_every == 0;
      for (net::NodeId to = 0; to < n; ++to) {
        Target& t = targets[to];
        if (t.counted) continue;  // a resend would only draw a duplicate
        if (breaker && !probe && fd->suspected(self_, to)) {
          breaker_skips_.fetch_add(1, std::memory_order_relaxed);
          ASNAP_TRACE_EVENT(trace::EventKind::kBreakerSkip, self_, to);
          continue;
        }
        transport_.send(to, request, deadline);
        if (t.sends++ == 0) t.first_tx = Clock::now();
      }
    };

    // How many distinct replies this round still insists on. Always
    // `needed` — except under the deliberately broken negative-test knob,
    // which deducts currently-suspected uncounted replicas.
    auto effective_needed = [&]() -> std::size_t {
      if (!breaker || !config_.breaker.unsafe_shrink_quorum) return needed;
      std::size_t suspected_uncounted = 0;
      for (net::NodeId j = 0; j < n; ++j) {
        if (!targets[j].counted && fd->suspected(self_, j)) {
          ++suspected_uncounted;
        }
      }
      return needed > suspected_uncounted + 1 ? needed - suspected_uncounted
                                              : 1;
    };

    auto timeout = [&] {
      note_round_timeout();
      round_timeouts_.fetch_add(1, std::memory_order_relaxed);
      return OpStatus::kTimeout;
    };

    const OpStatus status = [&]() -> OpStatus {
      note_round();
      rounds_.fetch_add(1, std::memory_order_relaxed);
      ASNAP_TRACE_EVENT(trace::EventKind::kAbdRoundBegin, self_, rid, needed);
      transmit_wave();
      auto retransmit_at = Clock::now() + backoff.current();
      while (accepted < effective_needed()) {
        const auto now = Clock::now();
        if (now >= deadline) {
          ASNAP_TRACE_EVENT(trace::EventKind::kAbdRoundTimeout, self_, rid);
          return timeout();
        }
        if (breaker && !config_.breaker.unsafe_shrink_quorum) {
          std::size_t plausible = 0;
          for (net::NodeId j = 0; j < n; ++j) {
            if (targets[j].counted || !fd->suspected(self_, j)) ++plausible;
          }
          if (plausible >= needed) {
            starved_since = {};
          } else if (starved_since == Clock::time_point{}) {
            starved_since = now;
          } else if (now - starved_since >= config_.breaker.fail_fast_grace) {
            fail_fasts_.fetch_add(1, std::memory_order_relaxed);
            ASNAP_TRACE_EVENT(trace::EventKind::kBreakerFailFast, self_, rid,
                              plausible);
            return timeout();
          }
        }
        if (now >= retransmit_at) {
          note_retransmit();
          retransmits_.fetch_add(1, std::memory_order_relaxed);
          ASNAP_TRACE_EVENT(trace::EventKind::kAbdRetransmit, self_, rid);
          transmit_wave();
          backoff.grow();
          retransmit_at = Clock::now() + backoff.current();
          continue;
        }
        auto msg = inbox.receive_until(std::min(deadline, retransmit_at));
        if (!msg.has_value()) {
          if (inbox.closed()) {
            ASNAP_TRACE_EVENT(trace::EventKind::kAbdRoundTimeout, self_, rid);
            return OpStatus::kClosed;
          }
          continue;  // timed wait expired: re-check deadline / retransmit
        }
        if (msg->rid != rid || msg->type != want_type) continue;  // stale round
        std::optional<Reply<V>> reply = transport_.decode(*msg);
        if (!reply.has_value()) continue;
        if (want_type == kReadReply && !answers(request, *reply)) continue;
        const net::NodeId from = msg->from;
        if (reply->epoch < max_epoch_[from]) {  // pre-crash incarnation
          stale_epoch_replies_.fetch_add(1, std::memory_order_relaxed);
          ASNAP_TRACE_EVENT(trace::EventKind::kStaleEpochReply, self_, from,
                            reply->epoch);
          continue;
        }
        max_epoch_[from] = reply->epoch;
        Target& t = targets[from];
        if (t.counted) {  // duplicated/retransmitted reply: count once
          note_dup_reply();
          dup_replies_.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        t.counted = true;
        if (t.sends == 1) {
          health_.record(from, Clock::now() - t.first_tx);
          sampled = true;
        }
        ++accepted;
        on_reply(*std::move(reply));
      }
      ASNAP_TRACE_EVENT(trace::EventKind::kAbdQuorumReached, self_, rid,
                        accepted);
      return OpStatus::kOk;
    }();
    // Karn's algorithm, second half: a round that retransmitted without a
    // clean sample (every reply may answer a resend, as when the timeout
    // starts below the RTT) hands its backed-off timeout to the next round,
    // which would otherwise restart below the RTT and never measure it.
    if (sampled) {
      carried_rto_ = std::chrono::microseconds{0};
    } else if (waves > 1) {
      carried_rto_ = backoff.current();
    }
    return status;
  }

  /// The fast-read decision for one register of a query round: true when
  /// its write-back may be skipped. Counted and traced per register.
  bool skip_write_back(std::uint64_t reg, std::uint64_t ts,
                       const Evidence& ev) {
    if (!config_.fast_reads && !config_.unsafe_always_fast_read) return false;
    const bool stable = ev.agree == ev.accepted || ev.best_confirmed;
    if (stable || config_.unsafe_always_fast_read) {
      fast_reads_.fetch_add(1, std::memory_order_relaxed);
      ASNAP_TRACE_EVENT(trace::EventKind::kAbdFastRead, self_, reg, ts);
      return true;
    }
    fast_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    ASNAP_TRACE_EVENT(trace::EventKind::kAbdFastFallback, self_, reg,
                      ev.agree < ev.accepted ? trace::kFastFallbackDisagree
                                             : trace::kFastFallbackGap);
    return false;
  }

  /// Query round over `regs`: fold, per register, the maximum (ts, value)
  /// over `needed` distinct replies into `best` (adopting the first reply
  /// unless `have`), and gather that register's fast-read evidence.
  OpStatus query_round(std::span<const std::uint64_t> regs, std::size_t needed,
                       Clock::time_point deadline,
                       std::vector<Versioned<V>>& best, bool have,
                       bool allow_breaker, std::vector<Evidence>& ev) {
    Request<V> request;
    request.type = kReadReq;
    request.rid = next_rid();
    request.entries.resize(regs.size());
    for (std::size_t i = 0; i < regs.size(); ++i) {
      request.entries[i].reg = regs[i];
    }
    return run_round(request, kReadReply, needed, deadline, allow_breaker,
                     [&](Reply<V>&& reply) {
                       for (std::size_t i = 0; i < regs.size(); ++i) {
                         fold(reply.entries[i], have, best[i], ev[i]);
                       }
                       have = true;
                     });
  }

  static void fold(Entry<V>& got, bool have, Versioned<V>& best,
                   Evidence& ev) {
    if (!have || got.ts > best.ts) {
      best.ts = got.ts;
      best.value = std::move(got.value);
      ev.agree = 1;
      ev.best_confirmed = got.confirmed;
    } else if (got.ts == best.ts) {
      ++ev.agree;
      ev.best_confirmed = ev.best_confirmed || got.confirmed;
    }
    ++ev.accepted;
  }

  /// One majority round writing every (reg, ts, value) of `entries`.
  OpStatus write_round(const std::vector<Entry<V>>& entries,
                       Clock::time_point deadline) {
    Request<V> request;
    request.type = kWriteReq;
    request.rid = next_rid();
    request.entries = entries;
    return run_round(request, kWriteAck, majority(), deadline,
                     /*allow_breaker=*/true, [](Reply<V>&&) {});
  }

  /// Fire-and-forget stability notice for every (reg, ts) of `entries`
  /// after a majority-acked write or write-back round, in one message per
  /// replica. No retransmission and no acks: a lost confirm only costs a
  /// later fast read its hit. ts == 0 (never written) needs no confirm —
  /// unanimity covers it. Sends are bounded by one max_rto so a wedged
  /// connection cannot stall the client.
  void broadcast_confirm(const std::vector<Entry<V>>& entries) {
    Request<V> request;
    request.type = kConfirm;
    for (const Entry<V>& e : entries) {
      if (e.ts != 0) request.entries.push_back(Entry<V>{e.reg, e.ts});
    }
    if (request.entries.empty()) return;
    request.rid = next_rid();
    const auto deadline = Clock::now() + config_.max_rto;
    for (net::NodeId to = 0; to < transport_.size(); ++to) {
      transport_.send(to, request, deadline);
    }
  }

  Transport transport_;
  const std::uint32_t self_;
  const AbdConfig config_;
  std::mutex op_mu_;  ///< one operation at a time (they share the inbox)
  std::uint64_t next_rid_ = 1;  ///< guarded by op_mu_
  std::vector<std::uint64_t> max_epoch_;  ///< guarded by op_mu_
  /// Backed-off timeout handed to the next round (Karn); guarded by op_mu_.
  std::chrono::microseconds carried_rto_{0};
  ReplicaHealth health_;
  std::atomic<const net::FailureDetector*> detector_{nullptr};
  std::atomic<std::uint64_t> rounds_{0};
  std::atomic<std::uint64_t> fast_reads_{0};
  std::atomic<std::uint64_t> fast_fallbacks_{0};
  std::atomic<std::uint64_t> retransmits_{0};
  std::atomic<std::uint64_t> dup_replies_{0};
  std::atomic<std::uint64_t> round_timeouts_{0};
  std::atomic<std::uint64_t> breaker_skips_{0};
  std::atomic<std::uint64_t> fail_fasts_{0};
  std::atomic<std::uint64_t> stale_epoch_replies_{0};
};

/// Thrown by the register arrays (AbdRegisterArray, SocketRegisterArray)
/// when a register operation cannot reach a majority of distinct replicas
/// within its deadline (or the client's own endpoint closed mid-operation).
/// Unwinds cleanly through the snapshot cores — they keep only local state
/// per operation — so degraded-mode callers (try_scan / try_update) can
/// turn it into a soft failure.
struct QuorumUnavailable : std::runtime_error {
  explicit QuorumUnavailable(const char* op)
      : std::runtime_error(std::string("ABD ") + op +
                           " found no majority within its deadline "
                           "(majority crashed or partitioned?)") {}
};

}  // namespace asnap::abd
