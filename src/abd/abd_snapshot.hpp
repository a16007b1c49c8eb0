// Atomic snapshot memory for message-passing systems (Section 6):
// the UNCHANGED Figure 2 algorithm instantiated over ABD-emulated registers.
//
// "Snapshots obtained this way are true instantaneous images of the global
//  state. In addition, these implementations are resilient to process and
//  link failures, as long as a majority of the system remains connected."
//
// Each logical process is a cluster node; its snapshot operations translate
// into quorum message rounds. Crash any minority of nodes and the survivors'
// updates and scans keep completing and keep being linearizable.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "abd/abd_register.hpp"
#include "abd/supervisor.hpp"
#include "common/config.hpp"
#include "core/unbounded_sw_snapshot.hpp"
#include "net/failure_detector.hpp"

namespace asnap::abd {

template <typename T>
class MessagePassingSnapshot {
 public:
  using Snapshot = core::UnboundedSwSnapshot<T, AbdRegisterArray>;
  using Record = typename Snapshot::Record;

  MessagePassingSnapshot(std::size_t n, const T& init, std::uint64_t seed = 1,
                         AbdConfig config = {})
      : cluster_(n, n, Snapshot::initial_record(n, init), seed, config),
        snapshot_(AbdRegisterArray<Record>(cluster_)) {}

  std::size_t size() const { return snapshot_.size(); }

  /// Asserting entry points for callers operating under the liveness
  /// precondition (a majority alive and reachable) — the original Section 6
  /// behavior.
  void update(ProcessId i, T value) {
    try {
      snapshot_.update(i, std::move(value));
    } catch (const QuorumUnavailable& e) {
      ASNAP_ASSERT_MSG(false, e.what());
    }
  }
  std::vector<T> scan(ProcessId i) {
    try {
      return snapshot_.scan(i);
    } catch (const QuorumUnavailable& e) {
      ASNAP_ASSERT_MSG(false, e.what());
    }
    return {};  // unreachable
  }

  /// Degraded-mode entry points: a quorum failure (majority crashed,
  /// partitioned away, or the caller's own node down) is reported instead
  /// of aborting, so a workload can ride through outages and retry.
  /// A failed update is INDETERMINATE — the value may or may not have
  /// reached a majority; retrying with the same logical value is the sound
  /// recovery (the embedded write is idempotent at equal tags).
  bool try_update(ProcessId i, T value) {
    try {
      snapshot_.update(i, std::move(value));
      return true;
    } catch (const QuorumUnavailable&) {
      return false;
    }
  }
  std::optional<std::vector<T>> try_scan(ProcessId i) {
    try {
      return snapshot_.scan(i);
    } catch (const QuorumUnavailable&) {
      return std::nullopt;
    }
  }

  /// Fail-stop node i. Its process must issue no further operations; all
  /// other processes continue as long as a majority is alive.
  void crash(ProcessId i) { cluster_.crash(i); }

  /// Restart a crashed node (rejoin + replica resync from a majority); its
  /// process may issue operations again once this returns true. Safe to
  /// race with the self-healing supervisor (double recover is a no-op).
  bool recover(ProcessId i) { return cluster_.recover(i); }
  bool crashed(ProcessId i) const { return cluster_.crashed(i); }

  /// Sever a link. Processes that keep operating must still reach a
  /// majority of replicas directly.
  void cut_link(ProcessId a, ProcessId b) { cluster_.cut_link(a, b); }
  void restore_link(ProcessId a, ProcessId b) { cluster_.restore_link(a, b); }

  /// Lossy-network adversary controls (drop/dup/delay/partition) — the
  /// retransmitting ABD client rounds keep scans/updates live through them.
  void set_fault_plan(const net::FaultPlan& plan) {
    cluster_.set_fault_plan(plan);
  }
  void partition(const std::vector<std::vector<net::NodeId>>& groups) {
    cluster_.partition(groups);
  }
  void heal() { cluster_.heal(); }

  std::uint64_t messages_sent() const { return cluster_.messages_sent(); }
  RoundStats round_stats() const { return cluster_.round_stats(); }
  std::uint64_t protocol_rounds() const { return cluster_.protocol_rounds(); }
  std::uint64_t fast_reads() const { return cluster_.fast_reads(); }
  std::uint64_t fast_fallbacks() const { return cluster_.fast_fallbacks(); }
  std::uint64_t retransmits_sent() const {
    return cluster_.retransmits_sent();
  }
  std::uint64_t dup_replies_ignored() const {
    return round_stats().dup_replies;
  }
  std::uint64_t round_timeouts() const { return cluster_.round_timeouts(); }
  std::size_t alive_count() const { return cluster_.alive_count(); }
  const core::ScanStats& stats(ProcessId i) const { return snapshot_.stats(i); }

  // --- self-healing ---------------------------------------------------------

  /// Knobs for enable_self_healing(). Defaults suit chaos runs (millisecond
  /// failure detection, a few ms of simulated reboot time).
  struct SelfHealingConfig {
    net::DetectorConfig detector;
    SupervisorConfig supervisor;
    /// Optional observer of suspect/trust transitions (the chaos
    /// orchestrator measures detection latency through it). Fires from
    /// detector monitor threads; must be cheap and non-blocking.
    net::FailureDetector::Callback detector_callback;
  };

  /// Start the self-healing layer: a heartbeat failure detector whose
  /// suspicion hints arm the cluster's circuit breaker (if
  /// AbdConfig::breaker.enabled was set), plus a supervisor that
  /// auto-recovers crashed nodes. Call once, from a quiescent point before
  /// the workload starts; both live until the snapshot is destroyed.
  void enable_self_healing(const SelfHealingConfig& cfg = {}) {
    ASNAP_ASSERT_MSG(!detector_, "self-healing already enabled");
    detector_ = std::make_unique<net::FailureDetector>(
        cluster_.network(), cfg.detector, cfg.detector_callback);
    cluster_.attach_detector(detector_.get());
    supervisor_ =
        std::make_unique<AbdSupervisor<Record>>(cluster_, cfg.supervisor);
  }

  const net::FailureDetector* detector() const { return detector_.get(); }
  const AbdSupervisor<Record>* supervisor() const { return supervisor_.get(); }

  /// Cluster-level self-healing counters (0 when the layer is off).
  std::uint64_t breaker_skips() const { return round_stats().breaker_skips; }
  std::uint64_t fail_fasts() const { return round_stats().fail_fasts; }
  std::uint64_t epoch(ProcessId i) const { return cluster_.epoch(i); }

 private:
  AbdCluster<Record> cluster_;
  Snapshot snapshot_;
  // Destruction order matters: supervisor_ and detector_ hold references
  // into cluster_, and members are destroyed in reverse declaration order,
  // so they are torn down (threads joined) before cluster_ dies.
  std::unique_ptr<net::FailureDetector> detector_;
  std::unique_ptr<AbdSupervisor<Record>> supervisor_;
};

}  // namespace asnap::abd
