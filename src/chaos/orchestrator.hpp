// Chaos orchestrator: sustained snapshot workload + injected failures +
// online invariant monitors.
//
// Runs the Section 6 message-passing snapshot (MessagePassingSnapshot over
// lin::Tag values) with one worker per node issuing degraded-mode updates
// and scans, while a schedule (schedule.hpp) crashes/recovers nodes,
// partitions/heals the network and ramps message loss — and the
// self-healing layer (failure detector, circuit breaker, supervisor)
// repairs the damage. Three verdicts come out:
//
//   * SAFETY — every completed operation is recorded in a lin::Recorder
//     history and the run ends with the exact single-writer linearizability
//     check. Timed-out updates are INDETERMINATE (the value may have
//     reached a majority); workers therefore retry the same tag until it
//     succeeds — sound because the retried write is idempotent at equal
//     tags and tag visibility is monotone (the read write-back) — and an
//     update still unfinished at shutdown is recorded with its response at
//     the final clock tick, i.e. "possibly took effect any time up to the
//     end" (the Jepsen :info convention). Failed scans observed nothing and
//     are dropped.
//   * LIVENESS — a watchdog flags any worker whose node has been healthy
//     (alive, not isolated by the current partition, majority available)
//     for a full stall window yet still has an operation blocked or has
//     completed nothing; and the quiesce phase at the end demands every
//     auto-recovery converge (all nodes alive) once injection stops.
//   * HEALING TELEMETRY — detection latency (crash injection -> first
//     suspicion), recovery latency (supervisor), breaker/epoch counters,
//     per-op latency histograms for availability reporting.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "abd/abd_register.hpp"
#include "abd/supervisor.hpp"
#include "chaos/schedule.hpp"
#include "lin/history.hpp"
#include "net/failure_detector.hpp"
#include "trace/histogram.hpp"

namespace asnap::chaos {

struct OrchestratorOptions {
  std::size_t nodes = 5;
  std::uint64_t seed = 1;
  /// Workload duration; the schedule should fit inside it.
  std::chrono::microseconds duration{std::chrono::seconds(2)};
  Schedule schedule;

  /// Client timing + circuit breaker. Chaos defaults: fast retransmits and
  /// an op deadline far below the watchdog stall window, so a hung
  /// operation is distinguishable from a slow one.
  abd::AbdConfig abd = [] {
    abd::AbdConfig c;
    c.initial_rto = std::chrono::microseconds(200);
    c.max_rto = std::chrono::milliseconds(8);
    c.op_deadline = std::chrono::milliseconds(250);
    c.breaker.enabled = true;
    c.breaker.fail_fast_grace = std::chrono::milliseconds(10);
    return c;
  }();

  /// Failure detector + supervisor; disable to measure the un-healed
  /// baseline or to hand-drive recovery from the schedule alone.
  bool self_healing = true;
  net::DetectorConfig detector;
  /// Chaos default: the "reboot" (restart_delay) takes longer than failure
  /// detection (DetectorConfig::initial_timeout), as it would in a real
  /// deployment — and so the crash -> first-suspicion latency is observable
  /// before the supervisor erases the evidence.
  abd::SupervisorConfig supervisor = [] {
    abd::SupervisorConfig s;
    s.restart_delay = std::chrono::milliseconds(20);
    return s;
  }();

  /// Liveness watchdog: a healthy worker stuck for this long is flagged.
  std::chrono::microseconds watchdog_stall{std::chrono::seconds(2)};
  /// Pause between a worker's failed attempt and its retry.
  std::chrono::microseconds op_retry_pause{200};
  /// After injection stops and the network heals, all nodes must be alive
  /// within this long ("every auto-recovery converges").
  std::chrono::microseconds convergence_timeout{std::chrono::seconds(5)};
  /// Extra tail of healthy-network workload before shutdown, letting
  /// pending same-tag retries resolve so few updates end indeterminate.
  std::chrono::microseconds quiesce_tail{std::chrono::milliseconds(100)};
};

struct RunReport {
  /// Safety violations and liveness flags; empty means the run passed.
  std::vector<std::string> violations;
  bool ok() const { return violations.empty(); }

  // Workload outcome.
  std::uint64_t updates_ok = 0;
  std::uint64_t scans_ok = 0;
  std::uint64_t failed_update_attempts = 0;
  std::uint64_t failed_scans = 0;
  std::uint64_t indeterminate_updates = 0;  ///< unfinished at shutdown
  std::size_t history_ops = 0;

  // Per-operation wall latency of SUCCESSFUL ops invoked while faults were
  // being injected, nanoseconds; an update's latency spans all retries of
  // its tag (availability view, not raw RTT). Ops invoked after the driver
  // healed the cluster (convergence, watchdog, healthy tail) are counted and
  // checked but not timed: they would measure the healed cluster.
  trace::LogHistogram update_latency_ns;
  trace::LogHistogram scan_latency_ns;

  // Self-healing telemetry.
  std::uint64_t crashes_injected = 0;
  std::uint64_t partitions_injected = 0;
  std::uint64_t suspicions = 0;
  std::uint64_t trusts = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t failed_recovery_attempts = 0;
  std::vector<std::chrono::nanoseconds> detection_latencies;
  std::vector<std::chrono::nanoseconds> recovery_latencies;

  // Cluster counters.
  abd::RoundStats rounds;  ///< summed over every client
  std::uint64_t messages_sent = 0;
};

/// Execute one chaos scenario to completion. Deterministically seeded up to
/// thread interleaving (like every other seeded harness in this repo).
RunReport run(const OrchestratorOptions& options);

// --- the checked workload, shared by every chaos harness ---------------------

/// Steady-clock now in nanoseconds, the unit of WorkerState's stamps.
std::uint64_t now_ns();

/// Liveness predicate of the watchdogs: has more than `window` passed since
/// `since`? A stamp later than `now` (stored by a worker after the sweep
/// read its clock) has not, instead of wrapping the unsigned difference.
inline bool past_stall_window(std::uint64_t now, std::uint64_t since,
                              std::uint64_t window) {
  return now > since && now - since > window;
}

/// One worker's outcome. Atomics are readable mid-run (watchdogs); the rest
/// is worker-private until the worker thread is joined.
struct WorkerState {
  std::atomic<std::uint64_t> op_start_ns{0};  ///< 0 = no op in flight
  std::atomic<std::uint64_t> last_success_ns{now_ns()};
  std::atomic<std::uint64_t> updates_ok{0};
  std::atomic<std::uint64_t> scans_ok{0};
  std::atomic<std::uint64_t> failed_update_attempts{0};
  std::atomic<std::uint64_t> failed_scans{0};
  std::atomic<std::uint64_t> last_acked_seq{0};  ///< durability audit input

  bool has_pending = false;  ///< update unfinished at shutdown (indeterminate)
  lin::Tag pending_tag;
  lin::Time pending_inv = 0;

  trace::LogHistogram update_hist;
  trace::LogHistogram scan_hist;
};

/// Pause after a failed attempt, and between operations.
struct WorkerPacing {
  std::chrono::microseconds retry_pause{200};
  std::chrono::microseconds think{0};
};

/// Process p's checked workload against any snapshot with degraded-mode
/// try_update(p, tag) -> bool and try_scan(p) -> optional<view>, until
/// `stop`. Alternates updates and scans. Latency is recorded only for ops
/// invoked while `injecting` is set; the driver clears it when injection
/// ends. Recording convention:
///   * an update retries the SAME tag until it lands: a timed-out attempt
///     is indeterminate, so the logical operation's interval spans every
///     attempt — one recorded op from the first invocation to the
///     successful response. An update still unresolved at `stop` is left in
///     has_pending for record_pending() (possibly applied any time up to
///     the end: the Jepsen :info convention);
///   * a failed scan observed nothing, so it is dropped.
template <typename Backend>
void worker_loop(Backend& snap, lin::Recorder& recorder, WorkerState& ws,
                 ProcessId p, WorkerPacing pacing,
                 const std::atomic<bool>& stop,
                 const std::atomic<bool>& injecting) {
  using Clock = std::chrono::steady_clock;
  const auto since = [](Clock::time_point t) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t)
            .count());
  };
  std::uint64_t seq = 0;
  std::uint64_t op_count = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    const lin::Time inv = recorder.tick();
    const auto started = Clock::now();
    const bool timed = injecting.load(std::memory_order_relaxed);
    ws.op_start_ns.store(now_ns(), std::memory_order_relaxed);
    if (op_count++ % 2 == 0) {
      const lin::Tag tag{p, ++seq};
      while (!snap.try_update(p, tag)) {
        ws.failed_update_attempts.fetch_add(1, std::memory_order_relaxed);
        if (stop.load(std::memory_order_relaxed)) {
          ws.has_pending = true;
          ws.pending_tag = tag;
          ws.pending_inv = inv;
          ws.op_start_ns.store(0, std::memory_order_relaxed);
          return;
        }
        std::this_thread::sleep_for(pacing.retry_pause);
      }
      recorder.add_update(p, p, tag, inv, recorder.tick());
      if (timed) ws.update_hist.record(since(started));
      ws.updates_ok.fetch_add(1, std::memory_order_relaxed);
      ws.last_acked_seq.store(seq, std::memory_order_relaxed);
    } else {
      auto view = snap.try_scan(p);
      if (!view.has_value()) {
        ws.failed_scans.fetch_add(1, std::memory_order_relaxed);
        ws.op_start_ns.store(0, std::memory_order_relaxed);
        std::this_thread::sleep_for(pacing.retry_pause);
        continue;
      }
      recorder.add_scan(p, std::move(*view), inv, recorder.tick());
      if (timed) ws.scan_hist.record(since(started));
      ws.scans_ok.fetch_add(1, std::memory_order_relaxed);
    }
    ws.last_success_ns.store(now_ns(), std::memory_order_relaxed);
    ws.op_start_ns.store(0, std::memory_order_relaxed);
    if (pacing.think.count() > 0) std::this_thread::sleep_for(pacing.think);
  }
}

/// After every worker joined: record each update left unresolved at
/// shutdown with its response at a final clock tick, and fold the workers'
/// counters and latency histograms into `report`.
void finish_workers(const std::vector<std::unique_ptr<WorkerState>>& workers,
                    lin::Recorder& recorder, RunReport& report);

}  // namespace asnap::chaos
