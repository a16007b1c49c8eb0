// chaos_run: named self-healing chaos scenarios over the message-passing
// snapshot (see src/chaos/). Exits nonzero when a run records any safety
// violation or liveness flag, so CI and scripts/run_experiments.sh can gate
// on it directly.
//
// Scenarios:
//   mixed           crash/recover + partition/heal + message loss against a
//                   self-healing cluster (the acceptance scenario).
//   breaker-ab      the same outage run twice, circuit breaker off then on,
//                   to measure what the breaker buys (E10).
//   broken-breaker  NEGATIVE control: the unsafe_shrink_quorum misfeature
//                   lets an isolated node "commit" without a majority; the
//                   linearizability checker must catch it, so this scenario
//                   is expected to FAIL (ctest wraps it in WILL_FAIL).
//   broken-fastread NEGATIVE control: unsafe_always_fast_read skips the
//                   read write-back unconditionally (the exact mutant the
//                   fast-read stability evidence exists to prevent). A
//                   deterministic partition schedule around a timed-out
//                   write produces a new/old read inversion that
//                   check_single_writer must reject, so this scenario is
//                   expected to FAIL (ctest wraps it in WILL_FAIL).
//   real            REAL PROCESSES: spawn five abd_replicad daemons on
//                   127.0.0.1 sockets, run the checked chaos workload over
//                   Figure 2 on the daemons' registers (abd::SocketSnapshot)
//                   while injecting kill -9 and SIGSTOP faults on the live
//                   PIDs (majority-safe, seeded), restart victims via the
//                   process supervisor, then audit durability (every acked
//                   update still visible) and run the exact linearizability
//                   checker.
//   net             the real cluster behind a net::ChaosProxy: ambient
//                   seeded loss/delay/jitter/reorder on every client<->
//                   replica link plus bounded bursts of asymmetric
//                   blackholes, link flaps, mid-frame stalls, bandwidth
//                   throttling and connection resets — all majority-safe.
//                   Ends with heal + liveness watchdog (operations must
//                   complete once the network is perfect again), the
//                   durability audit and the exact linearizability check.
//   net+kill        `net` composed with the kill -9 / SIGSTOP injector:
//                   wire faults and process faults under one shared
//                   majority rail.
//   net-split       NEGATIVE control: minority-only connectivity (a
//                   majority of links blackholed both ways) held for the
//                   whole run with the safety rail off and no heal. The
//                   liveness watchdog and durability audit must flag it,
//                   so ctest wraps it in WILL_FAIL.
//
// Every scenario runs five nodes. Latencies are those of the ops invoked
// while faults were being injected, not of the healed tail.
//
// Usage:
//   chaos_run [--scenario mixed|breaker-ab|broken-breaker|broken-fastread|
//              real|net|net+kill|net-split]
//             [--seconds S] [--seed K] [--crash-rate HZ] [--loss P]
//             [--fast on|off] [--trace out.json|out.jsonl]
//   real/net-scenario extras:
//             [--writers W] [--think-ms T] [--replicad PATH]
//   net-scenario extras:
//             [--delay-ms D] [--jitter-ms J] [--reorder P]
//             [--partition on|off]  (include blackhole/flap bursts)
// An unknown argument exits 2. A real-process run keeps its state dir
// (WALs and daemon logs, under $TMPDIR or /tmp) when its verdict is FAIL.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "abd/socket_snapshot.hpp"
#include "bench_util.hpp"
#include "chaos/orchestrator.hpp"
#include "chaos/process_orchestrator.hpp"
#include "net/chaos_proxy.hpp"
#include "chaos/schedule.hpp"
#include "common/rng.hpp"
#include "lin/history.hpp"
#include "lin/snapshot_checker.hpp"
#include "net/socket.hpp"
#include "trace/exporter.hpp"
#include "trace/histogram.hpp"

#ifndef ASNAP_REPLICAD_PATH
#define ASNAP_REPLICAD_PATH ""
#endif

namespace {

using namespace asnap;

constexpr std::size_t kNodes = 5;

std::chrono::microseconds seconds_us(double s) {
  return std::chrono::microseconds(static_cast<std::int64_t>(s * 1e6));
}

double mean_us(const std::vector<std::chrono::nanoseconds>& xs) {
  if (xs.empty()) return 0.0;
  double total = 0.0;
  for (const auto x : xs) {
    total += std::chrono::duration<double, std::micro>(x).count();
  }
  return total / static_cast<double>(xs.size());
}

struct Cli {
  std::string scenario = "mixed";
  double seconds = 3.0;
  std::uint64_t seed = 1;
  double crash_rate = 2.0;
  double loss = 0.10;
  bool fast = true;  ///< one-round fast reads (AbdConfig::fast_reads)
  std::string trace_path;
  // --scenario real extras:
  std::size_t writers = 3;
  double think_ms = 2.0;
  std::string replicad = ASNAP_REPLICAD_PATH;
  // --scenario net extras (ambient wire faults + burst selection):
  double delay_ms = 0.0;
  double jitter_ms = 0.0;
  double reorder = 0.0;
  bool partition = true;  ///< include blackhole/flap bursts
};

/// Which network adversary run_real composes with the process one.
enum class NetMode {
  kNone,   ///< --scenario real: perfect wire, kill -9/SIGSTOP only
  kNet,    ///< --scenario net: wire faults only
  kNetKill,  ///< --scenario net+kill: wire faults + kill -9/SIGSTOP
  kSplit,  ///< --scenario net-split: negative control, rail off, no heal
};

/// The "== label ==" header and the workload line of a report.
void print_workload(const std::string& label, const chaos::RunReport& r) {
  std::printf("== %s ==\n", label.c_str());
  std::printf(
      "  workload    : %llu updates, %llu scans ok; %llu failed update "
      "attempts, %llu failed scans, %llu indeterminate (history %zu ops)\n",
      (unsigned long long)r.updates_ok, (unsigned long long)r.scans_ok,
      (unsigned long long)r.failed_update_attempts,
      (unsigned long long)r.failed_scans,
      (unsigned long long)r.indeterminate_updates, r.history_ops);
}

/// The rounds and latency lines and the verdict of a report.
void print_verdict(const chaos::RunReport& r) {
  std::printf(
      "  rounds      : %llu protocol rounds, %llu fast reads, %llu fast "
      "fallbacks\n",
      (unsigned long long)r.rounds.protocol_rounds,
      (unsigned long long)r.rounds.fast_reads,
      (unsigned long long)r.rounds.fast_fallbacks);
  std::printf(
      "  latency     : update p50 %.1f us p99 %.1f us | scan p50 %.1f us "
      "p99 %.1f us\n",
      r.update_latency_ns.percentile(0.50) / 1e3,
      r.update_latency_ns.percentile(0.99) / 1e3,
      r.scan_latency_ns.percentile(0.50) / 1e3,
      r.scan_latency_ns.percentile(0.99) / 1e3);
  if (r.violations.empty()) {
    std::printf("  verdict     : PASS (no violations)\n");
  } else {
    std::printf("  verdict     : FAIL (%zu violation(s))\n",
                r.violations.size());
    for (const std::string& v : r.violations) {
      std::printf("    - %s\n", v.c_str());
    }
  }
}

void print_report(const std::string& label, const chaos::RunReport& r) {
  print_workload(label, r);
  std::printf(
      "  injection   : %llu crashes, %llu partitions\n",
      (unsigned long long)r.crashes_injected,
      (unsigned long long)r.partitions_injected);
  std::printf(
      "  healing     : %llu suspicions, %llu trusts, %llu recoveries "
      "(%llu failed attempts); detection mean %.1f us, recovery mean %.1f us\n",
      (unsigned long long)r.suspicions, (unsigned long long)r.trusts,
      (unsigned long long)r.recoveries,
      (unsigned long long)r.failed_recovery_attempts,
      mean_us(r.detection_latencies), mean_us(r.recovery_latencies));
  std::printf(
      "  degradation : %llu breaker skips, %llu fail-fasts, %llu stale-epoch "
      "replies, %llu round timeouts, %llu retransmits\n",
      (unsigned long long)r.rounds.breaker_skips,
      (unsigned long long)r.rounds.fail_fasts,
      (unsigned long long)r.rounds.stale_epoch_replies,
      (unsigned long long)r.rounds.round_timeouts,
      (unsigned long long)r.rounds.retransmits);
  print_verdict(r);
}

/// The fields every chaos JSON line carries: the run's identity, its
/// workload outcome and latencies, and the ABD round counters.
void workload_fields(bench::JsonWriter& j, const Cli& cli,
                     const std::string& scenario, const chaos::RunReport& r) {
  j.field("scenario", scenario)
      .field("nodes", (std::uint64_t)kNodes)
      .field("seconds", cli.seconds)
      .field("seed", (std::uint64_t)cli.seed)
      .field("crash_rate", cli.crash_rate)
      .field("violations", (std::uint64_t)r.violations.size())
      .field("updates_ok", r.updates_ok)
      .field("scans_ok", r.scans_ok)
      .field("failed_update_attempts", r.failed_update_attempts)
      .field("failed_scans", r.failed_scans)
      .field("indeterminate_updates", r.indeterminate_updates)
      .field("update_p50_us", r.update_latency_ns.percentile(0.50) / 1e3)
      .field("update_p99_us", r.update_latency_ns.percentile(0.99) / 1e3)
      .field("scan_p50_us", r.scan_latency_ns.percentile(0.50) / 1e3)
      .field("scan_p99_us", r.scan_latency_ns.percentile(0.99) / 1e3)
      .field("stale_epoch_replies", r.rounds.stale_epoch_replies)
      .field("round_timeouts", r.rounds.round_timeouts)
      .field("fast", cli.fast)
      .field("protocol_rounds", r.rounds.protocol_rounds)
      .field("fast_reads", r.rounds.fast_reads)
      .field("fast_fallbacks", r.rounds.fast_fallbacks);
}

void print_json(const Cli& cli, const std::string& label, bool breaker,
                const chaos::RunReport& r) {
  const std::uint64_t attempts =
      r.updates_ok + r.scans_ok + r.failed_update_attempts + r.failed_scans;
  bench::JsonWriter j("E10-chaos");
  workload_fields(j, cli, label, r);
  j.field("loss", cli.loss)
      .field("breaker", breaker)
      .field("availability",
             attempts == 0 ? 1.0
                           : (double)(r.updates_ok + r.scans_ok) /
                                 (double)attempts)
      .field("crashes", r.crashes_injected)
      .field("partitions", r.partitions_injected)
      .field("suspicions", r.suspicions)
      .field("recoveries", r.recoveries)
      .field("detection_mean_us", mean_us(r.detection_latencies))
      .field("recovery_mean_us", mean_us(r.recovery_latencies))
      .field("breaker_skips", r.rounds.breaker_skips)
      .field("fail_fasts", r.rounds.fail_fasts);
  j.print();
}

chaos::OrchestratorOptions base_options(const Cli& cli) {
  chaos::OrchestratorOptions opt;
  opt.nodes = kNodes;
  opt.seed = cli.seed;
  opt.duration = seconds_us(cli.seconds);
  opt.abd.fast_reads = cli.fast;
  return opt;
}

/// The acceptance scenario: sustained workload under crash/recover,
/// partition/heal and message loss, self-healing on.
int run_mixed(const Cli& cli) {
  chaos::OrchestratorOptions opt = base_options(cli);
  chaos::ChaosProfile profile;
  profile.duration = opt.duration;
  profile.crash_rate_hz = cli.crash_rate;
  profile.plan.drop_prob = cli.loss;
  opt.schedule = chaos::random_schedule(kNodes, profile, cli.seed);
  const chaos::RunReport r = chaos::run(opt);
  print_report("mixed", r);
  print_json(cli, "mixed", /*breaker=*/true, r);
  return r.ok() ? 0 : 1;
}

/// One node down for nearly the whole run (supervisor held off); measure
/// client latency with the breaker off, then on. The breaker arm should
/// show a much lower p99: rounds stop waiting out retransmit timers aimed
/// at the dead replica.
int run_breaker_ab(const Cli& cli) {
  int rc = 0;
  for (const bool breaker : {false, true}) {
    chaos::OrchestratorOptions opt = base_options(cli);
    opt.abd.breaker.enabled = breaker;
    // Detector stays on (the breaker needs it); the supervisor is parked
    // past the end of the run so the outage actually persists.
    opt.supervisor.restart_delay = opt.duration * 2;
    const auto victim = static_cast<net::NodeId>(kNodes - 1);
    chaos::Action loss;
    loss.kind = chaos::ActionKind::kSetFaultPlan;
    loss.plan.drop_prob = cli.loss;
    chaos::Action crash;
    crash.kind = chaos::ActionKind::kCrash;
    crash.at = std::chrono::milliseconds(10);
    crash.node = victim;
    chaos::Action restart;  // let convergence succeed at the very end
    restart.kind = chaos::ActionKind::kRecover;
    restart.at = opt.duration;
    restart.node = victim;
    opt.schedule.actions = {loss, crash, restart};
    const chaos::RunReport r = chaos::run(opt);
    print_report(breaker ? "breaker-ab (breaker on)"
                         : "breaker-ab (breaker off)",
                 r);
    print_json(cli, "breaker-ab", breaker, r);
    if (!r.ok()) rc = 1;
  }
  return rc;
}

/// NEGATIVE control. unsafe_shrink_quorum lets a partitioned-away node
/// shrink its quorum below a majority instead of failing fast, which is
/// exactly the split-brain the breaker must never cause. The isolated
/// node's updates and scans "succeed" against itself alone, the survivors
/// never see them, and check_single_writer reports the stale reads. A
/// passing run here would mean the checkers lost their teeth.
int run_broken_breaker(const Cli& cli) {
  chaos::OrchestratorOptions opt = base_options(cli);
  opt.abd.breaker.unsafe_shrink_quorum = true;
  chaos::Action part;
  part.kind = chaos::ActionKind::kPartition;
  part.at = opt.duration / 10;
  part.groups = {{0}, {1, 2, 3, 4}};
  chaos::Action heal;
  heal.kind = chaos::ActionKind::kHeal;
  heal.at = opt.duration * 9 / 10;
  opt.schedule.actions = {part, heal};
  const chaos::RunReport r = chaos::run(opt);
  print_report("broken-breaker (negative control)", r);
  print_json(cli, "broken-breaker", true, r);
  if (r.ok()) {
    std::printf(
        "broken-breaker: expected the checkers to catch the unsafe quorum "
        "shrink, but the run passed\n");
  }
  return r.ok() ? 0 : 1;
}

/// NEGATIVE control for the fast-read path. unsafe_always_fast_read skips
/// the read write-back even when the query quorum DISAGREED on the best
/// timestamp — exactly the mutant the stability evidence exists to reject.
/// A deterministic schedule makes the skip observable as a new/old read
/// inversion:
///
///   1. write A = Tag{0,1} completes (and is confirmed) everywhere;
///   2. links 0-1 and 0-2 are cut, so write B = Tag{0,2} times out having
///      reached only replica 0 — an INDETERMINATE write, no confirm;
///   3. reader at node 1 (quorum {0,1}) sees {ts=2, ts=1}: disagreement and
///      no confirmed bit, yet the mutant returns B without writing back;
///   4. reader at node 2 (quorum {1,2}, link to 0 cut) then sees ts=1
///      unanimously and returns A — a read AFTER a read of B returned the
///      older A.
///
/// check_single_writer must reject the history (ctest wraps this scenario
/// in WILL_FAIL). With the real stability rule, step 3 falls back to the
/// write-back and step 4 returns B — the fault-matrix tests pin that.
int run_broken_fastread(const Cli& cli) {
  using Tag = lin::Tag;
  abd::AbdConfig config;
  config.unsafe_always_fast_read = true;
  // Short deadline so the partitioned write in step 2 times out quickly;
  // healthy in-process rounds finish in microseconds, so reads are unhurt.
  config.op_deadline = std::chrono::milliseconds(50);
  abd::AbdCluster<Tag> cluster(3, 1, Tag{}, cli.seed, config);
  lin::Recorder recorder(/*num_words=*/1);
  std::vector<std::string> violations;
  // A recorded read of register 0 by `node`; a failed read is a setup error.
  const auto read_at = [&](ProcessId node, const char* setup_error) {
    const lin::Time inv = recorder.tick();
    const auto got = cluster.try_read(0, node);
    const lin::Time res = recorder.tick();
    if (!got.has_value()) {
      violations.push_back(setup_error);
    } else {
      recorder.add_scan(node, {*got}, inv, res);
    }
  };

  {  // step 1: a confirmed base value
    const lin::Time inv = recorder.tick();
    const abd::OpStatus st = cluster.try_write(0, 0, Tag{0, 1});
    const lin::Time res = recorder.tick();
    if (st != abd::OpStatus::kOk) {
      violations.push_back("setup: base write failed");
    }
    recorder.add_update(0, 0, Tag{0, 1}, inv, res);
  }

  // step 2: isolate the writer from the rest; the write reaches only the
  // writer's own replica and times out — indeterminate, never confirmed.
  cluster.cut_link(0, 1);
  cluster.cut_link(0, 2);
  const lin::Time b_inv = recorder.tick();
  if (cluster.try_write(0, 0, Tag{0, 2}) == abd::OpStatus::kOk) {
    violations.push_back("setup: partitioned write unexpectedly completed");
  }

  // step 3: node 1 reads with quorum {0,1} (link 1-2 cut).
  cluster.restore_link(0, 1);
  cluster.restore_link(0, 2);
  cluster.cut_link(1, 2);
  read_at(1, "setup: first read failed");

  // step 4: node 2 reads with quorum {1,2} (links to 0 cut). The mutant
  // never wrote ts=2 back, so both replies are the old ts=1.
  cluster.restore_link(1, 2);
  cluster.cut_link(0, 1);
  cluster.cut_link(0, 2);
  read_at(2, "setup: second read failed");

  // The timed-out write is indeterminate: possibly applied any time up to
  // now (the Jepsen :info convention used by every harness in this repo).
  recorder.add_update(0, 0, Tag{0, 2}, b_inv, recorder.tick());

  const lin::History history = recorder.take();
  if (const auto violation = lin::check_single_writer(history)) {
    violations.push_back("linearizability: " + *violation);
  }

  std::printf("== broken-fastread (negative control) ==\n");
  std::printf("  fast reads  : %llu (mutant: write-back always skipped)\n",
              (unsigned long long)cluster.fast_reads());
  if (violations.empty()) {
    std::printf(
        "  verdict     : PASS — but the checker was EXPECTED to catch the "
        "unconditional write-back skip\n");
  } else {
    std::printf("  verdict     : FAIL (%zu violation(s), as intended)\n",
                violations.size());
    for (const std::string& v : violations) {
      std::printf("    - %s\n", v.c_str());
    }
  }
  bench::JsonWriter j("E16-fastread-negative");
  j.field("scenario", std::string("broken-fastread"))
      .field("seed", (std::uint64_t)cli.seed)
      .field("violations", (std::uint64_t)violations.size())
      .field("fast_reads", cluster.fast_reads())
      .field("history_ops", (std::uint64_t)history.total_ops());
  j.print();
  return violations.empty() ? 0 : 1;
}

// --- --scenario real: kill -9 chaos against live abd_replicad processes ----

/// Aggregate outcome of one real-cluster run: the workload outcome, the
/// socket clients' rounds and the verdicts in chaos::RunReport's terms (its
/// SimNetwork-only counters stay zero), plus the process/wire injectors.
struct RealReport {
  chaos::RunReport run;
  std::uint64_t reconnects = 0;
  std::size_t processes = 0;              ///< snapshot processes (writers)
  std::uint64_t max_double_collects = 0;  ///< worst scan, all processes
  chaos::ProcessCluster::Report proc;
  // Net-scenario only: proxy-side injected-fault totals over all links,
  // plus how many fault bursts the driver fired.
  bool net_mode = false;
  net::LinkStats net;
  std::uint64_t net_bursts = 0;
  bool ok() const { return run.ok(); }
  double restart_mean_ms() const {
    double total = 0.0;
    for (const double x : proc.restart_latencies_ms) total += x;
    return proc.restart_latencies_ms.empty()
               ? 0.0
               : total / (double)proc.restart_latencies_ms.size();
  }
};

/// The last `k` lines of a text file (fewer if it is shorter or missing).
std::vector<std::string> last_lines(const std::string& path, std::size_t k) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    lines.push_back(std::move(line));
    if (lines.size() > k) lines.erase(lines.begin());
  }
  return lines;
}

std::vector<net::Endpoint> probe_free_endpoints(std::size_t n) {
  // Bind port 0, record the kernel's pick, release. The small window before
  // the daemons rebind is acceptable on a loopback test host.
  std::vector<net::Endpoint> eps;
  std::vector<net::Listener> held;
  for (std::size_t i = 0; i < n; ++i) {
    auto lst = net::Listener::open({"127.0.0.1", 0});
    if (!lst.valid()) return {};
    eps.push_back({"127.0.0.1", lst.bound_port()});
    held.push_back(std::move(lst));
  }
  return eps;
}

void print_real_report(const std::string& label, const RealReport& r) {
  print_workload(label, r.run);
  std::printf("  injection   : %llu kill -9, %llu SIGSTOP stalls\n",
              (unsigned long long)r.proc.kills,
              (unsigned long long)r.proc.stalls);
  if (r.net_mode) {
    std::printf(
        "  wire faults : %llu bursts; %llu dropped, %llu delayed, %llu "
        "reordered, %llu stalled, %llu resets, %llu blackholed, %llu "
        "throttle pauses (%llu frames forwarded)\n",
        (unsigned long long)r.net_bursts, (unsigned long long)r.net.dropped,
        (unsigned long long)r.net.delayed, (unsigned long long)r.net.reordered,
        (unsigned long long)r.net.stalled, (unsigned long long)r.net.resets,
        (unsigned long long)r.net.blackholed,
        (unsigned long long)r.net.throttle_pauses,
        (unsigned long long)r.net.forwarded);
  }
  std::printf("  supervisor  : %llu restarts, mean respawn %.1f ms\n",
              (unsigned long long)r.proc.restarts, r.restart_mean_ms());
  std::printf(
      "  degradation : %llu retransmit waves, %llu dup replies, %llu "
      "stale-epoch replies, %llu round timeouts, %llu reconnects\n",
      (unsigned long long)r.run.rounds.retransmits,
      (unsigned long long)r.run.rounds.dup_replies,
      (unsigned long long)r.run.rounds.stale_epoch_replies,
      (unsigned long long)r.run.rounds.round_timeouts,
      (unsigned long long)r.reconnects);
  std::printf("  scans       : at most %llu double collects (bound n+1 = %zu)\n",
              (unsigned long long)r.max_double_collects, r.processes + 1);
  print_verdict(r.run);
}

void print_real_json(const Cli& cli, const std::string& scenario,
                     const RealReport& r) {
  bench::JsonWriter j(r.net_mode ? "E14-netchaos" : "E12-cluster");
  workload_fields(j, cli, scenario, r.run);
  j.field("writers", (std::uint64_t)cli.writers)
      .field("kills", r.proc.kills)
      .field("stalls", r.proc.stalls)
      .field("restarts", r.proc.restarts)
      .field("restart_mean_ms", r.restart_mean_ms())
      .field("max_double_collects", r.max_double_collects)
      .field("retransmit_waves", r.run.rounds.retransmits)
      .field("reconnects", r.reconnects);
  if (r.net_mode) {
    j.field("loss", cli.loss)
        .field("delay_ms", cli.delay_ms)
        .field("jitter_ms", cli.jitter_ms)
        .field("reorder", cli.reorder)
        .field("partition", cli.partition)
        .field("net_bursts", r.net_bursts)
        .field("net_forwarded", r.net.forwarded)
        .field("net_dropped", r.net.dropped)
        .field("net_delayed", r.net.delayed)
        .field("net_reordered", r.net.reordered)
        .field("net_stalled", r.net.stalled)
        .field("net_resets", r.net.resets)
        .field("net_blackholed", r.net.blackholed)
        .field("net_throttle_pauses", r.net.throttle_pauses);
  }
  j.print();
}

/// Shared runner for every real-process scenario. `mode` selects the
/// adversary: process faults only (kNone), wire faults via net::ChaosProxy
/// (kNet), both (kNetKill), or the negative minority-connectivity control
/// (kSplit — safety rail OFF, no heal, MUST end in violations).
int run_real(const Cli& cli, NetMode mode) {
  using SClock = std::chrono::steady_clock;
  namespace fs = std::filesystem;
  const std::string label = mode == NetMode::kNone ? "real"
                            : mode == NetMode::kNet ? "net"
                            : mode == NetMode::kNetKill ? "net+kill"
                                                        : "net-split";
  RealReport report;
  report.net_mode = mode != NetMode::kNone;
  report.processes = cli.writers;
  const auto fail = [&](const std::string& why) {
    report.run.violations.push_back(why);
    print_real_report(label, report);
    print_real_json(cli, label, report);
    return 1;
  };

  if (cli.replicad.empty() || !fs::exists(cli.replicad)) {
    return fail("setup: abd_replicad binary not found (pass --replicad)");
  }
  const std::size_t n = kNodes;
  const std::size_t writers = cli.writers;
  const auto endpoints = probe_free_endpoints(n);
  if (endpoints.size() != n) return fail("setup: could not probe free ports");

  // Under $TMPDIR when it is set, else /tmp.
  std::error_code tmp_ec;
  std::string tmpl =
      (fs::temp_directory_path(tmp_ec) / "asnap_real_XXXXXX").string();
  if (tmp_ec || ::mkdtemp(tmpl.data()) == nullptr) {
    return fail("setup: mkdtemp failed");
  }
  const std::string state_dir = tmpl;

  chaos::ProcessClusterConfig cluster_config;
  cluster_config.replicad_path = cli.replicad;
  cluster_config.state_dir = state_dir;
  cluster_config.endpoints = endpoints;
  cluster_config.regs = writers;
  cluster_config.restart_delay = std::chrono::milliseconds(150);
  cluster_config.proxy = report.net_mode;
  cluster_config.proxy_seed = cli.seed ^ 0xAD7E53EEDull;
  chaos::ProcessCluster cluster(cluster_config);
  if (!cluster.start() || !cluster.wait_ready(std::chrono::seconds(10))) {
    // The daemon logs are the only evidence of why a replica never printed
    // READY (a port taken between the probe and the bind, say): quote their
    // tails and keep the state dir instead of deleting it.
    std::string why =
        "setup: cluster did not come up; state dir kept: " + state_dir;
    for (std::size_t i = 0; i < n; ++i) {
      const std::string log =
          state_dir + "/replica-" + std::to_string(i) + "/daemon.log";
      why += "\n      " + log + ":";
      for (const std::string& line : last_lines(log, 5)) {
        why += "\n        | " + line;
      }
    }
    return fail(why);
  }
  // Clients dial the proxy in net modes; the daemons peer directly.
  const std::vector<net::Endpoint> client_eps = cluster.client_endpoints();
  net::ChaosProxy* proxy = cluster.proxy();

  // Ambient wire faults for the whole run (the loss x delay floor the E14
  // sweep varies); bursts below layer the acute faults on top.
  net::LinkFaults ambient;
  if (report.net_mode) {
    ambient.drop_prob = cli.loss;
    ambient.delay = std::chrono::microseconds(
        static_cast<std::int64_t>(cli.delay_ms * 1e3));
    ambient.jitter = std::chrono::microseconds(
        static_cast<std::int64_t>(cli.jitter_ms * 1e3));
    ambient.reorder_prob = cli.reorder;
    proxy->set_all(ambient);
  }
  if (mode == NetMode::kSplit) {
    // Minority-only connectivity, rail OFF: blackhole a MAJORITY of links
    // in both directions for the entire run and never heal. ABD must not
    // complete quorum operations, so the watchdog/audit below must flag
    // the run (ctest wraps this scenario in WILL_FAIL).
    const std::size_t cut = n / 2 + 1;
    for (std::size_t i = 0; i < cut; ++i) {
      proxy->blackhole(i, net::ChaosProxy::kToReplica, true);
      proxy->blackhole(i, net::ChaosProxy::kToClient, true);
    }
  }

  // Figure 2 over the daemons' registers: process w is writer w, and its
  // client dials through the proxy in net modes.
  abd::AbdConfig config;
  config.initial_rto = std::chrono::microseconds(500);
  config.op_deadline = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::seconds(3));
  config.fast_reads = cli.fast;
  abd::SocketSnapshot snap(client_eps, writers, /*client_id_base=*/100,
                           config);
  lin::Recorder recorder(writers);
  std::atomic<bool> stop{false};
  std::atomic<bool> injecting{true};
  std::vector<std::unique_ptr<chaos::WorkerState>> workers;
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < writers; ++w) {
    workers.push_back(std::make_unique<chaos::WorkerState>());
  }
  const chaos::WorkerPacing pacing{
      std::chrono::milliseconds(1),
      std::chrono::microseconds(static_cast<std::int64_t>(cli.think_ms * 1e3))};
  for (std::size_t w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      chaos::worker_loop(snap, recorder, *workers[w],
                         static_cast<ProcessId>(w), pacing, stop, injecting);
    });
  }
  const auto ops_done = [&] {
    std::uint64_t done = 0;
    for (const auto& ws : workers) {
      done += ws->updates_ok.load(std::memory_order_relaxed) +
              ws->scans_ok.load(std::memory_order_relaxed);
    }
    return done;
  };

  // Seeded majority-safe fault injection. One fault (or burst) at a time;
  // never let down + stalled + net-impaired replicas reach a majority
  // (ABD's liveness precondition — chaos/schedule.hpp's rail, enforced at
  // runtime here because restart timing is the kernel's, not ours). The
  // kSplit negative control deliberately skips this loop: its partition is
  // static and rail-free.
  Rng rng(cli.seed ^ 0x9EA1C4A0ull);
  const std::size_t max_down = (n - 1) / 2;
  const auto run_end = SClock::now() + seconds_us(cli.seconds);
  // One bounded wire-fault burst; returns when the link is restored.
  const auto net_burst = [&](std::size_t victim) {
    const auto window = std::chrono::milliseconds(150 + rng.below(250));
    const auto dir = rng.chance(0.5) ? net::ChaosProxy::kToReplica
                                     : net::ChaosProxy::kToClient;
    // partition=off restricts the repertoire to faults that keep the link
    // logically connected (the E14 sweep's partition dimension).
    const std::uint64_t kinds = cli.partition ? 5 : 3;
    switch (rng.below(kinds)) {
      case 0: {  // mid-frame stall burst: exercises kMalformed discipline
        net::LinkFaults f = ambient;
        f.stall_prob = 0.5;
        f.stall = std::chrono::milliseconds(300);
        proxy->set_faults(victim, dir, f);
        std::this_thread::sleep_for(window);
        proxy->set_faults(victim, dir, ambient);
        break;
      }
      case 1: {  // bandwidth throttle burst
        net::LinkFaults f = ambient;
        f.throttle_bytes_per_sec = 16 * 1024;
        proxy->set_faults(victim, dir, f);
        std::this_thread::sleep_for(window);
        proxy->set_faults(victim, dir, ambient);
        break;
      }
      case 2:  // connection resets
        proxy->kill_connections(victim);
        break;
      case 3:  // asymmetric partition: one direction dead, the other live
        proxy->blackhole(victim, dir, true);
        std::this_thread::sleep_for(window);
        proxy->blackhole(victim, dir, false);
        break;
      case 4:  // link flapping (reconnect-backoff workout)
        proxy->flap(victim, std::chrono::milliseconds(40),
                    std::chrono::milliseconds(60), true);
        std::this_thread::sleep_for(window);
        proxy->flap(victim, {}, {}, false);
        break;
    }
    ++report.net_bursts;
  };
  while (mode != NetMode::kSplit && SClock::now() < run_end) {
    const double base_ms = 1000.0 / (cli.crash_rate > 0 ? cli.crash_rate : 1);
    const auto wait = std::chrono::microseconds(static_cast<std::int64_t>(
        base_ms * (0.5 + rng.uniform01()) * 1e3));
    std::this_thread::sleep_for(std::min(
        std::chrono::duration_cast<std::chrono::microseconds>(wait),
        std::chrono::duration_cast<std::chrono::microseconds>(
            run_end - SClock::now() + std::chrono::microseconds(1))));
    if (SClock::now() >= run_end) break;
    if (cluster.unavailable() >= max_down) continue;  // majority guard
    const std::size_t victim = rng.below(n);
    const bool process_fault =
        mode == NetMode::kNone || (mode == NetMode::kNetKill && rng.chance(0.4));
    if (!process_fault && report.net_mode) {
      net_burst(victim);
      continue;
    }
    if (!cluster.running(victim)) continue;
    if (rng.chance(0.3)) {
      // Freeze, hold, thaw: the peers see silence, not EOF.
      if (cluster.stall(victim)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        cluster.resume(victim);
      }
    } else {
      cluster.kill9(victim);  // supervisor restarts it
    }
  }
  if (mode == NetMode::kSplit) {
    std::this_thread::sleep_for(seconds_us(cli.seconds));
  }

  // Injection over: ops invoked from here on are not timed. Heal the wire
  // (except the negative control, whose partition is the point), then
  // convergence: every replica back up (supervisor + WAL + resync) and no
  // link impaired...
  injecting.store(false, std::memory_order_relaxed);
  if (report.net_mode && mode != NetMode::kSplit) proxy->heal();
  // The negative control cannot converge by construction; shorter budgets
  // keep its (expected) failure fast.
  const auto check_budget =
      mode == NetMode::kSplit ? std::chrono::seconds(2) : std::chrono::seconds(10);
  const auto converge_by = SClock::now() + check_budget;
  while (cluster.unavailable() > 0 && SClock::now() < converge_by) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (cluster.unavailable() > 0) {
    report.run.violations.push_back(
        "liveness: " + std::to_string(cluster.unavailable()) +
        " replica(s) still down after the convergence timeout");
  }
  // ...then the liveness watchdog: with the network perfect again, the
  // workload must complete operations. Waits up to its own deadline so a
  // slow-but-live cluster is not a false alarm.
  {
    const std::uint64_t before = ops_done();
    const auto watchdog_by =
        SClock::now() +
        (mode == NetMode::kSplit ? std::chrono::seconds(2)
                                 : std::chrono::seconds(5));
    bool progressed = false;
    while (SClock::now() < watchdog_by) {
      if (ops_done() > before) {
        progressed = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!progressed) {
      report.run.violations.push_back(
          "liveness: no operation completed after the network healed "
          "(watchdog)");
    }
  }
  // ...then a healthy tail so pending same-tag retries resolve.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();

  chaos::finish_workers(workers, recorder, report.run);

  // Durability audit: with the cluster healthy again, every acknowledged
  // update must be visible — the WAL + majority-resync acceptance check.
  // The audit scan is one more Figure 2 scan (as process 0, whose worker
  // has stopped), through the proxy in net modes: durability must hold
  // end-to-end over the healed wire, and the negative control must SEE its
  // partition rather than audit around it.
  if (const auto view = snap.try_scan(0); !view.has_value()) {
    report.run.violations.push_back(
        "durability: audit scan found no majority (quorum timeout)");
  } else {
    for (std::size_t w = 0; w < writers; ++w) {
      const std::uint64_t acked =
          workers[w]->last_acked_seq.load(std::memory_order_relaxed);
      if ((*view)[w].seq < acked) {
        report.run.violations.push_back(
            "durability: reg " + std::to_string(w) +
            " lost an acked update (seq " + std::to_string((*view)[w].seq) +
            " < acked seq " + std::to_string(acked) + ")");
      }
    }
  }
  report.run.rounds = snap.round_stats();
  report.reconnects = snap.reconnects();
  for (std::size_t w = 0; w < writers; ++w) {
    report.max_double_collects =
        std::max(report.max_double_collects,
                 snap.stats(static_cast<ProcessId>(w)).max_double_collects);
  }
  report.proc = cluster.report();
  if (report.net_mode) {
    for (std::size_t i = 0; i < n; ++i) {
      const net::LinkStats s = proxy->stats(i);
      report.net.forwarded += s.forwarded;
      report.net.dropped += s.dropped;
      report.net.delayed += s.delayed;
      report.net.reordered += s.reordered;
      report.net.stalled += s.stalled;
      report.net.resets += s.resets;
      report.net.blackholed += s.blackholed;
      report.net.throttle_pauses += s.throttle_pauses;
    }
  }

  const lin::History history = recorder.take();
  report.run.history_ops = history.total_ops();
  if (const auto violation = lin::check_single_writer(history)) {
    report.run.violations.push_back("linearizability: " + *violation);
  }

  // A failed run keeps its WALs and daemon logs as evidence.
  cluster.stop();
  if (report.ok()) {
    std::error_code ec;
    fs::remove_all(state_dir, ec);
  } else {
    std::printf("  state kept  : %s\n", state_dir.c_str());
  }
  print_real_report(label, report);
  print_real_json(cli, label, report);
  return report.ok() ? 0 : 1;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: chaos_run [--scenario mixed|breaker-ab|broken-breaker|\n"
      "                  broken-fastread|real|net|net+kill|net-split]\n"
      "                 [--seconds S] [--seed K] [--crash-rate HZ] [--loss P]\n"
      "                 [--fast on|off] [--trace out.json|out.jsonl]\n"
      "       real/net: [--writers W] [--think-ms T] [--replicad PATH]\n"
      "       net:      [--delay-ms D] [--jitter-ms J] [--reorder P]\n"
      "                 [--partition on|off]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using bench::consume_flag;
  const auto real = [&](const char* flag, const char* fallback) {
    return std::atof(consume_flag(argc, argv, flag, fallback).c_str());
  };
  const auto on = [&](const char* flag) {
    return consume_flag(argc, argv, flag, "on") != std::string("off");
  };
  Cli cli;
  cli.scenario = consume_flag(argc, argv, "--scenario", cli.scenario);
  cli.seconds = real("--seconds", "3");
  cli.seed = static_cast<std::uint64_t>(
      std::atoll(consume_flag(argc, argv, "--seed", "1").c_str()));
  cli.crash_rate = real("--crash-rate", "2");
  cli.loss = real("--loss", "0.1");
  cli.fast = on("--fast");
  cli.trace_path = consume_flag(argc, argv, "--trace", "");
  cli.writers = static_cast<std::size_t>(
      std::atoi(consume_flag(argc, argv, "--writers", "3").c_str()));
  cli.think_ms = real("--think-ms", "2");
  cli.replicad = consume_flag(argc, argv, "--replicad", cli.replicad);
  cli.delay_ms = real("--delay-ms", "0");
  cli.jitter_ms = real("--jitter-ms", "0");
  cli.reorder = real("--reorder", "0");
  cli.partition = on("--partition");
  if (argc > 1) {
    std::fprintf(stderr, "chaos_run: unknown argument '%s'\n", argv[1]);
    return usage();
  }
  if (cli.seconds <= 0) {
    std::fprintf(stderr, "chaos_run: need --seconds > 0\n");
    return 2;
  }
  const bool process_scenario =
      cli.scenario == "real" || cli.scenario == "net" ||
      cli.scenario == "net+kill" || cli.scenario == "net-split";
  if (process_scenario && cli.writers == 0) {
    std::fprintf(stderr, "chaos_run: need --writers >= 1\n");
    return 2;
  }

  trace::Session session(cli.trace_path);
  if (cli.scenario == "mixed") return run_mixed(cli);
  if (cli.scenario == "breaker-ab") return run_breaker_ab(cli);
  if (cli.scenario == "broken-breaker") return run_broken_breaker(cli);
  if (cli.scenario == "broken-fastread") return run_broken_fastread(cli);
  if (cli.scenario == "real") return run_real(cli, NetMode::kNone);
  if (cli.scenario == "net") return run_real(cli, NetMode::kNet);
  if (cli.scenario == "net+kill") return run_real(cli, NetMode::kNetKill);
  if (cli.scenario == "net-split") return run_real(cli, NetMode::kSplit);
  std::fprintf(stderr,
               "chaos_run: unknown --scenario '%s' (mixed, breaker-ab, "
               "broken-breaker, broken-fastread, real, net, net+kill, "
               "net-split)\n",
               cli.scenario.c_str());
  return 2;
}
