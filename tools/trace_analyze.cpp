// trace_analyze — paper-shaped statistics from a protocol trace.
//
// Ingests a trace written by trace::Session / trace::write_chrome_trace
// (Chrome trace-event JSON) or trace::write_jsonl (one event per line) and
// reports the distributions the paper's arguments are about:
//
//   * double collects per scan against the pigeonhole bound — n+1 for the
//     single-writer algorithms (Lemma 3.4), 2n+1 for the multi-writer
//     algorithm (Lemma 5.2); any traced scan over the bound is a protocol
//     violation and makes the tool exit nonzero;
//   * borrow rate (Observation-2 terminations) vs clean double collects;
//   * scan / update latency percentiles (log-bucketed histograms);
//   * handshake toggle frequency;
//   * ABD retransmissions per quorum round (the robustness tail) and
//     round timeouts;
//   * fault-injector decisions observed (drops / dups / delays);
//   * self-healing: detector verdicts, breaker decisions, recoveries, and
//     the chaos crash -> first suspicion detection latency;
//   * service layer: lease churn, batch sizes, scan-cache hit rate, sheds;
//   * sharded-fabric composition health: per-shard update/scan traffic, the
//     cross-shard global-scan retry rate (generation-vector double collects
//     that had to rerun), confirm failures, and sealed-fallback frequency;
//   * multi-version scan engine health: versions published / retired /
//     reclaimed through mvcc::VersionGate, reader acquires, the refcount
//     high-water at unlink, and grace-period latency percentiles (version
//     unlinked -> provably reader-free, kMvccRetire -> kMvccReclaim
//     matched on (gate, epoch));
//   * network chaos: per-link wire faults the userspace netem proxy
//     injected (drops / delays / reorders / stalls / resets / blackholes /
//     flaps / throttle pauses) side by side with the client symptoms they
//     provoked (retransmit waves, round timeouts, reconnect backoffs) — the
//     cause/effect ledger of a --scenario net run.
//
// Every event is counted by its trace::EventKind, resolved once per row
// through trace::kind_name, so the tool shares the exporter's vocabulary.
//
// Usage:
//   trace_analyze <trace.json | trace.jsonl | trace-dir> ...
//   trace_analyze --demo     # trace a small in-process workload, then
//                            # analyze it (self-contained smoke test)
// Exits 1 when a scan exceeds the pigeonhole bound, 2 when an input is
// missing, empty, a directory without traces, or not valid JSON.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/bounded_mw_snapshot.hpp"
#include "core/bounded_sw_snapshot.hpp"
#include "core/mvcc_snapshot.hpp"
#include "core/unbounded_sw_snapshot.hpp"
#include "net/chaos_proxy.hpp"
#include "net/socket.hpp"
#include "net/tcp_bus.hpp"
#include "shard/fabric.hpp"
#include "trace/event.hpp"
#include "trace/exporter.hpp"
#include "trace/histogram.hpp"
#include "trace/json.hpp"

namespace {

using namespace asnap;
using trace::EventKind;

constexpr std::size_t kKinds = static_cast<std::size_t>(EventKind::kKindCount);
using Counts = std::array<std::uint64_t, kKinds>;

/// The kind trace::kind_name spells `name`; kNone for a name outside the
/// vocabulary. The table is built from kind_name itself, so a kind renamed in
/// the exporter is renamed here too.
EventKind kind_of(const std::string& name) {
  static const std::map<std::string, EventKind> by_name = [] {
    std::map<std::string, EventKind> m;
    for (std::size_t k = 0; k < kKinds; ++k) {
      m.emplace(trace::kind_name(static_cast<EventKind>(k)),
                static_cast<EventKind>(k));
    }
    return m;
  }();
  const auto it = by_name.find(name);
  return it == by_name.end() ? EventKind::kNone : it->second;
}

/// One normalized event, whichever file format it came from.
struct Row {
  std::uint64_t ts_ns = 0;
  EventKind kind = EventKind::kNone;
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  std::uint64_t a0 = 0;
  std::uint64_t a1 = 0;
};

Row row_from_object(const trace::json::Value& obj, bool chrome) {
  Row r;
  // Chrome "ts" is microseconds; payload lives under "args", and a kind
  // without args.kind is named by "name".
  const trace::json::Value& payload = chrome ? obj["args"] : obj;
  r.ts_ns = chrome
                ? static_cast<std::uint64_t>(obj["ts"].as_number() * 1000.0)
                : obj["ts"].as_u64();
  const trace::json::Value& kind = payload["kind"];
  r.kind = kind_of(kind.is_string() ? kind.as_string()
                                    : obj["name"].as_string());
  r.pid = static_cast<std::uint32_t>(obj["pid"].as_u64());
  r.tid = static_cast<std::uint32_t>(obj["tid"].as_u64());
  r.a0 = payload["a0"].as_u64();
  r.a1 = payload["a1"].as_u64();
  return r;
}

/// Loads a chrome-format ({"traceEvents":[...]}) or JSONL trace file.
bool load_trace(const std::string& path, std::vector<Row>& rows) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "trace_analyze: cannot open %s\n", path.c_str());
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  try {
    const std::size_t first = text.find_first_not_of(" \t\r\n");
    if (first != std::string::npos && text[first] == '{' &&
        text.find("\"traceEvents\"") != std::string::npos) {
      const trace::json::Value doc = trace::json::parse(text);
      const trace::json::Value& events = doc["traceEvents"];
      if (!events.is_array()) {
        std::fprintf(stderr, "trace_analyze: %s: traceEvents is not an array\n",
                     path.c_str());
        return false;
      }
      for (const trace::json::Value& ev : events.as_array()) {
        rows.push_back(row_from_object(ev, /*chrome=*/true));
      }
    } else {  // JSONL
      std::istringstream lines(text);
      std::string line;
      while (std::getline(lines, line)) {
        if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
        rows.push_back(
            row_from_object(trace::json::parse(line), /*chrome=*/false));
      }
    }
  } catch (const trace::json::ParseError& e) {
    std::fprintf(stderr, "trace_analyze: %s: %s\n", path.c_str(), e.what());
    return false;
  }
  return true;
}

std::uint64_t pigeonhole_bound(std::uint64_t algo, std::uint64_t n) {
  return algo == trace::kAlgoBoundedMw ? 2 * n + 1 : n + 1;
}

/// Complete scans of one algorithm: double collects against the bound.
struct PerAlgo {
  trace::LogHistogram attempts;
  trace::LogHistogram latency_ns;
  std::uint64_t n_max = 0;
  std::uint64_t borrowed = 0;
  std::uint64_t violations = 0;
};

/// Every event is counted by kind, overall and per pid (the shard and link
/// sections read the latter). Explicit state exists only where events pair
/// up into a latency or a payload feeds a histogram.
struct Analysis {
  Counts count{};
  std::map<std::uint32_t, Counts> by_pid;
  std::uint64_t first_ts = ~std::uint64_t{0};
  std::uint64_t last_ts = 0;

  std::map<std::uint64_t, PerAlgo> by_algo;
  std::size_t violations = 0;  ///< scans over the pigeonhole bound
  std::uint64_t incomplete_scans = 0;  ///< ends whose begin was overwritten
  trace::LogHistogram update_latency_ns;
  // ABD rounds matched begin -> end on (tid, rid). A retransmit wave is a
  // resend INSIDE a round, never a new round.
  trace::LogHistogram retransmits_per_round;
  std::uint64_t round_timeouts = 0;  ///< of the matched rounds
  /// Fast-read fallbacks by reason (kFastFallbackDisagree / kFastFallbackGap).
  std::array<std::uint64_t, 3> fallbacks_by_reason{};
  trace::LogHistogram detection_latency_ns;  ///< chaos crash -> 1st suspect
  trace::LogHistogram recovery_latency_ns;   ///< recover_begin -> _end ok
  std::uint64_t recoveries_ok = 0;
  trace::LogHistogram batch_sizes;  ///< submits coalesced per flush
  std::map<std::uint32_t, std::uint64_t> shard_local_hits;  ///< by shard
  trace::LogHistogram global_attempts;
  trace::LogHistogram global_latency_ns;
  std::uint64_t global_retried = 0;  ///< needed > 1 confirmation round
  std::uint64_t global_sealed = 0;   ///< fell back to the quiesce path
  std::uint64_t incomplete_global_scans = 0;
  std::uint64_t mvcc_readers_high_water = 0;  ///< max readers out at unlink
  std::uint64_t mvcc_orphan_reclaims = 0;  ///< reclaim whose retire was lost
  trace::LogHistogram mvcc_grace_ns;  ///< unlink -> provably reader-free
  trace::LogHistogram net_delay_us;   ///< injected per-frame delay
  trace::LogHistogram backoff_cooldown_ms;  ///< armed cooldown per backoff

  unsigned long long n(EventKind k) const {
    return count[static_cast<std::size_t>(k)];
  }
  unsigned long long n(std::initializer_list<EventKind> kinds) const {
    unsigned long long total = 0;
    for (const EventKind k : kinds) total += n(k);
    return total;
  }
};

/// Closes the span opened at open[key], recording its length; false when
/// the opening event is not in the trace (lost to ring overwrite).
template <typename Key>
bool close_span(std::map<Key, std::uint64_t>& open, const Key& key,
                std::uint64_t end_ts, trace::LogHistogram& latency) {
  const auto it = open.find(key);
  if (it == open.end()) return false;
  latency.record(end_ts - it->second);
  open.erase(it);
  return true;
}

Analysis analyze(std::vector<Row> rows) {
  std::stable_sort(rows.begin(), rows.end(),
                   [](const Row& a, const Row& b) { return a.ts_ns < b.ts_ns; });
  Analysis out;
  struct PendingScan {
    bool open = false;
    std::uint64_t algo = 0, n = 0, begin_ts = 0;
  };
  struct PendingRound {
    bool open = false;
    std::uint64_t rid = 0, retransmits = 0;
  };
  std::map<std::uint32_t, PendingScan> scan_by_tid;
  std::map<std::uint32_t, PendingRound> round_by_tid;
  std::map<std::uint32_t, std::uint64_t> update_begin_by_tid;
  std::map<std::uint64_t, std::uint64_t> crash_ts_by_node;  // chaos kCrash
  std::map<std::uint32_t, std::uint64_t> recover_begin_by_node;
  std::map<std::uint32_t, std::uint64_t> global_begin_by_tid;
  // (gate pid, version epoch) -> unlink timestamp; the matching reclaim may
  // fire on any thread (whichever reader releases last).
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t>
      mvcc_retire_ts;

  for (const Row& r : rows) {
    out.first_ts = std::min(out.first_ts, r.ts_ns);
    out.last_ts = std::max(out.last_ts, r.ts_ns);
    ++out.count[static_cast<std::size_t>(r.kind)];
    ++out.by_pid[r.pid][static_cast<std::size_t>(r.kind)];
    switch (r.kind) {
      case EventKind::kScanBegin:
        scan_by_tid[r.tid] = PendingScan{true, r.a0, r.a1, r.ts_ns};
        break;
      case EventKind::kScanEnd: {
        PendingScan& p = scan_by_tid[r.tid];
        if (!p.open) {  // begin lost to ring overwrite: not attributable
          ++out.incomplete_scans;
          break;
        }
        PerAlgo& pa = out.by_algo[p.algo];
        pa.attempts.record(r.a0);
        pa.latency_ns.record(r.ts_ns - p.begin_ts);
        pa.n_max = std::max(pa.n_max, p.n);
        if (r.a1 != 0) ++pa.borrowed;
        if (r.a0 > pigeonhole_bound(p.algo, p.n)) {
          ++pa.violations;
          ++out.violations;
        }
        p.open = false;
        break;
      }
      case EventKind::kUpdateBegin:
        update_begin_by_tid[r.tid] = r.ts_ns;
        break;
      case EventKind::kUpdateEnd:
        close_span(update_begin_by_tid, r.tid, r.ts_ns, out.update_latency_ns);
        break;
      case EventKind::kAbdRoundBegin:
        round_by_tid[r.tid] = PendingRound{true, r.a0, 0};
        break;
      case EventKind::kAbdRetransmit: {
        PendingRound& p = round_by_tid[r.tid];
        if (p.open && p.rid == r.a0) ++p.retransmits;
        break;
      }
      case EventKind::kAbdQuorumReached:
      case EventKind::kAbdRoundTimeout: {
        PendingRound& p = round_by_tid[r.tid];
        if (p.open && p.rid == r.a0) {
          out.retransmits_per_round.record(p.retransmits);
          if (r.kind == EventKind::kAbdRoundTimeout) ++out.round_timeouts;
          p.open = false;
        }
        break;
      }
      case EventKind::kAbdFastFallback:
        if (r.a1 < out.fallbacks_by_reason.size()) {
          ++out.fallbacks_by_reason[r.a1];
        }
        break;
      case EventKind::kChaosAction:
        if (r.a0 == 0) crash_ts_by_node[r.a1] = r.ts_ns;  // ActionKind::kCrash
        break;
      case EventKind::kSuspect:
        // First suspicion (by any observer) after a chaos-injected crash of
        // that node is the detection latency.
        close_span(crash_ts_by_node, r.a0, r.ts_ns, out.detection_latency_ns);
        break;
      case EventKind::kRecoverBegin:
        recover_begin_by_node[r.pid] = r.ts_ns;
        break;
      case EventKind::kRecoverEnd:
        if (r.a0 != 0) {
          ++out.recoveries_ok;
          close_span(recover_begin_by_node, r.pid, r.ts_ns,
                     out.recovery_latency_ns);
        }
        break;
      case EventKind::kBatchFlush:
        out.batch_sizes.record(r.a0);
        break;
      case EventKind::kShardLocalScan:
        if (r.a0 != 0) ++out.shard_local_hits[r.pid];
        break;
      case EventKind::kShardGlobalScanBegin:
        global_begin_by_tid[r.tid] = r.ts_ns;
        break;
      case EventKind::kShardGlobalScanEnd:
        out.global_attempts.record(r.a0);
        if (r.a0 > 1) ++out.global_retried;
        if (r.a1 != 0) ++out.global_sealed;
        if (!close_span(global_begin_by_tid, r.tid, r.ts_ns,
                        out.global_latency_ns)) {
          ++out.incomplete_global_scans;  // latency not attributable
        }
        break;
      case EventKind::kMvccRetire:
        out.mvcc_readers_high_water =
            std::max(out.mvcc_readers_high_water, r.a1);
        mvcc_retire_ts[{r.pid, r.a0}] = r.ts_ns;
        break;
      case EventKind::kMvccReclaim:
        if (!close_span(mvcc_retire_ts, {r.pid, r.a0}, r.ts_ns,
                        out.mvcc_grace_ns)) {
          ++out.mvcc_orphan_reclaims;  // grace latency not attributable
        }
        break;
      case EventKind::kNetDelay:
        out.net_delay_us.record(r.a1);
        break;
      case EventKind::kNetReconnectBackoff:
        out.backoff_cooldown_ms.record(r.a1);
        break;
      default:
        break;
    }
  }
  return out;
}

const char* algo_name(std::uint64_t algo) {
  switch (algo) {
    case trace::kAlgoUnboundedSw: return "Fig2 unbounded SW";
    case trace::kAlgoBoundedSw: return "Fig3 bounded SW";
    case trace::kAlgoBoundedMw: return "Fig4 bounded MW";
    case trace::kAlgoMvccGate: return "A4 mvcc gate";
    default: return "unknown";
  }
}

/// Prints "<label>p50 Xus  p99 Yus  <last> Zus" (no newline): h's values
/// divided by `div`, with <last> at quantile q (1.0 is the exact max) and
/// left out when `last` is null.
void print_us(const char* label, const trace::LogHistogram& h, double div,
              const char* last = "max", double q = 1.0) {
  const auto us = [&](double p) {
    return static_cast<double>(h.percentile(p)) / div;
  };
  std::printf("%sp50 %.1fus  p99 %.1fus", label, us(0.50), us(0.99));
  if (last != nullptr) std::printf("  %s %.1fus", last, us(q));
}

/// "p50 X p99 Y max Z" of a count distribution.
std::string quantiles(const trace::LogHistogram& h) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "p50 %llu p99 %llu max %llu",
                static_cast<unsigned long long>(h.percentile(0.50)),
                static_cast<unsigned long long>(h.percentile(0.99)),
                static_cast<unsigned long long>(h.max()));
  return buf;
}

/// Prints the report; returns the number of bound violations.
std::size_t report(const Analysis& a) {
  using K = EventKind;
  const double span_s = a.last_ts > a.first_ts
                            ? static_cast<double>(a.last_ts - a.first_ts) / 1e9
                            : 0.0;
  const auto per_s = [&](unsigned long long x) {
    return span_s > 0 ? static_cast<double>(x) / span_s : 0.0;
  };
  const auto pct = [](unsigned long long part, unsigned long long whole) {
    return whole == 0 ? 0.0
                      : 100.0 * static_cast<double>(part) /
                            static_cast<double>(whole);
  };

  std::printf("== scans: double collects vs the pigeonhole bound ==\n");
  std::printf("%-20s %8s %6s %6s %6s %6s %6s %7s %10s\n", "algorithm",
              "scans", "p50", "p99", "max", "bound", "viol", "borrow%",
              "p99 lat");
  for (const auto& [algo, pa] : a.by_algo) {
    std::printf("%-20s %8llu %6llu %6llu %6llu %6llu %6llu %6.1f%% %8.1fus\n",
                algo_name(algo),
                static_cast<unsigned long long>(pa.attempts.count()),
                static_cast<unsigned long long>(pa.attempts.percentile(0.50)),
                static_cast<unsigned long long>(pa.attempts.percentile(0.99)),
                static_cast<unsigned long long>(pa.attempts.max()),
                static_cast<unsigned long long>(
                    pigeonhole_bound(algo, pa.n_max)),
                static_cast<unsigned long long>(pa.violations),
                pct(pa.borrowed, pa.attempts.count()),
                static_cast<double>(pa.latency_ns.percentile(0.99)) / 1000.0);
  }
  if (a.by_algo.empty()) std::printf("(no complete scans in trace)\n");
  if (a.incomplete_scans != 0) {
    std::printf("(%llu scan_end events had no scan_begin in the trace — "
                "ring overwrote their start; excluded)\n",
                static_cast<unsigned long long>(a.incomplete_scans));
  }

  std::printf("\n== updates ==\nupdates: %llu   ", a.n(K::kUpdateEnd));
  print_us("", a.update_latency_ns, 1e3, "p999", 0.999);
  std::printf("\nhandshake toggles: %llu (%.1f/s)   moved-detections: %llu\n",
              a.n(K::kHandshakeToggle), per_s(a.n(K::kHandshakeToggle)),
              a.n(K::kMovedDetected));

  const unsigned long long rounds = a.retransmits_per_round.count();
  if (rounds != 0) {
    std::printf("\n== ABD quorum rounds ==\n");
    std::printf("rounds: %llu  timeouts: %llu  retransmits/round: %s\n",
                rounds, static_cast<unsigned long long>(a.round_timeouts),
                quantiles(a.retransmits_per_round).c_str());
  }
  const unsigned long long reads = a.n({K::kAbdFastRead, K::kAbdFastFallback});
  if (reads != 0) {
    // Per register read: fast reads skip the write-back, fallbacks join
    // their batch's single write-back round. Rounds themselves are counted
    // above (a batched collect is one query round for all its registers).
    std::printf("\n== ABD register reads ==\n");
    std::printf("register reads: %llu  fast (no write-back): %llu  written "
                "back: %llu (%llu ts-disagree, %llu stability-gap)\n",
                reads, a.n(K::kAbdFastRead), a.n(K::kAbdFastFallback),
                static_cast<unsigned long long>(
                    a.fallbacks_by_reason[trace::kFastFallbackDisagree]),
                static_cast<unsigned long long>(
                    a.fallbacks_by_reason[trace::kFastFallbackGap]));
    std::printf("fast-hit ratio: %.1f%%\n", pct(a.n(K::kAbdFastRead), reads));
  }
  if (a.n({K::kFaultDrop, K::kFaultDup, K::kFaultDelay}) != 0) {
    std::printf("\n== fault injector ==\n");
    std::printf("drops: %llu  dups: %llu  delays: %llu\n", a.n(K::kFaultDrop),
                a.n(K::kFaultDup), a.n(K::kFaultDelay));
  }
  if (a.n({K::kSuspect, K::kTrust, K::kRecoverEnd, K::kBreakerSkip,
           K::kBreakerFailFast, K::kStaleEpochReply, K::kChaosAction}) != 0) {
    std::printf("\n== self-healing ==\n");
    std::printf("detector: %llu suspicions, %llu trust restorations\n",
                a.n(K::kSuspect), a.n(K::kTrust));
    std::printf("breaker: %llu replica skips, %llu fail-fasts, %llu "
                "stale-epoch replies discarded\n",
                a.n(K::kBreakerSkip), a.n(K::kBreakerFailFast),
                a.n(K::kStaleEpochReply));
    std::printf("recoveries: %llu ok, %llu failed attempts; chaos actions "
                "injected: %llu\n",
                static_cast<unsigned long long>(a.recoveries_ok),
                a.n(K::kRecoverEnd) - a.recoveries_ok,
                a.n(K::kChaosAction));
    if (a.detection_latency_ns.count() != 0) {
      print_us("detection latency (chaos crash -> first suspicion): ",
               a.detection_latency_ns, 1e3, nullptr);
      std::printf(
          "  (%llu samples)\n",
          static_cast<unsigned long long>(a.detection_latency_ns.count()));
    }
    if (a.recovery_latency_ns.count() != 0) {
      print_us("recovery duration (rejoin + replica resync): ",
               a.recovery_latency_ns, 1e3);
      std::printf("\n");
    }
  }

  // A steal IS a grant, of a reclaimed slot.
  const unsigned long long grants = a.n({K::kLeaseGrant, K::kLeaseSteal});
  if (grants + a.n({K::kBatchFlush, K::kScanCacheHit, K::kScanCacheMiss,
                    K::kSvcShed}) !=
      0) {
    std::printf("\n== service layer ==\n");
    std::printf("leases: %llu grants (%llu steals, %llu expiries) — churn "
                "%.1f grants/s\n",
                grants, a.n(K::kLeaseSteal), a.n(K::kLeaseExpire),
                per_s(grants));
    if (a.n(K::kBatchFlush) != 0) {
      std::printf("batching: %llu flushes, size %s (mean %.2f submits/flush)\n",
                  a.n(K::kBatchFlush), quantiles(a.batch_sizes).c_str(),
                  a.batch_sizes.mean());
    }
    const unsigned long long lookups =
        a.n({K::kScanCacheHit, K::kScanCacheMiss});
    if (lookups != 0) {
      std::printf("scan cache: %.1f%% hit (%llu/%llu), %llu invalidations "
                  "observed\n",
                  pct(a.n(K::kScanCacheHit), lookups), a.n(K::kScanCacheHit),
                  lookups, a.n(K::kScanCacheInvalidate));
    }
    std::printf("admission: %llu requests shed\n", a.n(K::kSvcShed));
  }

  const auto of = [](const Counts& c, K k) {
    return static_cast<unsigned long long>(c[static_cast<std::size_t>(k)]);
  };
  if (a.n({K::kShardRoute, K::kShardLocalUpdate, K::kShardLocalScan,
           K::kShardGlobalScanEnd, K::kShardConfirmFail}) != 0) {
    // Shards = pids seen on either the update or the local-scan path.
    std::vector<std::uint32_t> shards;
    for (const auto& [pid, c] : a.by_pid) {
      if (of(c, K::kShardLocalUpdate) + of(c, K::kShardLocalScan) != 0) {
        shards.push_back(pid);
      }
    }
    std::printf("\n== sharded fabric ==\n");
    std::printf("routing: %llu client routes across %zu shard(s)\n",
                a.n(K::kShardRoute), shards.size());
    std::printf("%-8s %12s %12s %8s\n", "shard", "updates", "local scans",
                "hit%");
    for (const std::uint32_t sh : shards) {
      const Counts& c = a.by_pid.at(sh);
      const auto hits = a.shard_local_hits.find(sh);
      std::printf("%-8u %12llu %12llu %7.1f%%\n", sh,
                  of(c, K::kShardLocalUpdate), of(c, K::kShardLocalScan),
                  pct(hits == a.shard_local_hits.end() ? 0 : hits->second,
                      of(c, K::kShardLocalScan)));
    }
    if (a.n(K::kShardGlobalScanEnd) != 0) {
      std::printf("global scans: %llu — %.1f%% retried, attempts %s, %llu "
                  "sealed fallbacks\n",
                  a.n(K::kShardGlobalScanEnd),
                  pct(a.global_retried, a.n(K::kShardGlobalScanEnd)),
                  quantiles(a.global_attempts).c_str(),
                  static_cast<unsigned long long>(a.global_sealed));
      print_us("global scan latency: ", a.global_latency_ns, 1e3);
      std::printf("\n");
    }
    std::printf("generation confirm failures: %llu (a shard's writes crossed "
                "a collect window)\n",
                a.n(K::kShardConfirmFail));
    if (a.incomplete_global_scans != 0) {
      std::printf("(%llu global_scan_end events had no begin in the trace — "
                  "ring overwrote their start; latency excluded)\n",
                  static_cast<unsigned long long>(a.incomplete_global_scans));
    }
  }

  if (a.n({K::kMvccPublish, K::kMvccAcquire, K::kMvccRetire,
           K::kMvccReclaim}) != 0) {
    std::printf("\n== mvcc versioned scans ==\n");
    std::printf("versions: %llu published, %llu retired, %llu reclaimed "
                "(%lld awaiting readers or a reclamation pass)\n",
                a.n(K::kMvccPublish), a.n(K::kMvccRetire),
                a.n(K::kMvccReclaim),
                static_cast<long long>(a.n(K::kMvccRetire)) -
                    static_cast<long long>(a.n(K::kMvccReclaim)));
    std::printf("reader acquires: %llu   refcount high-water at unlink: %llu "
                "(of 65535 the packed counter tolerates)\n",
                a.n(K::kMvccAcquire),
                static_cast<unsigned long long>(a.mvcc_readers_high_water));
    if (a.mvcc_grace_ns.count() != 0) {
      print_us("grace period (unlink -> provably reader-free): ",
               a.mvcc_grace_ns, 1e3);
      std::printf("  (%llu versions)\n",
                  static_cast<unsigned long long>(a.mvcc_grace_ns.count()));
    }
    if (a.mvcc_orphan_reclaims != 0) {
      std::printf("(%llu reclaims had no retire in the trace — ring "
                  "overwrote it; grace latency excluded)\n",
                  static_cast<unsigned long long>(a.mvcc_orphan_reclaims));
    }
  }

  // Wire faults the ChaosProxy injected, by link (= pid): the kinds
  // kNetDrop..kNetThrottle, one table column each, in enum order.
  constexpr auto kFirstNet = static_cast<std::size_t>(K::kNetDrop);
  constexpr int kNetWidth[] = {8, 8, 8, 7, 7, 10, 6, 9};
  static_assert(static_cast<std::size_t>(K::kNetThrottle) + 1 - kFirstNet ==
                std::size(kNetWidth));
  const auto net_faults = [&](const Counts& c) {
    unsigned long long total = 0;
    for (std::size_t i = 0; i < std::size(kNetWidth); ++i) {
      total += c[kFirstNet + i];
    }
    return total;
  };
  if (net_faults(a.count) + a.n(K::kNetReconnectBackoff) != 0) {
    std::printf("\n== network chaos ==\n");
    std::printf("%-6s %8s %8s %8s %7s %7s %10s %6s %9s\n", "link", "drops",
                "delays", "reorder", "stalls", "resets", "blackholes",
                "flaps", "throttles");
    for (const auto& [link, c] : a.by_pid) {
      if (net_faults(c) == 0) continue;
      std::printf("%-6u", link);
      for (std::size_t i = 0; i < std::size(kNetWidth); ++i) {
        std::printf(" %*llu", kNetWidth[i],
                    static_cast<unsigned long long>(c[kFirstNet + i]));
      }
      std::printf("\n");
    }
    if (a.net_delay_us.count() != 0) {
      print_us("injected delay/frame: ", a.net_delay_us, 1.0);
      std::printf(" (%llu delayed frames)\n",
                  static_cast<unsigned long long>(a.net_delay_us.count()));
    }
    // The cause/effect ledger: everything above is what the proxy DID;
    // this line is how the client code EXPERIENCED it. A healthy run shows
    // symptoms scaling with injections, not with wall-clock. Blackhole and
    // flap toggles are edges, not faults on a frame.
    std::printf("injected: %llu wire faults -> observed: %llu retransmit "
                "waves, %llu round timeouts, %llu reconnect backoffs\n",
                net_faults(a.count) - a.n({K::kNetBlackhole, K::kNetFlap}),
                a.n(K::kAbdRetransmit),
                static_cast<unsigned long long>(a.round_timeouts),
                a.n(K::kNetReconnectBackoff));
    if (a.backoff_cooldown_ms.count() != 0) {
      std::printf("reconnect cooldown armed: p50 %llums  max %llums — the "
                  "cap bounds redial pressure on a dead replica\n",
                  static_cast<unsigned long long>(
                      a.backoff_cooldown_ms.percentile(0.50)),
                  static_cast<unsigned long long>(a.backoff_cooldown_ms.max()));
    }
  }

  if (a.violations != 0) {
    std::printf("\nPROTOCOL VIOLATION: %zu scan(s) exceeded the pigeonhole "
                "bound\n",
                a.violations);
  }
  return a.violations;
}

/// --demo: run a small traced workload of all three algorithms (plus ABD
/// fault events are exercised elsewhere) and analyze the result in-process.
int run_demo() {
  const std::string path = "trace_demo.json";
  {
    trace::Session session(path, /*buffer_capacity=*/1 << 16);
    constexpr std::size_t kN = 4;
    core::UnboundedSwSnapshot<std::uint64_t> a1(kN, 0);
    core::BoundedSwSnapshot<std::uint64_t> a2(kN, 0);
    core::BoundedMwSnapshot<std::uint64_t> a3(kN, kN, 0);
    std::vector<std::jthread> threads;
    for (std::size_t p = 1; p < kN; ++p) {
      threads.emplace_back([&, pid = static_cast<ProcessId>(p)] {
        for (std::uint64_t it = 1; it <= 500; ++it) {
          a1.update(pid, it);
          a2.update(pid, it);
          a3.update(pid, it % kN, it);
        }
      });
    }
    for (int s = 0; s < 500; ++s) {
      (void)a1.scan(0);
      (void)a2.scan(0);
      (void)a3.scan(0);
    }
    // Multi-version engine: concurrent writers RCU-publishing through A4's
    // VersionGate while a reader scans and leases, so the "== mvcc
    // versioned scans ==" section has data (publishes, acquires, retires,
    // reclaims, and retire->reclaim grace periods with readers pinning
    // versions across publishes).
    {
      core::MvccSnapshot<std::uint64_t> a4(kN, 0);
      std::vector<std::jthread> writers;
      for (std::size_t p = 1; p < kN; ++p) {
        writers.emplace_back([&, pid = static_cast<ProcessId>(p)] {
          for (std::uint64_t it = 1; it <= 300; ++it) a4.update(pid, it);
        });
      }
      for (int s = 0; s < 300; ++s) {
        (void)a4.scan(0);
        auto lease = a4.scan_view();  // pins a version across publishes
        (void)lease.epoch();
      }
      writers.clear();  // join
      (void)a4.reclaim();
    }
    // Sharded fabric: two svc shards of A1 under hash routing, with local
    // and cross-shard global scans, so the "== service layer ==" and "==
    // sharded fabric ==" sections have data (leases, flushes, cache
    // lookups, and at least the zero-failure confirm line).
    using ShardBackend = core::UnboundedSwSnapshot<std::uint64_t>;
    std::vector<std::unique_ptr<ShardBackend>> parts;
    for (int s = 0; s < 2; ++s) {
      parts.push_back(std::make_unique<ShardBackend>(kN, 0));
    }
    shard::ShardedSnapshotFabric<ShardBackend, std::uint64_t> fabric(
        std::move(parts));
    std::vector<decltype(fabric)::Session> sessions(4);
    for (std::uint64_t c = 0; c < sessions.size(); ++c) {
      sessions[c] = fabric.connect(c, std::chrono::seconds(1)).session;
    }
    for (std::uint64_t it = 1; it <= 100; ++it) {
      for (auto& sess : sessions) {
        (void)fabric.submit_update(
            sess, [it](ProcessId, std::uint64_t) { return it; });
        (void)fabric.flush(sess);
        (void)fabric.scan(sess);
      }
      (void)fabric.global_scan();
    }
    for (auto& sess : sessions) (void)fabric.disconnect(sess);
    // Network chaos: a ChaosProxy fronting a local frame-echo server, with
    // ambient drop/delay/reorder/throttle plus a blackhole toggle and a
    // flap window, so the "== network chaos ==" section has data. The
    // echoed pings are real frames over real sockets; every fault decision
    // is the proxy's own.
    {
      std::string error;
      net::Listener echo = net::Listener::open({"127.0.0.1", 0}, &error);
      std::jthread echo_thread([&echo](std::stop_token st) {
        std::optional<net::Socket> conn;
        net::wire::Frame f;
        while (!st.stop_requested()) {
          if (!conn.has_value()) {
            conn = echo.accept(std::chrono::milliseconds(20));
            continue;
          }
          const auto status = net::recv_frame(
              *conn,
              std::chrono::steady_clock::now() + std::chrono::milliseconds(20),
              &f);
          if (status == net::RecvStatus::kTimeout) continue;
          if (status != net::RecvStatus::kOk) {
            conn.reset();
            continue;
          }
          if (!net::send_frame(*conn, f)) conn.reset();
        }
      });
      const std::uint16_t echo_port = echo.bound_port();
      net::ChaosProxy proxy({{"127.0.0.1", echo_port}}, /*seed=*/42);
      if (echo.valid() && proxy.start(&error)) {
        net::LinkFaults faults;
        faults.drop_prob = 0.2;
        faults.reorder_prob = 0.1;
        faults.delay = std::chrono::microseconds(200);
        faults.jitter = std::chrono::microseconds(100);
        faults.throttle_bytes_per_sec = 64 * 1024;
        proxy.set_all(faults);
        net::Socket client = net::tcp_connect(proxy.endpoints()[0],
                                              std::chrono::milliseconds(200));
        net::wire::Frame ping;
        ping.type = net::wire::kPing;
        net::wire::Frame reply;
        for (int i = 0; i < 60 && client.valid(); ++i) {
          ping.rid = static_cast<std::uint64_t>(i);
          if (!net::send_frame(client, ping)) break;
          (void)net::recv_frame(
              client,
              std::chrono::steady_clock::now() + std::chrono::milliseconds(5),
              &reply);
          if (i == 20) proxy.blackhole(0, net::ChaosProxy::kToClient, true);
          if (i == 30) proxy.blackhole(0, net::ChaosProxy::kToClient, false);
          if (i == 40) {
            proxy.flap(0, std::chrono::milliseconds(5),
                       std::chrono::milliseconds(5), true);
          }
          if (i == 50) {
            proxy.flap(0, std::chrono::milliseconds(0),
                       std::chrono::milliseconds(0), false);
          }
        }
        proxy.stop();
      }
      echo_thread.request_stop();
      echo_thread.join();
      echo.close();
      // TcpBus vs the now-closed port: every refused dial arms a longer
      // (jittered, capped) cooldown — the reconnect-backoff ledger.
      net::TcpBusOptions opts;
      opts.connect_timeout = std::chrono::milliseconds(10);
      opts.reconnect_cooldown = std::chrono::milliseconds(2);
      opts.reconnect_cooldown_max = std::chrono::milliseconds(8);
      net::TcpBus bus({{"127.0.0.1", echo_port}}, /*seed=*/7, opts);
      net::wire::Frame probe;
      probe.type = net::wire::kPing;
      for (int i = 0; i < 5; ++i) {
        (void)bus.send(0, probe);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
  }
  std::vector<Row> rows;
  if (!load_trace(path, rows)) return 2;
  std::printf("demo trace: %zu events from %s\n\n", rows.size(), path.c_str());
  const Analysis a = analyze(std::move(rows));
  if (a.by_algo.empty() && a.n(EventKind::kUpdateEnd) == 0) {
    // ASNAP_TRACE compiled out: nothing to analyze, nothing to violate.
    std::printf("(tracing compiled out — empty trace)\n");
    return 0;
  }
  return report(a) == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--demo") == 0) return run_demo();
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <trace.json|trace.jsonl|trace-dir> ...\n"
                 "       %s --demo\n",
                 argv[0], argv[0]);
    return 2;
  }
  namespace fs = std::filesystem;
  // Resolve every argument to concrete trace files up front, with a clear
  // diagnosis for each failure mode instead of a crash or an empty report:
  // missing path, empty file, directory with no trace files.
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const auto fail = [&](const char* why) {
      std::fprintf(stderr, "trace_analyze: %s: %s\n", argv[i], why);
      return 2;
    };
    const fs::path path(argv[i]);
    std::error_code ec;
    if (!fs::exists(path, ec)) {
      return fail("no such file or directory (was a trace written there? "
                  "see --trace on the tools)");
    }
    if (fs::is_directory(path, ec)) {
      const std::size_t before = files.size();
      for (const auto& entry : fs::directory_iterator(path, ec)) {
        const std::string ext = entry.path().extension().string();
        if (entry.is_regular_file() && (ext == ".json" || ext == ".jsonl")) {
          files.push_back(entry.path().string());
        }
      }
      if (files.size() == before) {
        return fail("directory contains no .json/.jsonl trace files");
      }
    } else if (fs::file_size(path, ec) == 0) {
      return fail("trace file is empty (the traced run may have recorded no "
                  "events or crashed before the exporter flushed)");
    } else {
      files.push_back(argv[i]);
    }
  }
  std::sort(files.begin(), files.end());
  std::vector<Row> rows;
  for (const std::string& file : files) {
    if (!load_trace(file, rows)) return 2;
  }
  if (rows.empty()) {
    std::fprintf(stderr,
                 "trace_analyze: no events in %zu trace file(s) — nothing "
                 "to analyze\n",
                 files.size());
    return 2;
  }
  std::printf("loaded %zu events from %zu file(s)\n\n", rows.size(),
              files.size());
  return report(analyze(std::move(rows))) == 0 ? 0 : 1;
}
