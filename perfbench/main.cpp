// snapbench — one run of one benchmark workload.
//
//   snapbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-file PATH]
//
// --trace 0: the S-second window is cut into kSegments segments; each
//   builds its stack afresh (kSetups set-ups, the last one kept), so each gets
//   its own thread placement, and runs the plain backends for S/kSegments
//   seconds. Every end-to-end metric is the median over the segments
//   (setup_s: over all set-ups). A segment under heavy host steal is
//   measured again (kMaxStealPct). A checked pass follows.
// --trace 1: an untraced pass and a traced pass of S/2 seconds each (the
//   traced one over the layer decorators of layers.hpp), then a checked
//   pass over the traced stack; prints the per-layer metrics and, with
//   --trace-file, writes sampled spans as Chrome trace-event JSON.
//
// Prints one line per metric (name, value, unit, sample count), then, as
// the last line, the JSON object {"correct", "attempted", "failed",
// "metrics"}. Exit code 0 whenever a result is printed; correct is false if
// any check failed (view checks, the exact linearizability check of the
// checked pass, or Lemma 3.4's n+1 double-collect bound).
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_file;
};

/// Seconds of the checked pass at most (its op budget usually ends it).
constexpr double kCheckSeconds = 1.0;

/// Fresh stacks per untraced run. Whole runs drift together on a shared
/// host (thread placement, cache-line sharing between vCPUs); the median
/// over several independently placed segments damps that.
constexpr std::size_t kSegments = 10;

/// Set-ups per segment; setup_s is the median over all of them.
constexpr std::size_t kSetups = 15;

/// A segment during which the host stole more than this share of the
/// guest's CPU time is measured again, at most kMaxRedone times per run.
/// Quorum rounds wait on thread hand-offs, so one preempted vCPU turns into
/// a millisecond stall: abd-sim's p99 then measures the neighbours, not the
/// code. The redone segment still counts for correctness and ok_ratio.
constexpr double kMaxStealPct = 3.0;
constexpr std::size_t kMaxRedone = 3;

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "snapbench: %s\nusage: snapbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-file PATH]\n"
               "workloads:",
               msg);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* endp = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, &endp, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, &endp);
    } else if (a == "--trace") {
      o.trace = static_cast<int>(std::strtol(v, &endp, 10));
    } else if (a == "--trace-file") {
      o.trace_file = v;
    } else {
      usage(("unknown flag " + a).c_str());
    }
    if (endp != nullptr && (*endp != '\0' || endp == v)) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (find_workload(o.workload) == nullptr) usage("unknown --workload");
  if (!(o.seconds > 0 && o.seconds <= 600)) usage("--seconds out of range");
  if (o.trace != 0 && o.trace != 1) usage("--trace must be 0 or 1");
  return o;
}

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

/// Peak resident set of this process image, in MiB. VmHWM rather than
/// ru_maxrss: Linux carries ru_maxrss across execve, so a program started
/// by a larger parent (the Python wrapper) would report the parent's peak.
double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    unsigned long long kib = 0;
    bool found = false;
    while (!found && std::fgets(line, sizeof line, f) != nullptr) {
      found = std::sscanf(line, "VmHWM: %llu kB", &kib) == 1;
    }
    std::fclose(f);
    if (found) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
}

/// Guest CPU time stolen by the host and total CPU time, in jiffies,
/// summed over all CPUs (/proc/stat); {0, 0} where unavailable.
std::pair<double, double> steal_and_total() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0, 0};
  unsigned long long v[8] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
  std::fclose(f);
  if (got != 8) return {0, 0};
  double total = 0;
  for (unsigned long long x : v) total += static_cast<double>(x);
  return {static_cast<double>(v[7]), total};
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Metric lines for humans, and the JSON result line.
class Report {
 public:
  void add(const char* name, double value, const char* unit,
           long long samples = -1) {
    if (!std::isfinite(value)) value = 0.0;
    const char* fmt = std::fabs(value) >= 1 ? "%-32s %16.6f %-6s" : "%-32s %16.6g %-6s";
    std::printf(fmt, name, value, unit);
    if (samples >= 0) std::printf(" n=%lld", samples);
    std::printf("\n");
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  json_.empty() ? "" : ", ", name, value, unit);
    json_ += buf;
  }
  void finish(bool correct, std::uint64_t attempted, std::uint64_t failed) {
    std::printf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {%s}}\n",
        correct ? "true" : "false", static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed), json_.c_str());
    std::fflush(stdout);
  }

 private:
  std::string json_;
};

void explain_failures(const char* pass, const PassResult& r) {
  if (r.total.view_errors != 0) {
    std::fprintf(stderr, "snapbench: %s pass: %llu scans returned bad views\n",
                 pass, static_cast<unsigned long long>(r.total.view_errors));
  }
  if (r.lin_violation) {
    std::fprintf(stderr, "snapbench: %s pass: LINEARIZABILITY VIOLATION: %s\n",
                 pass, r.lin_violation->c_str());
  }
  if (!r.double_collect_bound_ok()) {
    std::fprintf(stderr,
                 "snapbench: %s pass: a scan used %llu double collects, "
                 "above the n+1 = %zu bound\n",
                 pass,
                 static_cast<unsigned long long>(r.core.max_double_collects),
                 r.words_per_backend + 1);
  }
}

template <bool kCounted, template <class> class Wrap, bool kTraced>
PassResult timed(const Workload& w, std::uint64_t seed, double seconds) {
  return dispatch<kCounted, Wrap>(
      w, seed, [&]<typename Stack>(StackTag<Stack>, auto make) {
        return timed_pass<Stack, kTraced>(w, seed, seconds, kSetups, make);
      });
}

template <bool kCounted, template <class> class Wrap>
PassResult checked(const Workload& w, const Options& o) {
  return dispatch<kCounted, Wrap>(
      w, o.seed, [&]<typename Stack>(StackTag<Stack>, auto make) {
        return checked_pass<Stack>(w, o.seed, kCheckSeconds, make);
      });
}

int run_end_to_end(const Workload& w, const Options& o) {
  bool correct = true;
  std::uint64_t completed = 0, attempted = 0, failed = 0, scans = 0,
                updates = 0;
  double window = 0;
  std::size_t redone = 0;
  std::vector<double> ops, scan50, scan99, upd50, upd99, setup;
  std::uint64_t seed_state = o.seed;
  for (std::size_t i = 0; i < kSegments; ++i) {
    const std::uint64_t seg_seed = asnap::splitmix64(seed_state);
    for (bool again = true; again;) {
      const auto st0 = steal_and_total();
      const PassResult t = timed<false, Bare, false>(
          w, seg_seed, o.seconds / static_cast<double>(kSegments));
      const auto st1 = steal_and_total();
      const double steal_pct =
          100.0 * ratio(st1.first - st0.first, st1.second - st0.second);
      again = steal_pct > kMaxStealPct && redone < kMaxRedone;
      if (again) ++redone;
      // Every segment counts for correctness and for ok_ratio; only those
      // the host left alone count for the timings.
      explain_failures("timed", t);
      correct = correct && t.correct();
      completed += t.completed();
      attempted += t.total.attempted;
      failed += t.total.failed;
      const double seg_ops =
          ratio(static_cast<double>(t.completed()), t.elapsed_s);
      std::fprintf(stderr,
                   "segment %zu: %.1f ops/s, scan p50 %.4f us, host steal "
                   "%.2f%%%s\n",
                   i + 1, seg_ops, t.total.scan.percentile(0.50) / 1e3,
                   steal_pct, again ? " (measured again)" : "");
      if (again) continue;
      scans += t.total.scan.count();
      updates += t.total.update.count();
      window += t.elapsed_s;
      ops.push_back(seg_ops);
      scan50.push_back(t.total.scan.percentile(0.50) / 1e3);
      scan99.push_back(t.total.scan.percentile(0.99) / 1e3);
      upd50.push_back(t.total.update.percentile(0.50) / 1e3);
      upd99.push_back(t.total.update.percentile(0.99) / 1e3);
      for (std::uint64_t ns : t.setup_ns) {
        setup.push_back(static_cast<double>(ns) / 1e9);
      }
    }
  }
  const double rss = peak_rss_mb();  // before the checked pass records
  const PassResult c = checked<false, Bare>(w, o);
  explain_failures("checked", c);
  correct = correct && c.correct();
  std::printf("workload %s seed %llu: %zu segments (%zu more measured again "
              "for host steal above %.0f%%), %.3f s timed, %zu clients, "
              "checked pass %llu ops; medians over segments, n = samples\n",
              w.name, static_cast<unsigned long long>(o.seed), kSegments,
              redone, kMaxStealPct, window, w.clients,
              static_cast<unsigned long long>(c.checked_ops));
  Report rep;
  const auto n = [](std::uint64_t v) { return static_cast<long long>(v); };
  rep.add("ops_per_s", median(ops), "1/s", n(completed));
  rep.add("scan_p50_us", median(scan50), "us", n(scans));
  rep.add("scan_p99_us", median(scan99), "us", n(scans));
  rep.add("update_p50_us", median(upd50), "us", n(updates));
  rep.add("update_p99_us", median(upd99), "us", n(updates));
  rep.add("ok_ratio",
          correct ? ratio(static_cast<double>(completed),
                          static_cast<double>(attempted))
                  : 0.0,
          "ratio", n(attempted));
  rep.add("setup_s", median(setup), "s", static_cast<long long>(setup.size()));
  rep.add("peak_rss_mb", rss, "MB");
  rep.finish(correct, attempted, failed);
  return 0;
}

int run_traced(const Workload& w, const Options& o) {
  const PassResult plain = timed<false, Bare, false>(w, o.seed, o.seconds / 2);
  const PassResult t = timed<true, TimedCore, true>(w, o.seed, o.seconds / 2);
  const PassResult c = checked<true, TimedCore>(w, o);
  explain_failures("untraced", plain);
  explain_failures("traced", t);
  explain_failures("checked", c);
  const bool correct = plain.correct() && t.correct() && c.correct();
  const ClientOut& m = t.total;
  const Tracer& tr = *m.tracer;
  const auto completed = static_cast<double>(t.completed());
  const auto n_of = [&](SpanKind k) {
    return static_cast<long long>(tr.kind_hist(k).count());
  };
  const auto p = [&](SpanKind k, double q) {
    return tr.kind_hist(k).percentile(q) / 1e3;
  };
  const auto span_ns = [&](SpanKind k) {
    return static_cast<double>(tr.kind_hist(k).sum());
  };
  const bool shared_regs = w.kind == Kind::kShardA1;
  const bool abd = w.kind == Kind::kSvcAbd;
  const double core_scans = static_cast<double>(t.core.scans);
  const double core_calls = static_cast<double>(
      tr.kind_hist(SpanKind::kCoreScan).count() +
      tr.kind_hist(SpanKind::kCoreUpdate).count());
  const AbdCounters a = t.abd.value_or(AbdCounters{});
  const double S = static_cast<double>(std::max<std::size_t>(1, w.shards));

  std::printf("workload %s seed %llu traced: %.3f s window, %zu clients\n",
              w.name, static_cast<unsigned long long>(o.seed), t.elapsed_s,
              w.clients);
  Report rep;
  // svc
  const double lookups =
      static_cast<double>(t.svc.cache_hits + t.svc.cache_misses);
  rep.add("svc.cache_hit_ratio",
          ratio(static_cast<double>(t.svc.cache_hits), lookups), "ratio",
          static_cast<long long>(lookups));
  rep.add("svc.scan_hit_p50_us", m.scan_hit.percentile(0.5) / 1e3, "us",
          static_cast<long long>(m.scan_hit.count()));
  rep.add("svc.scan_miss_p50_us", m.scan_miss.percentile(0.5) / 1e3, "us",
          static_cast<long long>(m.scan_miss.count()));
  rep.add("svc.self_us_per_op",
          ratio(static_cast<double>(tr.layer_self_ns(Layer::kSvc)) / 1e3,
                completed),
          "us", static_cast<long long>(completed));
  rep.add("svc.flushes_per_update",
          ratio(static_cast<double>(t.svc.flushes),
                static_cast<double>(t.svc.submits)),
          "ratio", static_cast<long long>(t.svc.submits));
  rep.add("svc.coalesced_per_submit",
          ratio(static_cast<double>(t.svc.coalesced),
                static_cast<double>(t.svc.submits)),
          "ratio", static_cast<long long>(t.svc.submits));
  rep.add("svc.connect_p50_us", m.connect.percentile(0.5) / 1e3, "us",
          static_cast<long long>(m.connect.count()));
  rep.add("svc.failed_ops", static_cast<double>(m.failed), "count");
  // mvcc
  const double svc_scans = static_cast<double>(t.svc.scans);
  rep.add("mvcc.cache_publishes_per_kscan",
          w.cache ? ratio(1000.0 * static_cast<double>(t.cache_gate.published),
                          svc_scans)
                  : 0.0,
          "count", static_cast<long long>(svc_scans));
  rep.add("mvcc.refcount_high_water",
          static_cast<double>(t.cache_gate.refcount_high_water), "count");
  rep.add("mvcc.saturation_stalls",
          static_cast<double>(t.cache_gate.saturation_stalls), "count");
  rep.add("mvcc.grace_pending", static_cast<double>(t.cache_gate.grace_pending),
          "count");
  rep.add("mvcc.a4_cas_retries_per_update",
          t.a4_gate ? ratio(static_cast<double>(t.a4_gate->cas_retries),
                            static_cast<double>(t.core.updates))
                    : 0.0,
          "ratio", static_cast<long long>(t.core.updates));
  // core
  rep.add("core.scan_p50_us", p(SpanKind::kCoreScan, 0.5), "us",
          n_of(SpanKind::kCoreScan));
  rep.add("core.scan_p99_us", p(SpanKind::kCoreScan, 0.99), "us",
          n_of(SpanKind::kCoreScan));
  rep.add("core.update_p50_us", p(SpanKind::kCoreUpdate, 0.5), "us",
          n_of(SpanKind::kCoreUpdate));
  rep.add("core.update_p99_us", p(SpanKind::kCoreUpdate, 0.99), "us",
          n_of(SpanKind::kCoreUpdate));
  rep.add("core.busy_share",
          ratio((span_ns(SpanKind::kCoreScan) + span_ns(SpanKind::kCoreUpdate)) /
                    1e9,
                t.elapsed_s * static_cast<double>(w.clients)),
          "ratio");
  rep.add("core.scan_time_share",
          ratio(static_cast<double>(m.svc_scan_child_ns),
                static_cast<double>(m.svc_scan_ns)),
          "ratio");
  rep.add("core.double_collects_per_scan",
          ratio(static_cast<double>(t.core.double_collects), core_scans),
          "ratio", static_cast<long long>(t.core.scans));
  rep.add("core.borrowed_view_ratio",
          ratio(static_cast<double>(t.core.borrowed_views), core_scans),
          "ratio", static_cast<long long>(t.core.scans));
  rep.add("core.max_double_collects",
          static_cast<double>(std::max(t.core.max_double_collects,
                                       c.core.max_double_collects)),
          "count");
  // reg
  rep.add("reg.reads_per_scan",
          shared_regs ? ratio(static_cast<double>(m.regs.reads), core_scans)
                      : 0.0,
          "ratio");
  rep.add("reg.writes_per_update",
          shared_regs ? ratio(static_cast<double>(m.regs.writes),
                              static_cast<double>(t.core.updates))
                      : 0.0,
          "ratio");
  // shard
  rep.add("shard.global_scan_p50_us", p(SpanKind::kShardGlobal, 0.5), "us",
          n_of(SpanKind::kShardGlobal));
  rep.add("shard.global_scan_p99_us", p(SpanKind::kShardGlobal, 0.99), "us",
          n_of(SpanKind::kShardGlobal));
  const double globals = static_cast<double>(t.fabric.global_scans);
  const double attempts = static_cast<double>(t.fabric.global_scan_attempts);
  rep.add("shard.attempts_per_global_scan", ratio(attempts, globals), "ratio",
          static_cast<long long>(globals));
  rep.add("shard.confirm_failure_ratio",
          ratio(static_cast<double>(t.fabric.global_confirm_failures),
                attempts * S),
          "ratio");
  rep.add("shard.sealed_ratio",
          ratio(static_cast<double>(t.fabric.sealed_scans), globals), "ratio");
  // abd
  rep.add("abd.read_p50_us", p(SpanKind::kAbdRead, 0.5), "us",
          n_of(SpanKind::kAbdRead));
  rep.add("abd.read_p99_us", p(SpanKind::kAbdRead, 0.99), "us",
          n_of(SpanKind::kAbdRead));
  rep.add("abd.write_p50_us", p(SpanKind::kAbdWrite, 0.5), "us",
          n_of(SpanKind::kAbdWrite));
  rep.add("abd.reads_per_scan",
          abd ? ratio(static_cast<double>(m.regs.reads), core_scans) : 0.0,
          "ratio");
  rep.add("abd.rounds_per_op", ratio(static_cast<double>(a.rounds), core_calls),
          "ratio", static_cast<long long>(core_calls));
  rep.add("abd.fast_hit_ratio",
          ratio(static_cast<double>(a.fast_reads),
                static_cast<double>(a.fast_reads + a.fast_fallbacks)),
          "ratio");
  rep.add("abd.retransmits", static_cast<double>(a.retransmits), "count");
  rep.add("abd.round_timeouts", static_cast<double>(a.round_timeouts), "count");
  rep.add("abd.core_time_share",
          ratio(span_ns(SpanKind::kAbdRead) + span_ns(SpanKind::kAbdWrite),
                span_ns(SpanKind::kCoreScan) + span_ns(SpanKind::kCoreUpdate)),
          "ratio");
  // net
  rep.add("net.messages_per_op",
          ratio(static_cast<double>(a.messages), core_calls), "ratio");
  rep.add("net.messages_per_round",
          ratio(static_cast<double>(a.messages), static_cast<double>(a.rounds)),
          "ratio");
  // lin
  rep.add("lin.checked_ops", static_cast<double>(c.checked_ops), "count");
  rep.add("lin.violations",
          static_cast<double>((c.lin_violation ? 1 : 0) + c.total.view_errors +
                              t.total.view_errors + plain.total.view_errors),
          "count");
  // bench
  const double plain_ops =
      ratio(static_cast<double>(plain.completed()), plain.elapsed_s);
  const double traced_ops = ratio(completed, t.elapsed_s);
  rep.add("bench.trace_overhead_pct",
          100.0 * ratio(plain_ops - traced_ops, plain_ops), "pct");

  if (!o.trace_file.empty() &&
      !write_chrome_trace(o.trace_file, t.sampled_spans)) {
    std::fprintf(stderr, "snapbench: cannot write %s\n", o.trace_file.c_str());
  }
  rep.finish(correct, m.attempted, m.failed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options o = perfbench::parse(argc, argv);
  const perfbench::Workload& w = *perfbench::find_workload(o.workload);
  try {
    return o.trace == 0 ? perfbench::run_end_to_end(w, o)
                        : perfbench::run_traced(w, o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "snapbench: %s\n", e.what());
    return 1;
  }
}
