// The benchmark's workloads and the closed-loop pass that drives them.
//
// Every workload is a fixed number of client threads, each holding one
// session and issuing its next operation only when the previous one has
// returned (a closed loop: callers of a snapshot service wait for their
// reply). The library sees only the generated calls; the operation mix is
// drawn from the workload seed.
//
// A Pass is one life of one stack (backends + service or fabric + clients):
//   setup()  constructs the stack, writes one acked update per word through
//            the service, and starts every client, which connects and waits;
//   run()    releases the clients for a window (or an op budget), then stops
//            them, acknowledges what they still have pending, and joins.
// With a lin::Recorder attached, every completed operation is recorded for
// the exact single-writer checker; the timed pass never records.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "abd/abd_snapshot.hpp"
#include "common/rng.hpp"
#include "core/mvcc_snapshot.hpp"
#include "core/snapshot_types.hpp"
#include "core/unbounded_sw_snapshot.hpp"
#include "hist.hpp"
#include "layers.hpp"
#include "lin/history.hpp"
#include "lin/snapshot_checker.hpp"
#include "reg/register_array.hpp"
#include "shard/fabric.hpp"
#include "svc/service.hpp"

namespace perfbench {

using asnap::lin::Tag;

enum class Kind : std::uint8_t { kSvcA4, kShardA1, kSvcAbd };

struct Workload {
  const char* name;
  Kind kind;
  std::size_t words;    ///< words per service (per shard in a fabric)
  std::size_t shards;   ///< 0 = one SnapshotService
  std::size_t clients;  ///< closed-loop client threads
  double read_ratio;
  double global_ratio;   ///< share of scans that are fabric global scans
  std::size_t pipeline;  ///< submits outstanding before the client flushes
  std::size_t max_batch;
  bool cache;
  std::size_t check_ops;  ///< op budget per client of the checked pass
};

// Why each workload exists, and how it was sized, is in README.md.
inline constexpr std::array<Workload, 3> kWorkloads = {{
    {"svc-readmostly", Kind::kSvcA4, 3, 0, 3, 0.95, 0.0, 4, 8, true, 20000},
    {"shard-writeheavy", Kind::kShardA1, 3, 2, 3, 0.5, 0.3, 4, 8, false,
     10000},
    {"abd-sim", Kind::kSvcAbd, 3, 0, 2, 0.9, 0.0, 4, 8, false, 1500},
}};

inline const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

inline asnap::svc::ServiceConfig service_config(const Workload& w) {
  asnap::svc::ServiceConfig cfg;
  cfg.max_batch = w.max_batch;
  cfg.cache_scans = w.cache;
  return cfg;
}

// ---------------------------------------------------------------------------
// Stacks: what a pass constructs and tears down.

/// One SnapshotService over one backend.
template <typename B>
class SvcStack {
 public:
  using Front = asnap::svc::SnapshotService<B, Tag>;
  using Service = Front;
  static constexpr bool kFabric = false;

  template <typename Make>
  SvcStack(const Workload& w, Make& make)
      : backend_(make()),
        front_(std::make_unique<Front>(*backend_, service_config(w))) {}

  Front& front() { return *front_; }
  std::size_t services() const { return 1; }
  Service& service(std::size_t) { return *front_; }
  const B& backend(std::size_t) const { return *backend_; }
  std::size_t base(std::size_t) const { return 0; }
  std::size_t total_words() const { return backend_->size(); }

 private:
  std::unique_ptr<B> backend_;  // outlives front_ (destroyed after it)
  std::unique_ptr<Front> front_;
};

/// A ShardedSnapshotFabric of w.shards services, one backend each.
template <typename B>
class FabricStack {
 public:
  using Front = asnap::shard::ShardedSnapshotFabric<B, Tag>;
  using Service = typename Front::Service;
  static constexpr bool kFabric = true;

  template <typename Make>
  FabricStack(const Workload& w, Make& make) {
    std::vector<std::unique_ptr<B>> backends;
    for (std::size_t s = 0; s < w.shards; ++s) backends.push_back(make());
    asnap::shard::FabricConfig cfg;
    cfg.service = service_config(w);
    front_ = std::make_unique<Front>(std::move(backends), cfg);
  }

  Front& front() { return *front_; }
  std::size_t services() const { return front_->shards(); }
  Service& service(std::size_t s) { return front_->service(s); }
  const B& backend(std::size_t s) const {
    return front_->service(s).backend();
  }
  std::size_t base(std::size_t s) const {
    return s * front_->words_per_shard();
  }
  std::size_t total_words() const { return front_->words(); }

 private:
  std::unique_ptr<Front> front_;
};

/// The backend a chain of decorators (each exposing inner()) wraps.
template <typename B>
const auto& innermost(const B& b) {
  if constexpr (requires { b.inner(); }) {
    return innermost(b.inner());
  } else {
    return b;
  }
}

// ---------------------------------------------------------------------------
// Results

struct AbdCounters {
  std::uint64_t messages = 0;
  std::uint64_t rounds = 0;
  std::uint64_t fast_reads = 0;
  std::uint64_t fast_fallbacks = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t round_timeouts = 0;
};

/// What one client thread measured. Cache-line aligned: every operation
/// bumps these counters, and clients' records sit side by side.
struct alignas(asnap::kCacheLine) ClientOut {
  Hist scan;    ///< every scan call, global scans included
  Hist update;  ///< submit-to-ack
  Hist connect;
  Hist scan_hit;   ///< traced: svc scans served by the cache
  Hist scan_miss;  ///< traced: svc scans that reached the backend
  std::uint64_t scans = 0;
  std::uint64_t globals = 0;
  std::uint64_t updates = 0;  ///< acked
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t view_errors = 0;
  std::uint64_t svc_scan_ns = 0;        ///< traced: svc scan span time
  std::uint64_t svc_scan_child_ns = 0;  ///< traced: core time under it
  RegCounts regs;
  std::optional<Tracer> tracer;
};

struct PassResult {
  ClientOut total;  ///< merged over clients (tracer: merged aggregates)
  std::vector<std::vector<SpanRecord>> sampled_spans;  ///< per client
  double elapsed_s = 0;
  std::vector<std::uint64_t> setup_ns;  ///< one sample per set-up
  std::size_t words_per_backend = 0;
  asnap::svc::ServiceStats svc;
  asnap::mvcc::GateStats cache_gate;
  std::optional<asnap::mvcc::GateStats> a4_gate;
  asnap::shard::FabricStats fabric;
  asnap::core::ScanStats core;  ///< summed; max_double_collects is the max
  std::optional<AbdCounters> abd;
  std::optional<std::string> lin_violation;  ///< recorded passes only
  std::uint64_t checked_ops = 0;

  std::uint64_t completed() const {
    return total.scans + total.globals + total.updates;
  }
  /// Lemma 3.4: a scan finishes within n+1 double collects.
  bool double_collect_bound_ok() const {
    return core.max_double_collects <= words_per_backend + 1;
  }
  bool correct() const {
    return total.view_errors == 0 && !lin_violation.has_value() &&
           double_collect_bound_ok();
  }
};

// ---------------------------------------------------------------------------
// The pass

template <typename Stack, bool kTraced>
class Pass {
 public:
  using Front = typename Stack::Front;
  using Session = std::decay_t<decltype(std::declval<Front&>()
                                            .connect(asnap::svc::ClientId{0},
                                                     std::chrono::nanoseconds{0})
                                            .session)>;

  Pass(const Workload& w, std::uint64_t seed, asnap::lin::Recorder* recorder)
      : w_(w),
        seed_(seed),
        rec_(recorder),
        outs_(w.clients),
        sessions_(w.clients) {}

  Pass(const Pass&) = delete;
  Pass& operator=(const Pass&) = delete;
  ~Pass() { stop_and_join(); }

  /// Construct the stack, prime every word and connect every client's
  /// session. Returns the elapsed time: the benchmark's set-up time. The
  /// client threads are the benchmark's own machinery, so they start
  /// before the clock does and wait for run().
  template <typename Make>
  std::uint64_t setup(Make& make) {
    threads_.reserve(w_.clients);
    for (std::size_t c = 0; c < w_.clients; ++c) {
      threads_.emplace_back([this, c] { client(c); });
    }
    const std::uint64_t t0 = now_ns();
    stack_ = std::make_unique<Stack>(w_, make);
    prime();
    for (std::size_t c = 0; c < w_.clients; ++c) {
      const std::uint64_t t = now_ns();
      auto r = stack_->front().connect(static_cast<asnap::svc::ClientId>(c),
                                       std::chrono::seconds(1));
      outs_[c].connect.record(now_ns() - t);
      if (r.error == asnap::svc::SvcError::kOk) {
        sessions_[c] = r.session;
      } else {
        ++outs_[c].attempted;
        ++outs_[c].failed;
      }
    }
    return now_ns() - t0;
  }

  /// Release the clients for `seconds`, or until each has issued
  /// `op_budget` operations (0 = no budget); then stop and join them.
  void run(double seconds, std::size_t op_budget) {
    op_budget_ = op_budget;
    const std::uint64_t t_go = now_ns();
    phase_.store(kRun, std::memory_order_release);
    phase_.notify_all();
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(seconds);
    if (op_budget == 0) {
      std::this_thread::sleep_until(deadline);
    } else {
      while (std::chrono::steady_clock::now() < deadline &&
             done_.load() < w_.clients) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    stop_and_join();
    elapsed_s_ = static_cast<double>(now_ns() - t_go) / 1e9;
  }

  /// Stop the clients (without running them if run() was never called)
  /// and join them. Idempotent.
  void stop_and_join() {
    stop_.store(true, std::memory_order_release);
    int expected = kWait;
    phase_.compare_exchange_strong(expected, kAbandon);
    phase_.notify_all();
    threads_.clear();
  }

  /// Durations of the clients' connect calls (complete once setup()
  /// returned).
  Hist connect_hist() const {
    Hist h;
    for (const ClientOut& c : outs_) h.merge(c.connect);
    return h;
  }

  /// Merge what the clients measured and read every layer's public stats.
  /// Call after run().
  PassResult collect() {
    PassResult out;
    out.elapsed_s = elapsed_s_;
    out.words_per_backend = stack_->backend(0).size();
    for (ClientOut& c : outs_) {
      ClientOut& t = out.total;
      t.scan.merge(c.scan);
      t.update.merge(c.update);
      t.connect.merge(c.connect);
      t.scan_hit.merge(c.scan_hit);
      t.scan_miss.merge(c.scan_miss);
      t.scans += c.scans;
      t.globals += c.globals;
      t.updates += c.updates;
      t.attempted += c.attempted;
      t.failed += c.failed;
      t.view_errors += c.view_errors;
      t.svc_scan_ns += c.svc_scan_ns;
      t.svc_scan_child_ns += c.svc_scan_child_ns;
      t.regs.reads += c.regs.reads;
      t.regs.writes += c.regs.writes;
      if (c.tracer) {
        if (!t.tracer) t.tracer.emplace(0);
        c.tracer->merge_into(*t.tracer);
        out.sampled_spans.push_back(c.tracer->sample());
      }
    }
    Front& front = stack_->front();
    out.svc = front.stats();
    for (std::size_t s = 0; s < stack_->services(); ++s) {
      const asnap::mvcc::GateStats g = stack_->service(s).cache_gate_stats();
      out.cache_gate.published += g.published;
      out.cache_gate.refcount_high_water =
          std::max(out.cache_gate.refcount_high_water, g.refcount_high_water);
      out.cache_gate.saturation_stalls += g.saturation_stalls;
      out.cache_gate.grace_pending += g.grace_pending;

      const auto& backend = innermost(stack_->backend(s));
      for (std::size_t i = 0; i < backend.size(); ++i) {
        const asnap::core::ScanStats& st =
            backend.stats(static_cast<ProcessId>(i));
        out.core.scans += st.scans;
        out.core.updates += st.updates;
        out.core.double_collects += st.double_collects;
        out.core.borrowed_views += st.borrowed_views;
        out.core.max_double_collects =
            std::max(out.core.max_double_collects, st.max_double_collects);
      }
      if constexpr (requires { backend.gate_stats(); }) {
        out.a4_gate = backend.gate_stats();
      }
      if constexpr (requires { backend.cluster(); }) {
        out.abd = abd_counters(backend.cluster());
      } else if constexpr (requires { backend.messages_sent(); }) {
        out.abd = abd_counters(backend);
      }
    }
    if constexpr (Stack::kFabric) out.fabric = front.fabric_stats();
    if (rec_ != nullptr) {
      const asnap::lin::History h = rec_->take();
      out.checked_ops = h.total_ops();
      out.lin_violation = asnap::lin::check_single_writer(h);
    }
    return out;
  }

 private:
  static constexpr int kWait = 0;
  static constexpr int kRun = 1;
  static constexpr int kAbandon = 2;
  /// Client ids of the set-up sessions that prime the words.
  static constexpr asnap::svc::ClientId kPrimeClient = 1ULL << 32;

  struct Pending {
    std::uint64_t seq;
    asnap::lin::Time inv;
    std::uint64_t t0;
  };

  template <typename X>
  static AbdCounters abd_counters(const X& x) {
    return {x.messages_sent(),  x.protocol_rounds(),  x.fast_reads(),
            x.fast_fallbacks(), x.retransmits_sent(), x.round_timeouts()};
  }

  asnap::lin::Time tick() { return rec_ != nullptr ? rec_->tick() : 0; }

  /// One acked update per word, through each service, from set-up sessions
  /// that disconnect before the clients connect.
  void prime() {
    const auto timeout = std::chrono::seconds(1);
    for (std::size_t s = 0; s < stack_->services(); ++s) {
      auto& service = stack_->service(s);
      const std::size_t base = stack_->base(s);
      std::vector<typename Stack::Service::ClientSession> sessions;
      for (std::size_t k = 0; k < service.slots(); ++k) {
        auto r = service.connect(kPrimeClient + k, timeout);
        if (r.error != asnap::svc::SvcError::kOk) {
          throw std::runtime_error(std::string("priming connect failed: ") +
                                   asnap::svc::error_name(r.error));
        }
        sessions.push_back(r.session);
      }
      for (auto& sess : sessions) {
        const asnap::lin::Time inv = tick();
        const auto u = service.submit_update(
            sess, [&](ProcessId local, std::uint64_t seq) {
              return Tag{static_cast<ProcessId>(base + local), seq};
            });
        const auto f = service.flush(sess);
        const asnap::lin::Time res = tick();
        if (u.error != asnap::svc::SvcError::kOk ||
            f.error != asnap::svc::SvcError::kOk || f.flushed_through < u.seq) {
          throw std::runtime_error("priming update failed");
        }
        const std::size_t word = base + sess.slot();
        if (rec_ != nullptr) {
          rec_->add_update(static_cast<ProcessId>(word), word,
                           Tag{static_cast<ProcessId>(word), u.seq}, inv, res);
        }
      }
      for (auto& sess : sessions) service.disconnect(sess);
    }
  }

  /// Per-client loop state.
  struct Client {
    ClientOut& out;
    Session sess;
    std::vector<Pending> pending;
    std::vector<std::uint64_t> last_seen;  ///< per word: newest seq seen
    std::size_t slot = 0;                  ///< leased word (global index)
  };

  void begin(SpanKind k) {
    if constexpr (kTraced) t_tracer->begin(k);
  }
  std::pair<std::uint64_t, std::uint64_t> end() {
    if constexpr (kTraced) return t_tracer->end();
    return {0, 0};
  }

  /// Acknowledge every pending submit covered by a flush through `ft`.
  void ack_through(Client& cl, std::uint64_t ft) {
    if (cl.pending.empty() || cl.pending.front().seq > ft) return;
    const std::uint64_t t = now_ns();
    const asnap::lin::Time res = tick();
    std::size_t i = 0;
    for (; i < cl.pending.size() && cl.pending[i].seq <= ft; ++i) {
      const Pending& p = cl.pending[i];
      cl.out.update.record(t - p.t0);
      ++cl.out.updates;
      cl.last_seen[cl.slot] = std::max(cl.last_seen[cl.slot], p.seq);
      if (rec_ != nullptr) {
        rec_->add_update(static_cast<ProcessId>(cl.slot), cl.slot,
                         Tag{static_cast<ProcessId>(cl.slot), p.seq}, p.inv,
                         res);
      }
    }
    cl.pending.erase(cl.pending.begin(), cl.pending.begin() + i);
  }

  /// Cheap check of every view, in every pass: the right width, each word
  /// holding a value its single writer wrote, and no word older than one
  /// this client already saw or wrote (its operations are sequential, so a
  /// linearizable history shows it monotone views).
  void check_view(Client& cl, const std::vector<Tag>& view, std::size_t base,
                  std::size_t width) {
    bool ok = view.size() == width;
    for (std::size_t j = 0; ok && j < view.size(); ++j) {
      const std::size_t word = base + j;
      const Tag& t = view[j];
      ok = (t.is_initial() || t.writer == word) && t.seq >= cl.last_seen[word];
      cl.last_seen[word] = t.seq;
    }
    if (!ok) ++cl.out.view_errors;
  }

  void record_scan(Client& cl, std::size_t base, std::vector<Tag>&& view,
                   asnap::lin::Time inv, asnap::lin::Time res) {
    if (rec_ != nullptr) {
      rec_->add_scan(static_cast<ProcessId>(cl.slot), base, std::move(view),
                     inv, res);
    }
  }

  void do_global_scan(Client& cl, std::uint64_t t0) {
    if constexpr (Stack::kFabric) {
      Front& front = stack_->front();
      const asnap::lin::Time inv = tick();
      begin(SpanKind::kShardGlobal);
      auto g = front.global_scan();
      end();
      const asnap::lin::Time res = tick();
      cl.out.scan.record(now_ns() - t0);
      ++cl.out.globals;
      check_view(cl, g.view, 0, front.words());
      record_scan(cl, 0, std::move(g.view), inv, res);
    }
  }

  void do_scan(Client& cl, std::uint64_t t0) {
    Front& front = stack_->front();
    const asnap::lin::Time inv = tick();
    begin(SpanKind::kSvcScan);
    auto s = front.scan(cl.sess);
    [[maybe_unused]] const auto [span_ns, child_ns] = end();
    if (s.error != asnap::svc::SvcError::kOk) {
      ++cl.out.failed;
      ack_through(cl, s.flushed_through);
      return;
    }
    const asnap::lin::Time res = tick();
    const std::uint64_t dur = now_ns() - t0;
    ack_through(cl, s.flushed_through);
    cl.out.scan.record(dur);
    ++cl.out.scans;
    if constexpr (kTraced) {
      (s.cache_hit ? cl.out.scan_hit : cl.out.scan_miss).record(span_ns);
      cl.out.svc_scan_ns += span_ns;
      cl.out.svc_scan_child_ns += child_ns;
    }
    std::size_t base = 0;
    if constexpr (requires { s.word_base; }) base = s.word_base;
    check_view(cl, s.view, base, w_.words);
    record_scan(cl, base, std::move(s.view), inv, res);
  }

  void do_flush(Client& cl) {
    begin(SpanKind::kSvcFlush);
    const auto f = stack_->front().flush(cl.sess);
    end();
    if (f.error != asnap::svc::SvcError::kOk) ++cl.out.failed;
    ack_through(cl, f.flushed_through);
  }

  void do_update(Client& cl, std::uint64_t t0) {
    const asnap::lin::Time inv = tick();
    begin(SpanKind::kSvcSubmit);
    const auto r = stack_->front().submit_update(
        cl.sess, [](ProcessId word, std::uint64_t seq) {
          return Tag{word, seq};
        });
    end();
    if (r.error != asnap::svc::SvcError::kOk) {
      ++cl.out.failed;
      ack_through(cl, r.flushed_through);
      return;
    }
    cl.pending.push_back({r.seq, inv, t0});
    ack_through(cl, r.flushed_through);  // a full batch flushes inline
    if (cl.pending.size() >= w_.pipeline) do_flush(cl);
  }

  void client(std::size_t c) {
    ClientOut& out = outs_[c];
    if constexpr (kTraced) {
      out.tracer.emplace(c + 1);
      t_tracer = &*out.tracer;
    }
    t_reg_counts = {};
    int ph = kWait;
    while ((ph = phase_.load(std::memory_order_acquire)) == kWait) {
      phase_.wait(kWait);
    }
    // The session (and the stack) were set up before the phase changed.
    Session& sess = sessions_[c];
    if (!sess.connected()) {
      done_.fetch_add(1);
      return;
    }
    Client cl{out, sess, {},
              std::vector<std::uint64_t>(stack_->total_words(), 0),
              sess.slot()};
    if (ph == kRun) {
      loop(cl, c);
      if (!cl.pending.empty()) {  // acknowledge the tail of the pipeline
        if constexpr (kTraced) t_tracer->begin_op();
        do_flush(cl);
        if constexpr (kTraced) t_tracer->end();
      }
    }
    if (cl.sess.connected()) stack_->front().disconnect(cl.sess);
    out.regs = t_reg_counts;
    t_tracer = nullptr;
    done_.fetch_add(1);
  }

  void loop(Client& cl, std::size_t c) {
    asnap::Rng rng(seed_ * 0x9E3779B97F4A7C15ULL + c + 1);
    for (std::size_t ops = 0; !stop_.load(std::memory_order_relaxed); ++ops) {
      if (op_budget_ != 0 && ops >= op_budget_) break;
      ++cl.out.attempted;
      if constexpr (kTraced) t_tracer->begin_op();
      const std::uint64_t t0 = now_ns();
      if (rng.uniform01() < w_.read_ratio) {
        if (Stack::kFabric && rng.uniform01() < w_.global_ratio) {
          do_global_scan(cl, t0);
        } else {
          do_scan(cl, t0);
        }
      } else {
        do_update(cl, t0);
      }
      if constexpr (kTraced) t_tracer->end();
    }
  }

  const Workload& w_;
  std::uint64_t seed_;
  asnap::lin::Recorder* rec_;
  std::unique_ptr<Stack> stack_;
  std::vector<ClientOut> outs_;
  std::vector<Session> sessions_;  ///< connected by setup(), then handed over
  std::atomic<int> phase_{kWait};
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> done_{0};
  std::size_t op_budget_ = 0;
  double elapsed_s_ = 0;
  std::vector<std::jthread> threads_;  // last: joined before the rest dies
};

// ---------------------------------------------------------------------------
// Entry points

/// `setups` full set-ups (each torn down but the last, whose clients then
/// run for `seconds`); every set-up's time is kept.
template <typename Stack, bool kTraced, typename Make>
PassResult timed_pass(const Workload& w, std::uint64_t seed, double seconds,
                      std::size_t setups, Make make) {
  std::vector<std::uint64_t> setup_ns;
  Hist connects;  // of every set-up
  std::unique_ptr<Pass<Stack, kTraced>> pass;
  for (std::size_t i = 0; i < setups; ++i) {
    if (pass) connects.merge(pass->connect_hist());
    pass.reset();  // tear the previous stack down outside the timing
    pass = std::make_unique<Pass<Stack, kTraced>>(w, seed, nullptr);
    setup_ns.push_back(pass->setup(make));
  }
  pass->run(seconds, 0);
  PassResult out = pass->collect();
  out.total.connect.merge(connects);
  out.setup_ns = std::move(setup_ns);
  return out;
}

/// A short pass of the same workload and seed, every operation recorded and
/// the history checked by lin::check_single_writer.
template <typename Stack, typename Make>
PassResult checked_pass(const Workload& w, std::uint64_t seed,
                        double max_seconds, Make make) {
  asnap::lin::Recorder recorder(w.words * std::max<std::size_t>(1, w.shards));
  Pass<Stack, false> pass(w, seed, &recorder);
  pass.setup(make);
  pass.run(max_seconds, w.check_ops);
  return pass.collect();
}

// ---------------------------------------------------------------------------
// Backend selection

template <typename Stack>
struct StackTag {};

/// No decorator.
template <typename B>
using Bare = B;

template <template <class> class Wrap, typename B>
auto wrap(std::unique_ptr<B> b) {
  if constexpr (std::is_same_v<Wrap<B>, B>) {
    return b;
  } else {
    return std::make_unique<Wrap<B>>(std::move(b));
  }
}

/// Call visit(StackTag<Stack>{}, make) with the stack type and backend
/// factory of workload w. kCounted selects the register-array decorators
/// (CountedRegs) inside A1 and ABD; Wrap decorates the backend the service
/// or fabric sees (TimedCore in the traced run, StaleView and PassThrough
/// in the gate test).
template <bool kCounted, template <class> class Wrap, typename Visit>
PassResult dispatch(const Workload& w, std::uint64_t seed, Visit&& visit) {
  const std::size_t n = w.words;
  switch (w.kind) {
    case Kind::kSvcA4: {
      using A4 = asnap::core::MvccSnapshot<Tag>;
      auto make = [n] { return wrap<Wrap>(std::make_unique<A4>(n, Tag{})); };
      return visit(StackTag<SvcStack<Wrap<A4>>>{}, make);
    }
    case Kind::kShardA1: {
      if constexpr (kCounted) {
        using Regs = CountedRegs<asnap::reg::SharedMemoryRegisterArray, false>;
        using A1 = asnap::core::UnboundedSwSnapshot<Tag, Regs::template Array>;
        auto make = [n] {
          using Inner = asnap::reg::SharedMemoryRegisterArray<typename A1::Record>;
          return wrap<Wrap>(std::make_unique<A1>(
              typename A1::Array(Inner(n, A1::initial_record(n, Tag{})))));
        };
        return visit(StackTag<FabricStack<Wrap<A1>>>{}, make);
      } else {
        using A1 = asnap::core::UnboundedSwSnapshot<Tag>;
        auto make = [n] { return wrap<Wrap>(std::make_unique<A1>(n, Tag{})); };
        return visit(StackTag<FabricStack<Wrap<A1>>>{}, make);
      }
    }
    case Kind::kSvcAbd: {
      if constexpr (kCounted) {
        using Regs = CountedRegs<asnap::abd::AbdRegisterArray, true>;
        using Abd = AbdSnapshot<Tag, Regs::template Array>;
        auto make = [n, seed] {
          return wrap<Wrap>(std::make_unique<Abd>(n, Tag{}, seed));
        };
        return visit(StackTag<SvcStack<Wrap<Abd>>>{}, make);
      } else {
        using Abd = asnap::abd::MessagePassingSnapshot<Tag>;
        auto make = [n, seed] {
          return wrap<Wrap>(std::make_unique<Abd>(n, Tag{}, seed));
        };
        return visit(StackTag<SvcStack<Wrap<Abd>>>{}, make);
      }
    }
  }
  throw std::logic_error("unknown workload kind");
}

}  // namespace perfbench
