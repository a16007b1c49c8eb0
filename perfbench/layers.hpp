// Per-layer measurement from outside the library: spans around the calls
// into each layer's public functions, and the decorators that put those
// calls where the benchmark can see them.
//
// Spans exist only in the traced run. The untraced run instantiates the
// workloads over the plain backends, so none of this code is on its path.
//
// Every span carries the benchmark-local id of the client operation that
// caused it and the id of its parent span. Spans nest strictly on one
// thread (the service, the fabric and the snapshot cores all run a
// caller's work on the caller's thread; the ABD node threads serve
// messages, never client calls), so a span's self time is its duration
// minus the sum of its children's durations.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "abd/abd_register.hpp"
#include "common/config.hpp"
#include "core/snapshot_types.hpp"
#include "core/unbounded_sw_snapshot.hpp"
#include "hist.hpp"

namespace perfbench {

using asnap::ProcessId;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Spans

enum class Layer : std::uint8_t { kOp, kSvc, kShard, kCore, kAbd };
inline constexpr std::size_t kLayers = 5;
inline constexpr std::array<const char*, kLayers> kLayerNames = {
    "op", "svc", "shard", "core", "abd"};

enum class SpanKind : std::uint8_t {
  kOp,           ///< one client operation of the closed loop (root)
  kSvcScan,      ///< SnapshotService / fabric shard-local scan()
  kSvcSubmit,    ///< submit_update()
  kSvcFlush,     ///< flush()
  kShardGlobal,  ///< ShardedSnapshotFabric::global_scan()
  kCoreScan,     ///< backend scan() called by the service
  kCoreUpdate,   ///< backend update() called by a flush
  kAbdRead,      ///< one ABD register read (query [+ write-back] rounds)
  kAbdWrite,     ///< one ABD register write round
};
inline constexpr std::size_t kSpanKinds = 9;
inline constexpr std::array<const char*, kSpanKinds> kSpanNames = {
    "op",         "svc.scan",    "svc.submit",
    "svc.flush",  "shard.global_scan", "core.scan",
    "core.update", "abd.read",   "abd.write"};
inline constexpr std::array<Layer, kSpanKinds> kSpanLayer = {
    Layer::kOp,    Layer::kSvc,  Layer::kSvc,  Layer::kSvc, Layer::kShard,
    Layer::kCore,  Layer::kCore, Layer::kAbd,  Layer::kAbd};

struct SpanRecord {
  std::uint64_t op = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  SpanKind kind = SpanKind::kOp;
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
};

/// One client thread's span stack and in-memory aggregates.
class Tracer {
 public:
  static constexpr std::uint64_t kSampleEveryOps = 512;
  static constexpr std::size_t kSampleCap = 2048;

  explicit Tracer(std::uint64_t thread_index)
      : next_id_(thread_index << 40), next_op_(thread_index << 40) {}

  /// Start a new root operation; its spans are sampled 1 in kSampleEveryOps.
  void begin_op() {
    ++next_op_;
    ++ops_;
    sampling_ = (ops_ % kSampleEveryOps) == 0 && sample_.size() < kSampleCap;
    begin(SpanKind::kOp);
  }

  void begin(SpanKind kind) {
    stack_.push_back(
        Frame{kind, ++next_id_, stack_.empty() ? 0 : stack_.back().id,
              now_ns(), 0});
  }

  /// Close the innermost span. Returns {duration, time covered by children}.
  std::pair<std::uint64_t, std::uint64_t> end() {
    const std::uint64_t t1 = now_ns();
    const Frame f = stack_.back();
    stack_.pop_back();
    const std::uint64_t dur = t1 - f.t0;
    const auto k = static_cast<std::size_t>(f.kind);
    kind_dur_[k].record(dur);
    layer_self_ns_[static_cast<std::size_t>(kSpanLayer[k])] +=
        dur - std::min(dur, f.child_ns);
    if (!stack_.empty()) stack_.back().child_ns += dur;
    if (sampling_ && sample_.size() < kSampleCap) {
      sample_.push_back({next_op_, f.id, f.parent, f.kind, f.t0, t1});
    }
    return {dur, f.child_ns};
  }

  const Hist& kind_hist(SpanKind k) const {
    return kind_dur_[static_cast<std::size_t>(k)];
  }
  std::uint64_t layer_self_ns(Layer l) const {
    return layer_self_ns_[static_cast<std::size_t>(l)];
  }
  const std::vector<SpanRecord>& sample() const { return sample_; }

  void merge_into(Tracer& total) const {
    for (std::size_t k = 0; k < kSpanKinds; ++k) {
      total.kind_dur_[k].merge(kind_dur_[k]);
    }
    for (std::size_t l = 0; l < kLayers; ++l) {
      total.layer_self_ns_[l] += layer_self_ns_[l];
    }
  }

 private:
  struct Frame {
    SpanKind kind;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t t0;
    std::uint64_t child_ns;
  };

  std::vector<Frame> stack_;
  std::array<Hist, kSpanKinds> kind_dur_;
  std::array<std::uint64_t, kLayers> layer_self_ns_{};
  std::vector<SpanRecord> sample_;
  std::uint64_t next_id_;
  std::uint64_t next_op_;
  std::uint64_t ops_ = 0;
  bool sampling_ = false;
};

/// The calling thread's tracer; null outside traced client threads (set-up
/// priming, the ABD node threads), where spans are not recorded.
inline thread_local Tracer* t_tracer = nullptr;

class Span {
 public:
  explicit Span(SpanKind kind) : on_(t_tracer != nullptr) {
    if (on_) t_tracer->begin(kind);
  }
  ~Span() {
    if (on_) t_tracer->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_;
};

/// Write sampled spans as Chrome trace-event JSON (Perfetto opens it).
inline bool write_chrome_trace(const std::string& path,
                               const std::vector<std::vector<SpanRecord>>& per_thread) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::uint64_t base = ~std::uint64_t{0};
  for (const auto& spans : per_thread) {
    for (const SpanRecord& s : spans) base = std::min(base, s.t0);
  }
  std::fputs("{\"traceEvents\":[", f);
  bool first = true;
  for (std::size_t tid = 0; tid < per_thread.size(); ++tid) {
    for (const SpanRecord& s : per_thread[tid]) {
      const auto k = static_cast<std::size_t>(s.kind);
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%zu,"
                   "\"args\":{\"op\":%llu,\"span\":%llu,\"parent\":%llu}}",
                   first ? "" : ",", kSpanNames[k],
                   kLayerNames[static_cast<std::size_t>(kSpanLayer[k])],
                   static_cast<double>(s.t0 - base) / 1e3,
                   static_cast<double>(s.t1 - s.t0) / 1e3, tid,
                   static_cast<unsigned long long>(s.op),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent));
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// Backend decorators (the Backend contract of svc::SnapshotService:
// size(), update(pid, v), scan(pid)). Each owns the backend it wraps and
// exposes it through inner(), so stats stay reachable.

/// Times the core layer: every backend call the service or fabric makes.
template <typename Inner>
class TimedCore {
 public:
  explicit TimedCore(std::unique_ptr<Inner> inner) : inner_(std::move(inner)) {}
  std::size_t size() const { return inner_->size(); }
  template <typename T>
  void update(ProcessId i, T v) {
    Span s(SpanKind::kCoreUpdate);
    inner_->update(i, std::move(v));
  }
  auto scan(ProcessId i) {
    Span s(SpanKind::kCoreScan);
    return inner_->scan(i);
  }
  const Inner& inner() const { return *inner_; }

 private:
  std::unique_ptr<Inner> inner_;
};

/// Register operations issued by the calling thread (counts only: a
/// shared-memory register access is too short to time per call).
struct RegCounts {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
};
inline thread_local RegCounts t_reg_counts;

/// SWMR register-array decorator, passed to core::UnboundedSwSnapshot
/// through its explicit-Array constructor. Counts every read and write;
/// with kTimed it also opens an ABD span around each (for
/// abd::AbdRegisterArray, where one access is a quorum round or two).
template <template <class> class InnerArray, bool kTimed>
struct CountedRegs {
  template <typename Rec>
  class Array {
   public:
    explicit Array(InnerArray<Rec> inner) : inner_(std::move(inner)) {}
    std::size_t size() const { return inner_.size(); }
    Rec read(ProcessId owner, ProcessId reader) const {
      ++t_reg_counts.reads;
      if constexpr (kTimed) {
        Span s(SpanKind::kAbdRead);
        return inner_.read(owner, reader);
      } else {
        return inner_.read(owner, reader);
      }
    }
    void write(ProcessId owner, Rec rec) {
      ++t_reg_counts.writes;
      if constexpr (kTimed) {
        Span s(SpanKind::kAbdWrite);
        inner_.write(owner, std::move(rec));
      } else {
        inner_.write(owner, std::move(rec));
      }
    }

   private:
    InnerArray<Rec> inner_;
  };
};

/// Figure 2 over ABD registers, composed exactly as
/// abd::MessagePassingSnapshot composes it, but over a caller-chosen
/// register-array decorator so the ABD layer can be timed and counted.
template <typename T, template <class> class ArrayT>
class AbdSnapshot {
 public:
  using Snapshot = asnap::core::UnboundedSwSnapshot<T, ArrayT>;
  using Record = typename Snapshot::Record;

  AbdSnapshot(std::size_t n, const T& init, std::uint64_t seed,
              asnap::abd::AbdConfig config = {})
      : cluster_(n, n, Snapshot::initial_record(n, init), seed, config),
        snapshot_(typename Snapshot::Array(
            asnap::abd::AbdRegisterArray<Record>(cluster_))) {}

  std::size_t size() const { return snapshot_.size(); }
  void update(ProcessId i, T value) { snapshot_.update(i, std::move(value)); }
  std::vector<T> scan(ProcessId i) { return snapshot_.scan(i); }
  const asnap::core::ScanStats& stats(ProcessId i) const {
    return snapshot_.stats(i);
  }
  const asnap::abd::AbdCluster<Record>& cluster() const { return cluster_; }

 private:
  asnap::abd::AbdCluster<Record> cluster_;
  Snapshot snapshot_;
};

}  // namespace perfbench
