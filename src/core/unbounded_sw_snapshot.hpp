// Figure 2 of the paper: the unbounded single-writer atomic snapshot.
//
// Shared state: one SWMR register r_i per process, holding the triple
// (value, seq, view) written in a single atomic write.
//
//   procedure scan_i                         procedure update_i(value)
//     moved[j] := 0 for all j                  view := scan_i   /* embedded */
//     loop:                                    r_i := (value, seq_i + 1, view)
//       a := collect; b := collect
//       if forall j: seq(a_j) = seq(b_j):  return values(b)   /* Obs. 1 */
//       for j with seq(a_j) != seq(b_j):
//         if moved[j] = 1: return view(b_j)                   /* Obs. 2 */
//         moved[j] := 1
//
// Wait-freedom (Lemma 3.4): by pigeonhole, within n+1 double collects either
// one is successful or some process was observed moving twice, so a scan
// performs at most (n+1) * 2n + O(n) primitive register operations and an
// update at most that plus one write — O(n^2).
//
// The register array is a template parameter so the identical algorithm runs
// over in-memory registers (reg::SharedMemoryRegisterArray) or over the
// ABD message-passing emulation (abd::AbdRegisterArray), realizing the
// Section 6 remark about message-passing snapshots. An array may batch a
// whole collect (abd::AbdRegisterArray does, in one quorum round); the
// double collect above it is unchanged.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/config.hpp"
#include "core/snapshot_types.hpp"
#include "reg/register_array.hpp"
#include "trace/event.hpp"

namespace asnap::core {

/// Contents of register r_i in Figure 2. Written in one atomic write.
template <typename T>
struct UnboundedRecord {
  T value;                 ///< last value updated by the owner
  std::uint64_t seq = 0;   ///< owner's update count (unbounded!)
  std::vector<T> view;     ///< snapshot embedded in the writing update
};

template <typename T,
          template <class> class ArrayT = reg::SharedMemoryRegisterArray>
class UnboundedSwSnapshot {
 public:
  using Record = UnboundedRecord<T>;
  using Array = ArrayT<Record>;

  /// Initial register contents for n processes (exposed so external register
  /// providers, e.g. ABD, can be pre-initialized identically).
  static Record initial_record(std::size_t n, const T& init) {
    return Record{init, 0, std::vector<T>(n, init)};
  }

  /// Construct over a default-allocated in-memory register array.
  UnboundedSwSnapshot(std::size_t n, const T& init)
      : regs_(n, initial_record(n, init)), per_process_(n) {}

  /// Construct over an externally provided register array of n registers,
  /// each already holding initial_record(n, init).
  explicit UnboundedSwSnapshot(Array regs)
      : regs_(std::move(regs)), per_process_(regs_.size()) {}

  std::size_t size() const { return regs_.size(); }

  /// Figure 2, procedure update_i.
  void update(ProcessId i, T value) {
    ASNAP_ASSERT(i < size());
    WellFormednessGuard guard(per_process_[i].busy);
    ASNAP_TRACE_EVENT(trace::EventKind::kUpdateBegin, i,
                      per_process_[i].seq + 1);
    std::vector<T> view = scan_impl(i);  // embedded scan
    PerProcess& me = per_process_[i];
    ++me.seq;
    regs_.write(i, Record{std::move(value), me.seq, std::move(view)});
    ++me.stats.updates;
    ASNAP_TRACE_EVENT(trace::EventKind::kUpdateEnd, i, me.seq);
  }

  /// Figure 2, procedure scan_i.
  std::vector<T> scan(ProcessId i) {
    ASNAP_ASSERT(i < size());
    WellFormednessGuard guard(per_process_[i].busy);
    return scan_impl(i);
  }

  const ScanStats& stats(ProcessId i) const { return per_process_[i].stats; }

 private:
  struct alignas(kCacheLine) PerProcess {
    std::uint64_t seq = 0;  ///< local copy of seq_i, persists across updates
    ScanStats stats;
    WellFormednessFlag busy;
  };

  /// One collect: n register reads, or the array's own batched collect
  /// when it has one (reg::SwmrRegisterArray documents its contract).
  void collect(ProcessId reader, std::vector<Record>& out) {
    if constexpr (requires { regs_.collect(reader, out); }) {
      regs_.collect(reader, out);
      ASNAP_ASSERT(out.size() == size());
    } else {
      const std::size_t n = size();
      out.clear();
      out.reserve(n);
      for (std::size_t j = 0; j < n; ++j) {
        out.push_back(regs_.read(static_cast<ProcessId>(j), reader));
      }
    }
  }

  std::vector<T> scan_impl(ProcessId i) {
    const std::size_t n = size();
    PerProcess& me = per_process_[i];
    std::vector<std::uint8_t> moved(n, 0);
    std::vector<Record> a;
    std::vector<Record> b;
    std::uint64_t attempts = 0;
    ASNAP_TRACE_EVENT(trace::EventKind::kScanBegin, i, trace::kAlgoUnboundedSw,
                      n);

    for (;;) {
      ASNAP_TRACE_EVENT(trace::EventKind::kCollectBegin, i, attempts);
      collect(i, a);
      ASNAP_TRACE_EVENT(trace::EventKind::kCollectEnd, i, attempts);
      ASNAP_TRACE_EVENT(trace::EventKind::kCollectBegin, i, attempts);
      collect(i, b);
      ASNAP_TRACE_EVENT(trace::EventKind::kCollectEnd, i, attempts);
      ++attempts;

      bool identical = true;
      for (std::size_t j = 0; j < n; ++j) {
        if (a[j].seq != b[j].seq) {
          identical = false;
          break;
        }
      }
      if (identical) {  // successful double collect (Observation 1)
        ASNAP_TRACE_EVENT(trace::EventKind::kDoubleCollectMatch, i, attempts);
        finish_scan(i, me, attempts, /*borrowed=*/false);
        std::vector<T> values;
        values.reserve(n);
        for (std::size_t j = 0; j < n; ++j) values.push_back(b[j].value);
        return values;
      }
      ASNAP_TRACE_EVENT(trace::EventKind::kDoubleCollectMismatch, i, attempts);

      for (std::size_t j = 0; j < n; ++j) {
        if (a[j].seq == b[j].seq) continue;
        if (moved[j] != 0) {  // P_j moved twice: borrow its view (Obs. 2)
          ASNAP_TRACE_EVENT(trace::EventKind::kViewBorrowed, i, j);
          finish_scan(i, me, attempts, /*borrowed=*/true);
          ASNAP_ASSERT(b[j].view.size() == n);
          return b[j].view;
        }
        ASNAP_TRACE_EVENT(trace::EventKind::kMovedDetected, i, j);
        moved[j] = 1;
      }
      // Wait-freedom invariant (Lemma 3.4): the pigeonhole bound.
      ASNAP_ASSERT_MSG(attempts <= n + 1,
                       "scan exceeded the n+1 double-collect bound");
    }
  }

  void finish_scan([[maybe_unused]] ProcessId i, PerProcess& me,
                   std::uint64_t attempts, bool borrowed) {
    ++me.stats.scans;
    me.stats.double_collects += attempts;
    if (attempts > me.stats.max_double_collects) {
      me.stats.max_double_collects = attempts;
    }
    if (borrowed) ++me.stats.borrowed_views;
    ASNAP_TRACE_EVENT(trace::EventKind::kScanEnd, i, attempts,
                      borrowed ? 1 : 0);
  }

  Array regs_;
  std::vector<PerProcess> per_process_;
};

}  // namespace asnap::core
