// Per-replica responsiveness estimates of one ABD quorum client.
//
// The retransmission loop of a quorum round (quorum.hpp) needs a notion of
// "how long should a reply from a healthy replica take" that tracks the
// actual network: on a fast loopback a lost frame should be resent at RTT
// scale, and on a 25 ms link a retransmit before ~4 RTTs mostly duplicates
// traffic still in flight. The client therefore keeps an EWMA of observed
// reply round-trips per replica and derives a round's first retransmission
// timeout from the slowest estimate.
//
// Concurrency: cells are written only by the thread driving the client's
// single in-flight operation. They are relaxed atomics so stats readers on
// other threads stay race-free under TSan.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

namespace asnap::abd {

class ReplicaHealth {
 public:
  explicit ReplicaHealth(std::size_t replicas) : ewma_ns_(replicas) {
    for (auto& cell : ewma_ns_) cell.store(0, std::memory_order_relaxed);
  }

  /// Fold one observed reply round-trip from `replica` into its estimate
  /// (EWMA, alpha = 1/4). A zero estimate means "no sample yet"; samples
  /// are clamped up to 1ns so a recorded cell never reads as empty.
  void record(std::size_t replica, std::chrono::nanoseconds rtt) {
    auto& cell = ewma_ns_[replica];
    const auto sample = std::max<std::int64_t>(rtt.count(), 1);
    const auto old = static_cast<std::int64_t>(
        cell.load(std::memory_order_relaxed));
    const std::int64_t next = old == 0 ? sample : old + (sample - old) / 4;
    cell.store(static_cast<std::uint64_t>(next), std::memory_order_relaxed);
  }

  /// Estimate for `replica`; 0ns when no reply has been sampled.
  std::chrono::nanoseconds rtt(std::size_t replica) const {
    return std::chrono::nanoseconds(static_cast<std::int64_t>(
        ewma_ns_[replica].load(std::memory_order_relaxed)));
  }

  /// Slowest per-replica estimate (0ns if no samples): a quorum must hear
  /// from several replicas, so the adaptive RTO is sized to the slowest.
  std::chrono::nanoseconds max_rtt() const {
    std::int64_t worst = 0;
    for (std::size_t j = 0; j < ewma_ns_.size(); ++j) {
      worst = std::max(worst, rtt(j).count());
    }
    return std::chrono::nanoseconds(worst);
  }

 private:
  std::vector<std::atomic<std::uint64_t>> ewma_ns_;
};

}  // namespace asnap::abd
