// Fine-grained latency histogram for the benchmark's percentiles.
//
// Same log-linear layout as trace::LogHistogram, but with 128 linear
// sub-buckets per power-of-two octave, so every bucket is at most 1/128
// (0.79%) of its lower bound wide. The library's 16 sub-buckets quantize at
// 6.25%, which is as wide as the whole run-to-run spread of a sub-µs scan
// p50. percentile() also interpolates by rank inside the bucket, so a
// reported percentile moves continuously with the samples instead of
// snapping to bucket edges. Footprint: 7424 counters (58 KiB), fixed.
//
// Not thread-safe: one histogram per client thread, folded with merge().
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

namespace perfbench {

class Hist {
 public:
  static constexpr unsigned kSubBits = 7;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = (64 - kSubBits + 1) * kSub;

  Hist() : counts_(kBuckets, 0) {}

  void record(std::uint64_t v) {
    ++counts_[index(v)];
    ++count_;
    sum_ += v;
  }

  void merge(const Hist& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
    sum_ += other.sum_;
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }

  /// q-th quantile (0 < q < 1) of the recorded values; 0 when empty.
  double percentile(double q) const {
    if (count_ == 0) return 0.0;
    const double rank = q * static_cast<double>(count_);
    double below = 0.0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (counts_[i] == 0) continue;
      const double c = static_cast<double>(counts_[i]);
      if (below + c >= rank) {
        const double frac = (rank - below) / c;
        return static_cast<double>(lower(i)) +
               frac * static_cast<double>(width(i));
      }
      below += c;
    }
    return static_cast<double>(lower(kBuckets - 1));
  }

 private:
  static std::size_t index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const unsigned msb = 63 - static_cast<unsigned>(std::countl_zero(v));
    const unsigned shift = msb - kSubBits;
    return static_cast<std::size_t>(((shift + 1) << kSubBits) +
                                    ((v >> shift) & (kSub - 1)));
  }
  static std::uint64_t lower(std::size_t i) {
    if (i < kSub) return i;
    const unsigned shift = static_cast<unsigned>(i >> kSubBits) - 1;
    return (kSub + (i & (kSub - 1))) << shift;
  }
  static std::uint64_t width(std::size_t i) {
    if (i < kSub) return 1;
    return std::uint64_t{1} << ((i >> kSubBits) - 1);
  }

  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
};

}  // namespace perfbench
