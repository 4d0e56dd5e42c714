// Statistics primitives: counters, distributions, and latency recorders.
//
// Histogram uses fixed log2 bucketing so percentile queries are cheap and
// allocation-free after construction. LatencyRecorder wraps a Histogram with
// sum/min/max so benches can report mean and tail latencies.

#ifndef SSMC_SRC_SIM_STATS_H_
#define SSMC_SRC_SIM_STATS_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <string>

#include "src/support/units.h"

namespace ssmc {

// Monotonic event/byte counter.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }
  void Reset() { value_ = 0; }

  // Folds another counter in (sharded runs aggregate into one report).
  void Merge(const Counter& other) { value_ += other.value_; }

 private:
  uint64_t value_ = 0;
};

// One Counter member of a stats struct and the name it is reported under.
// A struct that lists its counters once as `static constexpr auto Fields()`
// gets Merge and delta extraction from MergeFields/AddFieldDeltas, and the
// metrics registry export from the same kind of table (src/obs/stats_export.h).
template <typename S>
struct CounterField {
  const char* name;
  Counter S::*member;
};

// Folds every listed counter of `from` into `into`.
template <typename S>
void MergeFields(S& into, const S& from) {
  for (const CounterField<S>& f : S::Fields()) {
    (into.*f.member).Merge(from.*f.member);
  }
}

// Adds (after - before) for every listed counter: windows a cumulative
// struct to one interval.
template <typename S>
void AddFieldDeltas(S& into, const S& after, const S& before) {
  for (const CounterField<S>& f : S::Fields()) {
    (into.*f.member).Add((after.*f.member).value() - (before.*f.member).value());
  }
}

// Log2-bucketed histogram of non-negative 64-bit samples. Bucket b holds
// samples in [2^(b-1), 2^b) with bucket 0 holding {0}. Supports approximate
// quantiles (answer is the upper bound of the containing bucket, i.e. within
// 2x of the true value — adequate for order-of-magnitude latency tails).
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void Record(uint64_t sample);

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  // Approximate quantile, q in [0, 1]. Returns the upper edge of the bucket
  // containing the q-th sample (exact for min/max extremes).
  uint64_t Quantile(double q) const;

  uint64_t bucket_count(int b) const { return buckets_[b]; }

  void Reset();

  // Merges another histogram into this one.
  void Merge(const Histogram& other);

 private:
  std::array<uint64_t, kBuckets> buckets_ = {};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = std::numeric_limits<uint64_t>::max();
  uint64_t max_ = 0;
};

// Records operation latencies (durations in ns).
class LatencyRecorder {
 public:
  void Record(Duration d) { hist_.Record(static_cast<uint64_t>(std::max<Duration>(d, 0))); }

  uint64_t count() const { return hist_.count(); }
  double mean_ns() const { return hist_.mean(); }
  uint64_t min_ns() const { return hist_.min(); }
  uint64_t max_ns() const { return hist_.max(); }
  uint64_t p50_ns() const { return hist_.Quantile(0.50); }
  uint64_t p95_ns() const { return hist_.Quantile(0.95); }
  uint64_t p99_ns() const { return hist_.Quantile(0.99); }
  uint64_t total_ns() const { return hist_.sum(); }

  const Histogram& histogram() const { return hist_; }
  void Reset() { hist_.Reset(); }

  // Merges another recorder's samples into this one. Because the histogram
  // is a fixed bucketing, merging shard recorders is exactly equivalent to
  // one recorder having seen the concatenated sample streams.
  void Merge(const LatencyRecorder& other) { hist_.Merge(other.hist_); }

  // "mean 1.2 us, p99 14 us, max 30 us (n=...)"
  std::string Summary() const;

 private:
  Histogram hist_;
};

}  // namespace ssmc

#endif  // SSMC_SRC_SIM_STATS_H_
