#ifndef XSDF_OBS_METRICS_H_
#define XSDF_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace xsdf::obs {

/// Stripe count for the hot-path instruments (power of two). Each
/// stripe lives on its own cache lines, so concurrent workers bump
/// disjoint lines; snapshots fold the stripes back together.
inline constexpr size_t kMetricStripes = 8;

/// The stripe the calling thread writes to, taken on its first use
/// from a process-wide counter: up to kMetricStripes threads that
/// record at the same time get distinct stripes.
inline size_t MetricStripeIndex() {
  static std::atomic<size_t> next_stripe{0};
  thread_local const size_t stripe =
      next_stripe.fetch_add(1, std::memory_order_relaxed) &
      (kMetricStripes - 1);
  return stripe;
}

/// A monotonically increasing counter. Increment is one relaxed
/// fetch_add on the calling thread's stripe; Value folds the stripes
/// (not linearizable against concurrent increments, like every
/// snapshot in this registry).
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    cells_[MetricStripeIndex()].value.fetch_add(n,
                                                std::memory_order_relaxed);
  }
  uint64_t Value() const {
    uint64_t total = 0;
    for (const Cell& cell : cells_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }
  void Reset() {
    for (Cell& cell : cells_) cell.value.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> value{0};
  };
  Cell cells_[kMetricStripes];
};

/// A last-writer-wins instantaneous value (queue depths, cache
/// occupancy published at export time).
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A point-in-time copy of one histogram, detached from its atomics.
/// `bounds` are inclusive upper bucket bounds; `counts` has one extra
/// trailing element for values above the last bound. Snapshots from
/// different workers/engines merge as long as the bounds agree — the
/// unit of aggregation across processes or runs.
struct HistogramSnapshot {
  std::string name;
  std::vector<uint64_t> bounds;
  std::vector<uint64_t> counts;  ///< bounds.size() + 1 entries
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;

  double Mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / count;
  }

  /// Upper bound of the bucket holding the p-th fraction of samples
  /// (p in [0, 1]); `max` for the overflow bucket, 0 when empty.
  uint64_t ApproxPercentile(double p) const;

  /// Adds `other`'s buckets into this snapshot. False (and no change)
  /// when the bucket bounds differ.
  bool Merge(const HistogramSnapshot& other);
};

/// A fixed-bucket histogram: Record() is a bucket search over a small
/// sorted bound array plus three relaxed fetch_adds on the calling
/// thread's stripe (bucket, count, sum) — no locks anywhere on the
/// record path. Bounds are fixed at construction; values above the
/// last bound land in an overflow bucket. Each stripe's bucket counts
/// start on a cache line of their own in one shared block.
class Histogram {
 public:
  explicit Histogram(std::vector<uint64_t> bounds);

  void Record(uint64_t value);
  HistogramSnapshot Snapshot() const;
  void Reset();

  const std::vector<uint64_t>& bounds() const { return bounds_; }

  /// The default latency bucketing: a 1-2-5 series from 1 µs to 1 s.
  static const std::vector<uint64_t>& LatencyBoundsUs();

 private:
  struct alignas(64) Stripe {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> max{0};
  };
  /// One cache line of bucket counts.
  struct alignas(64) BucketLine {
    static constexpr size_t kBuckets = 64 / sizeof(std::atomic<uint64_t>);
    std::atomic<uint64_t> counts[kBuckets] = {};
  };

  std::atomic<uint64_t>& Bucket(size_t stripe, size_t bucket) const {
    return bucket_lines_[stripe * lines_per_stripe_ +
                         bucket / BucketLine::kBuckets]
        .counts[bucket % BucketLine::kBuckets];
  }

  std::vector<uint64_t> bounds_;
  size_t lines_per_stripe_ = 0;
  /// kMetricStripes runs of lines_per_stripe_ lines, one per stripe.
  std::unique_ptr<BucketLine[]> bucket_lines_;
  Stripe stripes_[kMetricStripes];
};

/// Every instrument of one registry, detached from the live atomics.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// Folds `other` in: counters/gauges sum by name (union of names),
  /// histograms merge by name. False when a histogram exists in both
  /// with different bounds (this snapshot is left partially merged
  /// only for instruments processed before the mismatch — treat a
  /// false return as fatal).
  bool Merge(const MetricsSnapshot& other);

  /// {"counters": {...}, "gauges": {...}, "histograms": {name:
  /// {"bounds": [...], "counts": [...], "count": n, "sum": n,
  /// "max": n}}} — the `--metrics-out` file format.
  std::string ToJson() const;
};

/// Named instrument registry. Get* registers on first use and returns
/// a stable pointer; callers resolve handles once (at construction
/// time) and then record lock-free. Instruments are ordered by name in
/// snapshots, so exports are deterministic.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  /// `bounds` applies only when `name` is new; an existing histogram
  /// is returned as-is (first registration wins).
  Histogram* GetHistogram(
      std::string_view name,
      const std::vector<uint64_t>& bounds = Histogram::LatencyBoundsUs());

  MetricsSnapshot Snapshot() const;
  std::string ToJson() const { return Snapshot().ToJson(); }

  /// Zeroes counters and histograms (gauges keep their last value).
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace xsdf::obs

#endif  // XSDF_OBS_METRICS_H_
