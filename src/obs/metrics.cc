#include "obs/metrics.h"

#include <algorithm>

#include "obs/json_writer.h"

namespace xsdf::obs {

uint64_t HistogramSnapshot::ApproxPercentile(double p) const {
  if (count == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  uint64_t rank = static_cast<uint64_t>(p * static_cast<double>(count));
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (seen >= rank) {
      return i < bounds.size() ? bounds[i] : max;
    }
  }
  return max;
}

bool HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  if (bounds != other.bounds || counts.size() != other.counts.size()) {
    return false;
  }
  for (size_t i = 0; i < counts.size(); ++i) counts[i] += other.counts[i];
  count += other.count;
  sum += other.sum;
  max = std::max(max, other.max);
  return true;
}

Histogram::Histogram(std::vector<uint64_t> bounds)
    : bounds_(std::move(bounds)) {
  // The bucket search needs strictly increasing bounds; normalize once
  // at registration (sort + dedupe) instead of trusting every literal.
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  const size_t buckets = bounds_.size() + 1;
  lines_per_stripe_ =
      (buckets + BucketLine::kBuckets - 1) / BucketLine::kBuckets;
  bucket_lines_ =
      std::make_unique<BucketLine[]>(lines_per_stripe_ * kMetricStripes);
}

const std::vector<uint64_t>& Histogram::LatencyBoundsUs() {
  static const std::vector<uint64_t> bounds = {
      1,     2,     5,     10,     20,     50,     100,     200,     500,
      1000,  2000,  5000,  10000,  20000,  50000,  100000,  200000,  500000,
      1000000};
  return bounds;
}

void Histogram::Record(uint64_t value) {
  const size_t bucket = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  const size_t index = MetricStripeIndex();
  Bucket(index, bucket).fetch_add(1, std::memory_order_relaxed);
  Stripe& stripe = stripes_[index];
  stripe.count.fetch_add(1, std::memory_order_relaxed);
  stripe.sum.fetch_add(value, std::memory_order_relaxed);
  uint64_t seen = stripe.max.load(std::memory_order_relaxed);
  while (seen < value &&
         !stripe.max.compare_exchange_weak(seen, value,
                                           std::memory_order_relaxed,
                                           std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snapshot;
  snapshot.bounds = bounds_;
  snapshot.counts.assign(bounds_.size() + 1, 0);
  for (size_t s = 0; s < kMetricStripes; ++s) {
    const Stripe& stripe = stripes_[s];
    for (size_t i = 0; i < snapshot.counts.size(); ++i) {
      snapshot.counts[i] += Bucket(s, i).load(std::memory_order_relaxed);
    }
    snapshot.count += stripe.count.load(std::memory_order_relaxed);
    snapshot.sum += stripe.sum.load(std::memory_order_relaxed);
    snapshot.max =
        std::max(snapshot.max, stripe.max.load(std::memory_order_relaxed));
  }
  return snapshot;
}

void Histogram::Reset() {
  for (size_t s = 0; s < kMetricStripes; ++s) {
    Stripe& stripe = stripes_[s];
    for (size_t i = 0; i < bounds_.size() + 1; ++i) {
      Bucket(s, i).store(0, std::memory_order_relaxed);
    }
    stripe.count.store(0, std::memory_order_relaxed);
    stripe.sum.store(0, std::memory_order_relaxed);
    stripe.max.store(0, std::memory_order_relaxed);
  }
}

bool MetricsSnapshot::Merge(const MetricsSnapshot& other) {
  auto merge_scalars = [](auto* mine, const auto& theirs) {
    for (const auto& [name, value] : theirs) {
      auto it = std::find_if(mine->begin(), mine->end(),
                             [&](const auto& entry) {
                               return entry.first == name;
                             });
      if (it == mine->end()) {
        mine->push_back({name, value});
      } else {
        it->second += value;
      }
    }
  };
  merge_scalars(&counters, other.counters);
  merge_scalars(&gauges, other.gauges);
  for (const HistogramSnapshot& theirs : other.histograms) {
    auto it = std::find_if(histograms.begin(), histograms.end(),
                           [&](const HistogramSnapshot& mine) {
                             return mine.name == theirs.name;
                           });
    if (it == histograms.end()) {
      histograms.push_back(theirs);
    } else if (!it->Merge(theirs)) {
      return false;
    }
  }
  return true;
}

std::string MetricsSnapshot::ToJson() const {
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("counters").BeginObject();
  for (const auto& [name, value] : counters) {
    writer.Key(name).Value(value);
  }
  writer.EndObject();
  writer.Key("gauges").BeginObject();
  for (const auto& [name, value] : gauges) {
    writer.Key(name).Value(value);
  }
  writer.EndObject();
  writer.Key("histograms").BeginObject();
  for (const HistogramSnapshot& histogram : histograms) {
    writer.Key(histogram.name).BeginObject();
    writer.Key("bounds").BeginArray();
    for (uint64_t bound : histogram.bounds) writer.Value(bound);
    writer.EndArray();
    writer.Key("counts").BeginArray();
    for (uint64_t bucket : histogram.counts) writer.Value(bucket);
    writer.EndArray();
    writer.Key("count").Value(histogram.count);
    writer.Key("sum").Value(histogram.sum);
    writer.Key("max").Value(histogram.max);
    writer.Key("mean").Value(histogram.Mean());
    writer.Key("p50").Value(histogram.ApproxPercentile(0.5));
    writer.Key("p99").Value(histogram.ApproxPercentile(0.99));
    writer.EndObject();
  }
  writer.EndObject();
  writer.EndObject();
  return writer.TakeString();
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         const std::vector<uint64_t>& bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name),
                             std::make_unique<Histogram>(bounds))
             .first;
  }
  return it->second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snapshot;
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.push_back({name, counter->Value()});
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.push_back({name, gauge->Value()});
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot h = histogram->Snapshot();
    h.name = name;
    snapshot.histograms.push_back(std::move(h));
  }
  return snapshot;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace xsdf::obs
