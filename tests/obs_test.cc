// Tests for the observability layer: metrics registry (counters,
// gauges, fixed-bucket histograms with striped hot paths), snapshot
// merging, JSON export, and the Chrome-trace span recorder.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/request_trace.h"
#include "obs/rolling.h"
#include "obs/trace.h"

namespace xsdf::obs {
namespace {

// ---------------------------------------------------------------------------
// JsonWriter

TEST(JsonWriterTest, EscapesStrings) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(JsonEscape(std::string("a\x01z")), "a\\u0001z");
}

TEST(JsonWriterTest, WritesNestedStructure) {
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("name");
  writer.Value("x\"y");
  writer.Key("values");
  writer.BeginArray();
  writer.Value(uint64_t{1});
  writer.Value(int64_t{-2});
  writer.Value(2.5);
  writer.Value(true);
  writer.Null();
  writer.EndArray();
  writer.Key("nested");
  writer.BeginObject();
  writer.EndObject();
  writer.EndObject();
  EXPECT_EQ(writer.str(),
            "{\"name\":\"x\\\"y\",\"values\":[1,-2,2.5,true,null],"
            "\"nested\":{}}");
}

TEST(JsonWriterTest, IntegralDoublesPrintWithoutFraction) {
  JsonWriter writer;
  writer.BeginArray();
  writer.Value(3.0);
  writer.Value(0.25);
  writer.EndArray();
  EXPECT_EQ(writer.str(), "[3,0.25]");
}

// ---------------------------------------------------------------------------
// Stripes

// A thread takes its stripe on first use from a process-wide counter,
// so a full set of threads recording together never share a stripe,
// wherever their stacks land.
TEST(MetricStripeTest, ThreadsStartedTogetherGetDistinctStripes) {
  std::vector<size_t> stripes(kMetricStripes);
  std::atomic<size_t> ready{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kMetricStripes; ++t) {
    threads.emplace_back([&stripes, &ready, t] {
      ready.fetch_add(1);
      while (ready.load() < kMetricStripes) std::this_thread::yield();
      stripes[t] = MetricStripeIndex();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(std::set<size_t>(stripes.begin(), stripes.end()).size(),
            kMetricStripes);
  for (size_t stripe : stripes) EXPECT_LT(stripe, kMetricStripes);
}

// ---------------------------------------------------------------------------
// Counter / Gauge

TEST(CounterTest, ConcurrentIncrementsAreExact) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), uint64_t{kThreads} * kPerThread);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge gauge;
  EXPECT_EQ(gauge.Value(), 0);
  gauge.Set(42);
  EXPECT_EQ(gauge.Value(), 42);
  gauge.Add(-50);
  EXPECT_EQ(gauge.Value(), -8);
}

// ---------------------------------------------------------------------------
// Histogram

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram histogram({10, 20, 30});
  // Bucket i holds values <= bounds[i]; the extra trailing bucket holds
  // overflow. Boundary values land in the lower bucket.
  histogram.Record(0);
  histogram.Record(10);   // bucket 0 (inclusive)
  histogram.Record(11);   // bucket 1
  histogram.Record(20);   // bucket 1 (inclusive)
  histogram.Record(30);   // bucket 2 (inclusive)
  histogram.Record(31);   // overflow
  histogram.Record(1000); // overflow
  HistogramSnapshot snap = histogram.Snapshot();
  ASSERT_EQ(snap.bounds, (std::vector<uint64_t>{10, 20, 30}));
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 2u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 2u);
  EXPECT_EQ(snap.count, 7u);
  EXPECT_EQ(snap.sum, 0u + 10 + 11 + 20 + 30 + 31 + 1000);
  EXPECT_EQ(snap.max, 1000u);
}

TEST(HistogramTest, NormalizesUnsortedDuplicatedBounds) {
  Histogram histogram({30, 10, 20, 10});
  EXPECT_EQ(histogram.bounds(), (std::vector<uint64_t>{10, 20, 30}));
}

TEST(HistogramTest, ConcurrentRecordingTotalsAreExact) {
  Histogram histogram({1, 2, 5, 10, 100});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram.Record(static_cast<uint64_t>((i + t) % 12));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, uint64_t{kThreads} * kPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t c : snap.counts) bucket_total += c;
  EXPECT_EQ(bucket_total, snap.count);
  EXPECT_EQ(snap.max, 11u);
}

TEST(HistogramTest, SnapshotMergeSumsBucketsAndRejectsMismatch) {
  Histogram a({10, 20});
  Histogram b({10, 20});
  a.Record(5);
  a.Record(25);
  b.Record(15);
  b.Record(100);
  HistogramSnapshot merged = a.Snapshot();
  ASSERT_TRUE(merged.Merge(b.Snapshot()));
  EXPECT_EQ(merged.count, 4u);
  EXPECT_EQ(merged.sum, 5u + 25 + 15 + 100);
  EXPECT_EQ(merged.max, 100u);
  EXPECT_EQ(merged.counts, (std::vector<uint64_t>{1, 1, 2}));

  Histogram mismatched({1, 2, 3});
  HistogramSnapshot copy = merged;
  EXPECT_FALSE(merged.Merge(mismatched.Snapshot()));
  EXPECT_EQ(merged.counts, copy.counts);  // unchanged on failure
}

TEST(HistogramTest, ApproxPercentile) {
  Histogram histogram({10, 20, 30});
  for (int i = 0; i < 50; ++i) histogram.Record(5);
  for (int i = 0; i < 49; ++i) histogram.Record(15);
  histogram.Record(500);
  HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.ApproxPercentile(0.25), 10u);
  EXPECT_EQ(snap.ApproxPercentile(0.75), 20u);
  EXPECT_EQ(snap.ApproxPercentile(1.0), 500u);  // overflow reports max
  EXPECT_EQ(HistogramSnapshot{}.ApproxPercentile(0.5), 0u);
}

// ---------------------------------------------------------------------------
// MetricsRegistry

TEST(MetricsRegistryTest, SameNameReturnsSameInstrument) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("c");
  EXPECT_EQ(counter, registry.GetCounter("c"));
  Gauge* gauge = registry.GetGauge("g");
  EXPECT_EQ(gauge, registry.GetGauge("g"));
  Histogram* histogram = registry.GetHistogram("h", {1, 2, 3});
  EXPECT_EQ(histogram, registry.GetHistogram("h"));
  // First registration wins: the original bounds survive.
  EXPECT_EQ(histogram->bounds(), (std::vector<uint64_t>{1, 2, 3}));
}

TEST(MetricsRegistryTest, SnapshotIsSortedAndMergeable) {
  MetricsRegistry a;
  a.GetCounter("z")->Increment(3);
  a.GetCounter("a")->Increment(1);
  a.GetGauge("depth")->Set(7);
  a.GetHistogram("lat", {10})->Record(4);

  MetricsSnapshot snap = a.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "a");
  EXPECT_EQ(snap.counters[1].first, "z");

  MetricsRegistry b;
  b.GetCounter("z")->Increment(10);
  b.GetCounter("only_b")->Increment(2);
  b.GetHistogram("lat", {10})->Record(40);
  ASSERT_TRUE(snap.Merge(b.Snapshot()));
  uint64_t z_total = 0;
  uint64_t only_b = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name == "z") z_total = value;
    if (name == "only_b") only_b = value;
  }
  EXPECT_EQ(z_total, 13u);
  EXPECT_EQ(only_b, 2u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 2u);

  MetricsRegistry mismatched;
  mismatched.GetHistogram("lat", {99});
  EXPECT_FALSE(snap.Merge(mismatched.Snapshot()));
}

TEST(MetricsRegistryTest, ResetZeroesCountersButKeepsGauges) {
  MetricsRegistry registry;
  registry.GetCounter("c")->Increment(5);
  registry.GetGauge("g")->Set(9);
  registry.GetHistogram("h")->Record(3);
  registry.Reset();
  EXPECT_EQ(registry.GetCounter("c")->Value(), 0u);
  EXPECT_EQ(registry.GetGauge("g")->Value(), 9);
  EXPECT_EQ(registry.GetHistogram("h")->Snapshot().count, 0u);
}

TEST(MetricsRegistryTest, ToJsonHasFixedShape) {
  MetricsRegistry registry;
  registry.GetCounter("docs")->Increment(2);
  registry.GetGauge("depth")->Set(-1);
  registry.GetHistogram("lat", {10, 20})->Record(15);
  std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"counters\":{\"docs\":2}"), std::string::npos);
  EXPECT_NE(json.find("\"depth\":-1"), std::string::npos);
  EXPECT_NE(json.find("\"bounds\":[10,20]"), std::string::npos);
  EXPECT_NE(json.find("\"counts\":[0,1,0]"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

// ---------------------------------------------------------------------------
// TraceSession / Span / StageTimer

TEST(TraceTest, SpansRecordPerThreadWithStableTids) {
  TraceSession session;
  {
    Span span(&session, "main_work", "doc-a");
  }
  std::thread worker([&session] {
    session.GetThreadLog()->set_name("worker-0");
    Span outer(&session, "outer");
    Span inner(&session, "inner");
  });
  worker.join();

  std::vector<TraceSession::ExportedEvent> events = session.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(session.event_count(), 3u);
  int main_tid = -1;
  int worker_tid = -1;
  for (const auto& event : events) {
    if (event.name == "main_work") {
      main_tid = event.tid;
      EXPECT_EQ(event.arg, "doc-a");
    } else {
      worker_tid = event.tid;
      EXPECT_EQ(event.thread_name, "worker-0");
    }
  }
  EXPECT_NE(main_tid, -1);
  EXPECT_NE(worker_tid, -1);
  EXPECT_NE(main_tid, worker_tid);
}

TEST(TraceTest, NestedSpansAreContained) {
  TraceSession session;
  {
    Span outer(&session, "outer");
    Span inner(&session, "inner");
  }  // inner destructs first
  std::vector<TraceSession::ExportedEvent> events = session.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  const auto& inner = events[0];  // completion order
  const auto& outer = events[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_GE(inner.ts_ns, outer.ts_ns);
  EXPECT_LE(inner.ts_ns + inner.dur_ns, outer.ts_ns + outer.dur_ns);
}

TEST(TraceTest, NullSessionSpanIsANoOp) {
  Span span(nullptr, "nothing");
  StageTimer timer(nullptr, nullptr, "nothing");
  // Nothing to assert beyond "does not crash": the null path must not
  // dereference a session or touch a clock.
}

TEST(TraceTest, ToJsonIsChromeTraceShaped) {
  TraceSession session;
  session.GetThreadLog()->set_name("main");
  {
    Span span(&session, "stage", "with \"quotes\"");
  }
  std::string json = session.ToJson();
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"stage\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // thread_name
  EXPECT_NE(json.find("with \\\"quotes\\\""), std::string::npos);
  EXPECT_EQ(json.back(), '}');
}

TEST(TraceTest, StageTimerFeedsHistogramAndTrace) {
  TraceSession session;
  Histogram histogram({1000000});  // one huge bucket, in µs
  {
    StageTimer timer(&histogram, &session, "stage");
  }
  {
    StageTimer histogram_only(&histogram, nullptr, "stage");
  }
  EXPECT_EQ(histogram.Snapshot().count, 2u);
  EXPECT_EQ(session.event_count(), 1u);
}

TEST(TraceTest, FreshSessionGetsFreshThreadLogs) {
  // A thread that records into session A and then session B must not
  // keep writing into A's buffer (the thread-local cache is keyed on a
  // process-unique session id).
  TraceSession a;
  { Span span(&a, "in_a"); }
  TraceSession b;
  { Span span(&b, "in_b"); }
  ASSERT_EQ(a.event_count(), 1u);
  ASSERT_EQ(b.event_count(), 1u);
  EXPECT_EQ(a.Snapshot()[0].name, "in_a");
  EXPECT_EQ(b.Snapshot()[0].name, "in_b");
}

// ---------------------------------------------------------------------------
// RollingWindowHistogram

/// What the estimator should answer for percentile `p` over `samples`,
/// computed from first principles: take the exact nearest-rank order
/// statistic from the sorted samples, then map it to the histogram's
/// representable answer — the smallest bucket bound at or above it, or
/// the observed max when it lands in the overflow bucket.
uint64_t OraclePercentile(std::vector<uint64_t> samples,
                          const std::vector<uint64_t>& bounds, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  uint64_t rank =
      static_cast<uint64_t>(p * static_cast<double>(samples.size()));
  if (rank == 0) rank = 1;
  uint64_t exact = samples[rank - 1];
  for (uint64_t bound : bounds) {
    if (exact <= bound) return bound;
  }
  return samples.back();
}

TEST(RollingWindowHistogramTest, PercentilesMatchSortedSampleOracle) {
  const std::vector<uint64_t> bounds = {10, 20, 50, 100, 200, 500};
  RollingWindowHistogram rolling(bounds, /*slots=*/60,
                                 /*slot_ns=*/1000000000ull);
  // A deterministic pseudo-random spread including overflow values,
  // scattered across a few in-window slots.
  std::vector<uint64_t> samples;
  uint64_t x = 12345;
  for (int i = 0; i < 500; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    samples.push_back((x >> 33) % 700);
  }
  const uint64_t base_ns = 1000ull * 1000000000ull;
  for (size_t i = 0; i < samples.size(); ++i) {
    rolling.Record(samples[i], base_ns + (i % 30) * 1000000000ull);
  }
  const uint64_t now_ns = base_ns + 30ull * 1000000000ull;
  HistogramSnapshot window = rolling.Summarize(now_ns);
  ASSERT_EQ(window.count, samples.size());
  for (double p : {0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(window.ApproxPercentile(p),
              OraclePercentile(samples, bounds, p))
        << "p=" << p;
  }
  uint64_t expected_sum = 0;
  uint64_t expected_max = 0;
  for (uint64_t s : samples) {
    expected_sum += s;
    expected_max = std::max(expected_max, s);
  }
  EXPECT_EQ(window.sum, expected_sum);
  EXPECT_EQ(window.max, expected_max);
}

TEST(RollingWindowHistogramTest, OldSlotsRotateOutOfTheWindow) {
  RollingWindowHistogram rolling({100}, /*slots=*/3,
                                 /*slot_ns=*/1000000000ull);
  const uint64_t second = 1000000000ull;
  rolling.Record(50, 0 * second);
  rolling.Record(50, 1 * second);
  EXPECT_EQ(rolling.Summarize(1 * second).count, 2u);
  // At t=3 the slot of t=0 has rotated out; at t=10 everything has.
  EXPECT_EQ(rolling.Summarize(3 * second).count, 1u);
  EXPECT_EQ(rolling.Summarize(10 * second).count, 0u);
  // A new sample reclaims a stale slot (lazy reset: old counts must
  // not leak into the new epoch).
  rolling.Record(70, 12 * second);
  HistogramSnapshot window = rolling.Summarize(12 * second);
  EXPECT_EQ(window.count, 1u);
  EXPECT_EQ(window.sum, 70u);
}

TEST(RollingWindowHistogramTest, RatePerSecondUsesCoveredSlotsOnly) {
  RollingWindowHistogram rolling({100}, /*slots=*/60,
                                 /*slot_ns=*/1000000000ull);
  const uint64_t second = 1000000000ull;
  EXPECT_EQ(rolling.RatePerSecond(5 * second), 0.0);
  // 40 samples over the first 4 seconds of life: a young process
  // reports ~10/s, not 40/60.
  for (int i = 0; i < 40; ++i) {
    rolling.Record(1, (100 + i % 4) * second);
  }
  double rate = rolling.RatePerSecond(103 * second);
  EXPECT_NEAR(rate, 10.0, 0.01);
}

// ---------------------------------------------------------------------------
// Prometheus exposition

TEST(PrometheusTest, SanitizesNamesWithPrefix) {
  EXPECT_EQ(PrometheusName("serve.request_us"), "xsdf_serve_request_us");
  EXPECT_EQ(PrometheusName("cache.sim-hits"), "xsdf_cache_sim_hits");
  EXPECT_EQ(PrometheusName("0weird"), "xsdf_0weird");
}

TEST(PrometheusTest, RendersCountersGaugesAndCumulativeHistograms) {
  MetricsRegistry registry;
  registry.GetCounter("engine.documents")->Increment(3);
  registry.GetGauge("queue.depth")->Set(-2);
  Histogram* h = registry.GetHistogram("stage.parse_us", {10, 100});
  h->Record(5);
  h->Record(50);
  h->Record(51);
  h->Record(5000);  // overflow bucket
  std::string text = ToPrometheusText(registry.Snapshot());
  EXPECT_NE(text.find("# TYPE xsdf_engine_documents_total counter\n"
                      "xsdf_engine_documents_total 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE xsdf_queue_depth gauge\n"
                      "xsdf_queue_depth -2\n"),
            std::string::npos);
  // Cumulative buckets: le="10" holds 1, le="100" holds 3, +Inf == count.
  EXPECT_NE(text.find("xsdf_stage_parse_us_bucket{le=\"10\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("xsdf_stage_parse_us_bucket{le=\"100\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("xsdf_stage_parse_us_bucket{le=\"+Inf\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("xsdf_stage_parse_us_sum 5106\n"), std::string::npos);
  EXPECT_NE(text.find("xsdf_stage_parse_us_count 4\n"), std::string::npos);
  // Every line is either a comment or `name value`.
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    ASSERT_NE(end, std::string::npos) << "missing trailing newline";
    std::string line = text.substr(start, end - start);
    if (line[0] != '#') {
      EXPECT_NE(line.find(' '), std::string::npos) << line;
    }
    start = end + 1;
  }
}

// ---------------------------------------------------------------------------
// RequestTrace / SlowRequestBuffer

TEST(RequestTraceTest, NullTraceSpansAreNoOps) {
  RequestSpan span(nullptr, "free");  // must not crash or record
  RequestTrace trace(/*request_id=*/0xabcdef, /*start_ns=*/100);
  {
    RequestSpan live(&trace, "stage");
  }
  ASSERT_EQ(trace.spans().size(), 1u);
  EXPECT_STREQ(trace.spans()[0].name, "stage");
}

TEST(SlowRequestBufferTest, KeepsTheSlowestPerWindow) {
  SlowRequestBuffer buffer(/*keep=*/2,
                           /*window_ns=*/60ull * 1000000000ull);
  for (uint64_t us : {10, 500, 20, 900, 30}) {
    auto trace = std::make_unique<RequestTrace>(us, /*start_ns=*/us * 1000);
    trace->set_total_us(us);
    trace->set_label("r" + std::to_string(us));
    trace->Add("stage", us * 1000, 10);
    buffer.Offer(std::move(trace), /*now_ns=*/1);
  }
  EXPECT_EQ(buffer.retained(), 2u);
  std::string json = buffer.ToChromeTraceJson();
  // The two slowest survived, the rest were displaced.
  EXPECT_NE(json.find("r900"), std::string::npos);
  EXPECT_NE(json.find("r500"), std::string::npos);
  EXPECT_EQ(json.find("r30"), std::string::npos);
}

TEST(SlowRequestBufferTest, WindowRolloverKeepsPreviousWinners) {
  const uint64_t window_ns = 10ull * 1000000000ull;
  SlowRequestBuffer buffer(/*keep=*/2, window_ns);
  auto offer = [&](uint64_t total_us, uint64_t now_ns) {
    auto trace = std::make_unique<RequestTrace>(total_us, now_ns);
    trace->set_total_us(total_us);
    trace->set_label("t" + std::to_string(total_us));
    buffer.Offer(std::move(trace), now_ns);
  };
  offer(100, 0);
  offer(200, 1);
  ASSERT_EQ(buffer.retained(), 2u);
  // Crossing the window boundary: current -> previous, new current
  // starts fresh; both remain visible.
  offer(50, window_ns + 1);
  EXPECT_EQ(buffer.retained(), 3u);
  std::string json = buffer.ToChromeTraceJson();
  EXPECT_NE(json.find("previous"), std::string::npos);
  EXPECT_NE(json.find("t200"), std::string::npos);
  EXPECT_NE(json.find("t50"), std::string::npos);
  // One more rollover: the first window's winners age out entirely.
  offer(60, 2 * window_ns + 2);
  std::string aged = buffer.ToChromeTraceJson();
  EXPECT_EQ(aged.find("t200"), std::string::npos);
}

}  // namespace
}  // namespace xsdf::obs
