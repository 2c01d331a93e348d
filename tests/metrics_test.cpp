// Unit tests for the metrics registry: bucket math, exact percentile
// semantics, the shard-and-merge determinism contract (N threads
// recording a known multiset must snapshot bitwise-identical to the
// serial merge), and the JSON / Prometheus export formats.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <thread>
#include <vector>

#include "formats/csr.hpp"
#include "server/kernel_server.hpp"
#include "support/metrics.hpp"

namespace bernoulli::support {
namespace {

TEST(LatencyBuckets, LinearRangeIsExact) {
  for (long long v = 0; v < LatencyHistogram::kLinearBuckets; ++v) {
    EXPECT_EQ(LatencyHistogram::bucket_of(v), v);
    EXPECT_EQ(LatencyHistogram::bucket_lower(static_cast<int>(v)), v);
    EXPECT_EQ(LatencyHistogram::bucket_upper(static_cast<int>(v)), v);
  }
}

TEST(LatencyBuckets, BoundsContainValueAndAreContiguous) {
  // Sweep powers of two, their neighbours, and a pseudo-random sample.
  std::vector<long long> probe = {0, 1, 15, 16, 17, 31, 32, 63, 64, 100, 1000};
  for (int k = 4; k < 45; ++k) {
    probe.push_back((1LL << k) - 1);
    probe.push_back(1LL << k);
    probe.push_back((1LL << k) + (1LL << (k - 2)));
  }
  std::mt19937_64 rng(7);
  for (int i = 0; i < 1000; ++i)
    probe.push_back(static_cast<long long>(rng() >> 22));
  for (long long v : probe) {
    const int b = LatencyHistogram::bucket_of(v);
    ASSERT_GE(b, 0);
    ASSERT_LT(b, LatencyHistogram::kBuckets);
    EXPECT_LE(LatencyHistogram::bucket_lower(b), v) << v;
    EXPECT_GE(LatencyHistogram::bucket_upper(b), v) << v;
  }
  // Buckets tile the axis: each upper is the next lower minus one.
  for (int b = 0; b + 1 < LatencyHistogram::kBuckets; ++b) {
    EXPECT_EQ(LatencyHistogram::bucket_upper(b) + 1,
              LatencyHistogram::bucket_lower(b + 1));
    EXPECT_EQ(LatencyHistogram::bucket_of(LatencyHistogram::bucket_lower(b)),
              b);
    EXPECT_EQ(LatencyHistogram::bucket_of(LatencyHistogram::bucket_upper(b)),
              b);
  }
}

TEST(LatencyHistogramTest, SingleValueHasExactPercentiles) {
  LatencyHistogram h;
  h.record_ns(12345);
  LatencySnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1);
  EXPECT_EQ(s.sum_ns, 12345);
  EXPECT_EQ(s.min_ns, 12345);
  EXPECT_EQ(s.max_ns, 12345);
  // Percentiles clamp to the exact observed range.
  EXPECT_EQ(s.p50_ns(), 12345);
  EXPECT_EQ(s.p99_ns(), 12345);
  EXPECT_EQ(s.quantile_ns(0.0), 12345);
}

TEST(LatencyHistogramTest, SmallValuesGiveExactQuantiles) {
  LatencyHistogram h;
  for (long long v = 1; v <= 10; ++v) h.record_ns(v);  // 1..10, exact buckets
  LatencySnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 10);
  EXPECT_EQ(s.sum_ns, 55);
  EXPECT_EQ(s.p50_ns(), 5);   // ceil(0.5*10) = 5th value
  EXPECT_EQ(s.p95_ns(), 10);  // ceil(0.95*10) = 10th value
  EXPECT_EQ(s.p99_ns(), 10);
  EXPECT_EQ(s.quantile_ns(0.1), 1);
  EXPECT_EQ(s.min_ns, 1);
  EXPECT_EQ(s.max_ns, 10);
}

TEST(LatencyHistogramTest, QuantileErrorBoundedBySubBucket) {
  LatencyHistogram h;
  std::mt19937_64 rng(11);
  std::vector<long long> vals;
  for (int i = 0; i < 5000; ++i) {
    long long v = static_cast<long long>(rng() % 2000000) + 16;
    vals.push_back(v);
    h.record_ns(v);
  }
  std::sort(vals.begin(), vals.end());
  LatencySnapshot s = h.snapshot();
  for (double q : {0.5, 0.95, 0.99}) {
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(vals.size())));
    const long long exact = vals[rank - 1];
    const long long approx = s.quantile_ns(q);
    // The reported value is the bucket upper bound: never below the exact
    // order statistic, and within one sub-bucket width (< 25%) above it.
    EXPECT_GE(approx, exact);
    EXPECT_LE(static_cast<double>(approx), 1.25 * static_cast<double>(exact));
  }
}

// The tentpole determinism contract (satellite: concurrency test): N
// threads record disjoint slices of a known multiset; the merged snapshot
// must equal the serial single-thread merge EXACTLY — count, sum, min,
// max, every bucket, and therefore every percentile.
TEST(LatencyHistogramTest, ThreadedMergeEqualsSerialMergeBitwise) {
  std::mt19937_64 rng(23);
  std::vector<long long> values;
  for (int i = 0; i < 40000; ++i)
    values.push_back(static_cast<long long>(rng() % 5000000));

  LatencyHistogram serial;
  for (long long v : values) serial.record_ns(v);
  LatencySnapshot want = serial.snapshot();

  for (int threads : {2, 5, 16, 33}) {
    LatencyHistogram sharded;
    std::vector<std::thread> pool;
    const std::size_t chunk = (values.size() + threads - 1) / threads;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        const std::size_t lo = static_cast<std::size_t>(t) * chunk;
        const std::size_t hi = std::min(values.size(), lo + chunk);
        for (std::size_t i = lo; i < hi; ++i) sharded.record_ns(values[i]);
      });
    }
    for (auto& th : pool) th.join();
    LatencySnapshot got = sharded.snapshot();
    EXPECT_EQ(got.count, want.count) << threads;
    EXPECT_EQ(got.sum_ns, want.sum_ns) << threads;
    EXPECT_EQ(got.min_ns, want.min_ns) << threads;
    EXPECT_EQ(got.max_ns, want.max_ns) << threads;
    ASSERT_EQ(got.buckets.size(), want.buckets.size());
    for (std::size_t b = 0; b < want.buckets.size(); ++b)
      EXPECT_EQ(got.buckets[b], want.buckets[b]) << "bucket " << b;
    EXPECT_EQ(got.p50_ns(), want.p50_ns()) << threads;
    EXPECT_EQ(got.p95_ns(), want.p95_ns()) << threads;
    EXPECT_EQ(got.p99_ns(), want.p99_ns()) << threads;
  }
}

TEST(CounterTest, ThreadedAddsMergeExactly) {
  Counter r;
  std::vector<std::thread> pool;
  for (int t = 0; t < 8; ++t)
    pool.emplace_back([&r] {
      for (int i = 0; i < 10000; ++i) r.add(3);
    });
  for (auto& th : pool) th.join();
  EXPECT_EQ(r.value(), 8LL * 10000 * 3);
  r.reset();
  EXPECT_EQ(r.value(), 0);
}

TEST(MetricsRegistry, IdentityAndSnapshotAndReset) {
  metrics_reset();
  Counter& a = counter("test.metrics.rate");
  EXPECT_EQ(&a, &counter("test.metrics.rate"));
  a.add(7);
  metric_gauge("test.metrics.gauge").set(2.5);
  metric_latency("test.metrics.lat").record_ns(100);

  MetricsSnapshot snap = metrics_snapshot();
  EXPECT_EQ(snap.counts.at("test.metrics.rate"), 7);
  EXPECT_EQ(snap.gauges.at("test.metrics.gauge"), 2.5);
  EXPECT_EQ(snap.latencies.at("test.metrics.lat").count, 1);
  EXPECT_EQ(snap.latencies.at("test.metrics.lat").sum_ns, 100);

  metrics_reset();
  snap = metrics_snapshot();
  EXPECT_EQ(snap.counts.at("test.metrics.rate"), 0);
  EXPECT_EQ(snap.gauges.at("test.metrics.gauge"), 0.0);
  EXPECT_EQ(snap.latencies.at("test.metrics.lat").count, 0);
}

TEST(MetricsExport, JsonCarriesSchemaAndHistogram) {
  metrics_reset();
  counter("test.export.rate").add(5);
  metric_latency("test.export.lat").record_ns(42);
  const std::string doc = metrics_json();
  EXPECT_NE(doc.find("\"schema\":\"bernoulli.metrics.v2\""), std::string::npos);
  EXPECT_NE(doc.find("\"test.export.rate\":5"), std::string::npos);
  EXPECT_NE(doc.find("\"test.export.lat\""), std::string::npos);
  // Value 42 lands in its own bucket pair [40, 1].
  EXPECT_NE(doc.find("[40,1]"), std::string::npos);
  EXPECT_NE(doc.find("\"sum_ns\":42"), std::string::npos);
}

TEST(MetricsExport, PrometheusTextShape) {
  metrics_reset();
  counter("test.prom.rate").add(5);
  metric_gauge("test.prom.gauge").set(1.5);
  metric_latency("test.prom.lat").record_ns(1000);
  // One served request: the exposition carries every count, the server's
  // and the engine's included.
  formats::TripletBuilder b(2, 2);
  b.add(0, 0, 1.0);
  b.add(1, 1, 2.0);
  const formats::Csr a = formats::Csr::from_coo(std::move(b).build());
  server::KernelServer srv;
  const int h = srv.add_csr("A", a);
  Vector x(2, 1.0), y(2, 0.0);
  srv.spmv(h, ConstVectorView(x), VectorView(y));
  const std::string text = metrics_prometheus_text();
  EXPECT_NE(text.find("bernoulli_server_requests_total 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE bernoulli_executor_runs_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE bernoulli_test_prom_rate_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("bernoulli_test_prom_rate_total 5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE bernoulli_test_prom_gauge gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE bernoulli_test_prom_lat_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("bernoulli_test_prom_lat_seconds_count 1"),
            std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\"} 1"), std::string::npos);
}

}  // namespace
}  // namespace bernoulli::support
