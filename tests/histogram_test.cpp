// Unit tests for the registry's log2 histograms (support/metrics.hpp):
// bucket geometry, labels, registry identity, and the "log2" block of the
// bernoulli.metrics.v2 document that traces and run reports embed.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "support/json_reader.hpp"
#include "support/metrics.hpp"

namespace bernoulli::support {
namespace {

TEST(Log2Histogram, BucketGeometry) {
  // Bucket 0 holds value 0 (and negatives clamp there); bucket k >= 1
  // holds [2^(k-1), 2^k).
  EXPECT_EQ(Log2Histogram::bucket_of(-5), 0);
  EXPECT_EQ(Log2Histogram::bucket_of(0), 0);
  EXPECT_EQ(Log2Histogram::bucket_of(1), 1);
  EXPECT_EQ(Log2Histogram::bucket_of(2), 2);
  EXPECT_EQ(Log2Histogram::bucket_of(3), 2);
  EXPECT_EQ(Log2Histogram::bucket_of(4), 3);
  EXPECT_EQ(Log2Histogram::bucket_of(7), 3);
  EXPECT_EQ(Log2Histogram::bucket_of(8), 4);
  EXPECT_EQ(Log2Histogram::bucket_of(1023), 10);
  EXPECT_EQ(Log2Histogram::bucket_of(1024), 11);
  // Everything past the covered range clamps into the last bucket.
  EXPECT_EQ(Log2Histogram::bucket_of(std::numeric_limits<long long>::max()),
            Log2Histogram::kBuckets - 1);
}

TEST(Log2Histogram, PowerOfTwoBoundaries) {
  // Exact powers of two open a new bucket; one less closes the previous
  // one. Sweep every boundary the bucket grid resolves, then the
  // open-ended last bucket.
  for (int k = 1; k <= 37; ++k) {
    EXPECT_EQ(Log2Histogram::bucket_of(1LL << k), k + 1) << "2^" << k;
    EXPECT_EQ(Log2Histogram::bucket_of((1LL << k) - 1), k) << "2^" << k
                                                           << " - 1";
  }
  EXPECT_EQ(Log2Histogram::bucket_of((1LL << 38) - 1), 38);
  EXPECT_EQ(Log2Histogram::bucket_of(1LL << 38), 39);
  EXPECT_EQ(Log2Histogram::bucket_of(1LL << 39), 39);  // clamps, no 40
}

TEST(Log2Histogram, BitWidthMatchesLinearScan) {
  // bucket_of is a clamped bit width; the linear scan it replaced is the
  // bucket definition spelled out. Every power-of-two edge (2^k - 1, 2^k,
  // 2^k + 1 for k < 63), zero, negatives and LLONG_MAX must agree.
  auto scan = [](long long value) {
    if (value <= 0) return 0;
    int k = 1;
    while (k < Log2Histogram::kBuckets - 1 && value >= (1LL << k)) ++k;
    return k;
  };
  std::vector<long long> values{0,
                                -1,
                                -2,
                                -1000,
                                std::numeric_limits<long long>::min(),
                                std::numeric_limits<long long>::max()};
  for (int k = 0; k < 63; ++k) {
    const long long p = 1LL << k;
    values.insert(values.end(), {p - 1, p, p + 1});
  }
  for (long long v : values)
    EXPECT_EQ(Log2Histogram::bucket_of(v), scan(v)) << "value " << v;
}

TEST(Log2Histogram, AddBucketMatchesPerEventAdds) {
  // A run commit books its locally bucketed fan-out counts with
  // add_bucket(bucket_of(v), n); that must land exactly where n per-event
  // add(v) calls would, for every bucket edge.
  Log2Histogram per_event, bucketed;
  for (int k = 0; k < 45; ++k) {
    for (const long long v : {(1LL << k) - 1, 1LL << k}) {
      per_event.add(v, 3);
      bucketed.add_bucket(Log2Histogram::bucket_of(v), 3);
    }
  }
  for (int b = 0; b < Log2Histogram::kBuckets; ++b)
    EXPECT_EQ(bucketed.bucket(b), per_event.bucket(b)) << "bucket " << b;
}

TEST(Log2Histogram, BucketLabels) {
  EXPECT_EQ(Log2Histogram::bucket_label(0), "0");
  EXPECT_EQ(Log2Histogram::bucket_label(1), "1");
  EXPECT_EQ(Log2Histogram::bucket_label(2), "2-3");
  EXPECT_EQ(Log2Histogram::bucket_label(3), "4-7");
  EXPECT_EQ(Log2Histogram::bucket_label(Log2Histogram::kBuckets - 1),
            std::to_string(1LL << (Log2Histogram::kBuckets - 2)) + "+");
}

TEST(Log2Histogram, AddTotalReset) {
  Log2Histogram h;
  h.add(0);
  h.add(5);
  h.add(5);
  h.add(100, 3);
  EXPECT_EQ(h.bucket(0), 1);
  EXPECT_EQ(h.bucket(3), 2);    // 5 lands in [4,7]
  EXPECT_EQ(h.bucket(7), 3);    // 100 lands in [64,127]
  EXPECT_EQ(h.total(), 6);
  h.reset();
  EXPECT_EQ(h.total(), 0);
}

TEST(HistogramRegistry, SameNameSameHistogram) {
  Log2Histogram& a = histogram("test.hist.same");
  Log2Histogram& b = histogram("test.hist.same");
  EXPECT_EQ(&a, &b);
  a.reset();
  a.add(1);
  b.add(1);
  EXPECT_EQ(a.total(), 2);
}

TEST(HistogramRegistry, SnapshotAndJson) {
  metrics_reset();
  histogram("test.hist.empty");  // registered, never fed
  histogram("test.hist.render").add(3, 4);

  auto snap = metrics_snapshot().log2;
  ASSERT_TRUE(snap.count("test.hist.render"));
  EXPECT_EQ(snap["test.hist.render"][2], 4);  // 3 lands in [2,3]

  // Registered-but-empty histograms are in the snapshot, not the JSON.
  EXPECT_TRUE(snap.count("test.hist.empty"));
  JsonValue doc = json_parse(metrics_json());
  const JsonValue* log2 = doc.find("log2");
  ASSERT_NE(log2, nullptr);
  EXPECT_EQ(log2->find("test.hist.empty"), nullptr);
  const JsonValue* h = log2->find("test.hist.render");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->find("total")->as_number(), 4);
  const JsonValue* buckets = h->find("buckets");
  ASSERT_TRUE(buckets->is_array());
  ASSERT_EQ(buckets->items.size(), 1u);  // empty buckets elided
  EXPECT_EQ(buckets->items[0].find("range")->as_string(), "2-3");
  EXPECT_EQ(buckets->items[0].find("count")->as_number(), 4);
}

}  // namespace
}  // namespace bernoulli::support
