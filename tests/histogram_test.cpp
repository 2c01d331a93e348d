// Unit tests for the log2 histogram substrate (support/histogram.hpp):
// bucket geometry, labels, registry identity, and the text/JSON
// renderings the trace exporter embeds.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "support/histogram.hpp"
#include "support/json_reader.hpp"

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

TEST(Log2Histogram, FlushRepresentativeRoundTrips) {
  // The linked executor's counter flush re-books per-thread shard grids
  // into the registry by synthesizing one representative value per bucket
  // (0 for bucket 0, 2^(b-1) otherwise). That convention is only sound if
  // every representative maps back to its own bucket — lock it here so
  // bucket-geometry changes cannot silently skew merged histograms.
  for (int b = 0; b < Log2Histogram::kBuckets; ++b) {
    const long long rep = b == 0 ? 0 : 1LL << (b - 1);
    EXPECT_EQ(Log2Histogram::bucket_of(rep), b) << "bucket " << b;
  }
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

TEST(HistogramRegistry, SnapshotAndRenderings) {
  histograms_reset();
  histogram("test.hist.empty");  // registered, never fed
  histogram("test.hist.render").add(3, 4);

  auto snap = histograms_snapshot();
  ASSERT_TRUE(snap.count("test.hist.render"));
  EXPECT_EQ(snap["test.hist.render"][2], 4);  // 3 lands in [2,3]

  std::string text = histograms_text();
  EXPECT_NE(text.find("test.hist.render"), std::string::npos);
  EXPECT_NE(text.find("2-3"), std::string::npos);
  // Empty histograms are skipped by default...
  EXPECT_EQ(text.find("test.hist.empty"), std::string::npos);
  // ...and shown when asked for.
  EXPECT_NE(histograms_text(/*include_empty=*/true).find("test.hist.empty"),
            std::string::npos);

  JsonValue doc = json_parse(histograms_json());
  const JsonValue* h = doc.find("test.hist.render");
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
