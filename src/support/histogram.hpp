// Fixed-bucket log2 histograms for the observability layer.
//
// A Log2Histogram counts non-negative samples into buckets
//   [0], [1], [2,3], [4,7], ..., [2^(k-1), 2^k - 1], ...
// with the last bucket absorbing everything larger. Buckets are relaxed
// atomics (same contract as support::Counter): totals are exact, cheap
// enough to stay always-on in hot paths — one add per event, no locks.
//
// The registry mirrors support/counters.hpp: histogram(name) registers on
// first use and returns a reference that stays valid for the life of the
// process. The machine feeds "comm.message_bytes" (payload size of every
// modeled point-to-point message) and the plan interpreter feeds
// "executor.fanout.level<d>" (bindings produced per invocation of join
// level d) — the two distributions the paper's overhead analysis turns on.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <map>
#include <string>
#include <vector>

namespace bernoulli::support {

class Log2Histogram {
 public:
  /// Bucket 0 holds value 0; bucket k in [1, 38] holds [2^(k-1), 2^k);
  /// the last bucket (39) is open-ended and absorbs every value >= 2^38.
  static constexpr int kBuckets = 40;

  void add(long long value, long long count = 1) {
    buckets_[static_cast<std::size_t>(bucket_of(value))].fetch_add(
        count, std::memory_order_relaxed);
  }

  long long bucket(int i) const {
    return buckets_[static_cast<std::size_t>(i)].load(
        std::memory_order_relaxed);
  }

  long long total() const {
    long long t = 0;
    for (const auto& b : buckets_) t += b.load(std::memory_order_relaxed);
    return t;
  }

  void reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  }

  /// Bucket index of a value (negative values clamp to bucket 0).
  static int bucket_of(long long value) {
    if (value <= 0) return 0;
    return std::min(kBuckets - 1,
                    static_cast<int>(std::bit_width(
                        static_cast<unsigned long long>(value))));
  }

  /// Human-readable bucket range: "0", "1", "2-3", "4-7", ...
  static std::string bucket_label(int i);

 private:
  std::atomic<long long> buckets_[kBuckets] = {};
};

/// Registry lookup; registers on first use. The reference stays valid for
/// the life of the process.
Log2Histogram& histogram(const std::string& name);

/// Bucket counts of every registered histogram, sorted by name.
std::map<std::string, std::vector<long long>> histograms_snapshot();

/// Zeroes every registered histogram (names survive, like counters).
void histograms_reset();

/// Aligned text block; histograms with zero total are skipped unless
/// `include_empty`. Deterministic: sorted by name, fixed bucket labels.
std::string histograms_text(bool include_empty = false);

/// JSON object {name: {"buckets": [{"range": "2-3", "count": n}, ...],
/// "total": n}, ...}; empty buckets are elided.
std::string histograms_json(int indent = 0);

}  // namespace bernoulli::support
