// The observability registry: every named count, time, gauge and
// histogram the pipeline books, the per-level profile store, and the
// per-run record the engines commit through (docs/OBSERVABILITY.md).
//
// One name table, five kinds (Counter, TimeCounter, MetricGauge,
// LatencyHistogram, Log2Histogram); a name belongs to one kind. Hot paths
// resolve names once — at construction, link or registration — then pay
// one relaxed atomic op per event.
//
// Shards: each of kMetricShards shards has a mutex and a slice of the
// profile store; a thread maps onto one. Counters and latency histograms
// keep one atomic slot per shard, merged in fixed order: integer sums, so
// serial and `--threads=N` runs of the same values snapshot bitwise-equal.
//
// The commit: an engine run fills a RunRecord locally and commits its
// whole group (latency sample, execute.wall_ns, executor.* counts, fan-out,
// profile) through a RunSink under its own shard's mutex; snapshots and
// resets hold every shard's mutex. So a snapshot only sees whole runs
// (execute.latency.sum_ns == execute.wall_ns) and no process-global lock
// sits on the per-run path.
//
// Phases: comm.<phase>.* / vtime.<phase>.* split traffic by a per-thread
// phase tag ("main", "inspector", "executor") — the paper's
// inspector/executor split, reconciled against runtime::CommStats.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <climits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "support/profile.hpp"

namespace bernoulli::support {

/// Number of registry shards. Threads map onto shards round-robin; two
/// threads sharing a shard stay correct (atomics, one mutex), just
/// contended.
inline constexpr int kMetricShards = 16;

/// Stable per-thread shard id in [0, kMetricShards).
int metric_shard();

/// Monotonic count, thread-sharded. Totals are exact; value() merges the
/// shards in fixed order (integer sums: order-independent).
class Counter {
 public:
  void add(long long delta = 1) {
    shards_[metric_shard()].v.fetch_add(delta, std::memory_order_relaxed);
  }
  long long value() const {
    long long total = 0;
    for (const Shard& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }
  void reset() {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<long long> v{0};
  };
  Shard shards_[kMetricShards];
};

/// Accumulated seconds (virtual or wall). One slot: a double sum is not
/// order-independent, so sharding would change the totals' rounding.
class TimeCounter {
 public:
  void add(double seconds) { v_.fetch_add(seconds, std::memory_order_relaxed); }
  double seconds() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Last-write-wins instantaneous value (e.g. the current CG residual).
class MetricGauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Merged view of one LatencyHistogram. Percentiles are a deterministic
/// function of the merged buckets, clamped to the exact observed min/max.
struct LatencySnapshot {
  long long count = 0;
  long long sum_ns = 0;
  long long min_ns = 0;
  long long max_ns = 0;
  std::vector<long long> buckets;  // size LatencyHistogram::kBuckets

  /// q in [0, 1]. Walks the cumulative bucket counts to the ceil(q*count)-th
  /// recorded value and reports that bucket's upper bound, clamped to the
  /// exact [min_ns, max_ns]. Deterministic; 0 when empty.
  long long quantile_ns(double q) const;
  long long p50_ns() const { return quantile_ns(0.50); }
  long long p95_ns() const { return quantile_ns(0.95); }
  long long p99_ns() const { return quantile_ns(0.99); }
};

/// Fixed-bucket latency histogram over integer nanoseconds, HDR-style
/// log-linear: values 0..15 exact, then 4 sub-buckets per power of two up
/// to 2^41 (larger values clamp into the last bucket), so quantile error
/// stays under 1/4 of the value. record_ns is one shard lookup plus five
/// relaxed atomic ops; snapshot() merges.
class LatencyHistogram {
 public:
  static constexpr int kLinearBuckets = 16;  // values 0..15, exact
  static constexpr int kSubBuckets = 4;      // per power-of-two group
  static constexpr int kMaxPow = 40;         // last group covers 2^40..2^41
  static constexpr int kBuckets =
      kLinearBuckets + (kMaxPow - 4 + 1) * kSubBuckets;  // 164

  /// Bucket index for a value (negatives clamp to 0, huge values to the
  /// last bucket).
  static int bucket_of(long long ns);
  /// Smallest value mapping to bucket b.
  static long long bucket_lower(int b);
  /// Largest value mapping to bucket b (LLONG_MAX for the last bucket).
  static long long bucket_upper(int b);

  void record_ns(long long ns);

  LatencySnapshot snapshot() const;
  void reset();

 private:
  struct alignas(64) Shard {
    std::atomic<long long> count{0};
    std::atomic<long long> sum{0};
    std::atomic<long long> min{LLONG_MAX};
    std::atomic<long long> max{LLONG_MIN};
    std::atomic<long long> buckets[kBuckets] = {};
  };
  Shard shards_[kMetricShards];
};

/// Fixed-bucket log2 histogram over counts: bucket 0 holds 0, bucket k in
/// [1, 38] holds [2^(k-1), 2^k), and the last bucket (39) absorbs every
/// value >= 2^38. One relaxed add per event.
class Log2Histogram {
 public:
  static constexpr int kBuckets = 40;

  void add(long long value, long long count = 1) {
    add_bucket(bucket_of(value), count);
  }
  void add_bucket(int b, long long count) {
    buckets_[static_cast<std::size_t>(b)].fetch_add(count,
                                                    std::memory_order_relaxed);
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

/// Registry lookups; register on first use, references stay valid for
/// the life of the process. A second kind for one name throws.
Counter& counter(const std::string& name);
TimeCounter& time_counter(const std::string& name);
MetricGauge& metric_gauge(const std::string& name);
LatencyHistogram& metric_latency(const std::string& name);
Log2Histogram& histogram(const std::string& name);

struct MetricsSnapshot {
  std::map<std::string, long long> counts;
  std::map<std::string, double> seconds;
  std::map<std::string, double> gauges;
  std::map<std::string, LatencySnapshot> latencies;
  /// Log2 histogram bucket counts (Log2Histogram::kBuckets per name).
  std::map<std::string, std::vector<long long>> log2;
  /// The profile store, summed over the shards.
  ProfileSnapshot profile;
};

/// Every registered metric (zero-valued ones included) and the profile
/// store, read under every shard's lock so run commits appear whole.
MetricsSnapshot metrics_snapshot();

/// Zeroes every metric and the profile store under every shard's lock;
/// names and addresses survive.
void metrics_reset();

/// The `bernoulli.metrics.v2` JSON document: "counts", "seconds",
/// "gauges", "latency" ({count, sum_ns, min_ns, max_ns, mean_ns, p50/p95/
/// p99_ns, buckets: [[lower_ns, count]]}) and "log2" ({buckets: [{range,
/// count}], total}), sorted by name; empty buckets and empty log2
/// histograms are elided.
std::string metrics_json(int indent = 0);

/// Prometheus text exposition (counter / gauge / histogram families,
/// names sanitized `a.b.c` -> `bernoulli_a_b_c`, counts as
/// `bernoulli_<name>_total`, latency histogram `le` labels in seconds).
/// Each family carries `# TYPE`; ends with a trailing newline.
std::string metrics_prometheus_text();

/// Writes metrics_prometheus_text() to `path`; false on I/O failure.
bool metrics_write_prometheus(const std::string& path);

// ---------------------------------------------------------------------------
// The profile store (support/profile.hpp for the scratch and exports)
// ---------------------------------------------------------------------------

/// The profile store summed over the shards (under every shard's lock).
ProfileSnapshot profile_snapshot();

/// Zeroes the profile store only; the metrics keep their values.
void profile_reset();

/// Books an exact distributed-path phase interval into this thread's
/// shard.
void profile_phase_add(int phase, long long ns);

// ---------------------------------------------------------------------------
// The per-run record
// ---------------------------------------------------------------------------

/// The executor.* join-work counts of one run.
struct WorkCounts {
  long long tuples = 0;
  long long enumerated = 0;
  long long merge_steps = 0;
  long long probe_hits = 0;
  long long probe_misses = 0;
  long long fill_ins = 0;
  long long merge_segment_bytes = 0;

  WorkCounts& operator+=(const WorkCounts& o);
};

/// Every WorkCounts field with the executor.* count it commits to.
inline constexpr std::pair<const char*, long long WorkCounts::*>
    kWorkCountFields[] = {
        {"executor.tuples", &WorkCounts::tuples},
        {"executor.enumerated", &WorkCounts::enumerated},
        {"executor.merge_steps", &WorkCounts::merge_steps},
        {"executor.probe_hits", &WorkCounts::probe_hits},
        {"executor.probe_misses", &WorkCounts::probe_misses},
        {"executor.fill_ins", &WorkCounts::fill_ins},
        {"executor.merge_segment_bytes", &WorkCounts::merge_segment_bytes},
};

/// Everything one engine run books, filled locally with plain adds and
/// committed once through a RunSink. The footprint fields are per plan:
/// their owner sets them once and begin() leaves them alone.
struct RunRecord {
  long long wall_ns = 0;
  WorkCounts work;
  long long model_bytes = 0;  // execute.model_bytes per run (0: inexact)
  long long model_flops = 0;  // execute.model_flops per run
  /// Per-level fan-out buckets, Log2Histogram::kBuckets per level.
  std::vector<long long> fanout;
  ProfileScratch profile;

  /// Zeroes the per-run fields and sizes the fan-out for `levels`.
  void begin(std::size_t levels);
  /// One fan-out sample: a level-d invocation produced `produced`.
  void add_fanout(std::size_t d, long long produced) {
    ++fanout[d * static_cast<std::size_t>(Log2Histogram::kBuckets) +
             static_cast<std::size_t>(Log2Histogram::bucket_of(produced))];
  }
  long long* fanout_level(std::size_t d) {
    return fanout.data() +
           d * static_cast<std::size_t>(Log2Histogram::kBuckets);
  }
  /// Adds another record's work, fan-out and profile scratch (a worker
  /// shard of the same run).
  void merge(const RunRecord& o);
};

/// The handles a RunRecord commits through (execute.*, executor.* and
/// executor.fanout.level<d> for `levels` levels), resolved by the
/// constructor so a commit looks nothing up. Engines take the process's
/// shared sink for their level count from run_sink().
class RunSink {
 public:
  RunSink() = default;  // unresolved; commit() needs a resolved sink
  explicit RunSink(std::size_t levels);

  /// Books `rec` as one engine run under the calling thread's shard lock:
  /// one latency sample and execute.wall_ns += rec.wall_ns, the work
  /// counts, footprint and fan-out. The profile commits `profile` when
  /// given (an engine that estimates its own), else the estimate of
  /// rec.profile when it saw work.
  void commit(const RunRecord& rec,
              const ProfileFlush* profile = nullptr) const;

 private:
  LatencyHistogram* latency_ = nullptr;
  Counter* wall_ns_ = nullptr;
  Counter* model_bytes_ = nullptr;
  Counter* model_flops_ = nullptr;
  Counter* runs_ = nullptr;
  std::array<Counter*, std::size(kWorkCountFields)> work_{};
  std::vector<Log2Histogram*> fanout_;
};

/// The process's sink for `levels` levels, resolved on first use and
/// kept for the process (metrics_reset zeroes values, never entries), so
/// linking a plan or running the interpreter resolves no names.
const RunSink& run_sink(std::size_t levels);

// ---------------------------------------------------------------------------
// Phases
// ---------------------------------------------------------------------------

/// The comm.<phase>.* and vtime.<phase>.* handles of one phase, resolved
/// by the constructor.
struct PhaseCounters {
  explicit PhaseCounters(std::string phase_name);
  std::string phase;
  Counter& messages;      // comm.<phase>.messages
  Counter& bytes;         // comm.<phase>.bytes
  Counter& collectives;   // comm.<phase>.collectives
  Counter& exchanges;     // comm.<phase>.exchanges
  Counter& ghost_values;  // comm.<phase>.ghost_values
  TimeCounter& vtime_compute;  // vtime.<phase>.compute
  TimeCounter& vtime_comm;     // vtime.<phase>.comm
};

/// This thread's phase handles: the innermost open PhaseScope's, else the
/// "main" phase's (resolved once per process). The phase can ONLY be
/// changed through PhaseScope: an exception-safe RAII scope is the one
/// shape that cannot leak a phase past its region.
const PhaseCounters& phase_counters();
inline const std::string& counter_phase() { return phase_counters().phase; }

/// RAII phase scope: installs `phase`'s handles for this thread (resolved
/// once per process, remembered per thread) and restores the previous
/// phase on destruction (including unwinding).
class PhaseScope {
 public:
  explicit PhaseScope(const std::string& phase);
  ~PhaseScope();
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  const PhaseCounters* saved_;
};

}  // namespace bernoulli::support
