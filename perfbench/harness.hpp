// Benchmark helpers with no library dependence beyond support/rng.hpp:
// clocks, seeded arrival schedules and samplers, the percentile rule,
// summary statistics, metric-name validation and the in-memory span
// recorder of the traced run. helpers_test.cpp tests each of them.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "support/rng.hpp"

namespace perfbench {

inline long long now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Seeded open-loop arrivals.

/// Due times (ns offsets from the schedule start) of a Poisson process at
/// `rate_per_s` over [0, duration_s): exponential inter-arrival gaps drawn
/// from `seed`. The same (rate, duration, seed) always gives the same list.
inline std::vector<long long> poisson_schedule(double rate_per_s,
                                               double duration_s,
                                               std::uint64_t seed) {
  std::vector<long long> due;
  if (rate_per_s <= 0 || duration_s <= 0) return due;
  bernoulli::SplitMix64 rng(seed);
  due.reserve(static_cast<std::size_t>(rate_per_s * duration_s * 1.1) + 16);
  double t = 0.0;
  for (;;) {
    // 1 - u is in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng.next_double()) / rate_per_s;
    if (t >= duration_s) break;
    due.push_back(static_cast<long long>(t * 1e9));
  }
  return due;
}

/// Zipf(s) over ranks [0, n): P(k) proportional to 1 / (k + 1)^s. Sampling
/// inverts the cumulative table with a binary search.
class Zipf {
 public:
  Zipf(int n, double s) {
    cdf_.resize(static_cast<std::size_t>(n));
    double total = 0.0;
    for (int k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[static_cast<std::size_t>(k)] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  int size() const { return static_cast<int>(cdf_.size()); }
  double probability(int k) const {
    const auto i = static_cast<std::size_t>(k);
    return cdf_[i] - (i == 0 ? 0.0 : cdf_[i - 1]);
  }
  int sample(bernoulli::SplitMix64& rng) const {
    const double u = rng.next_double();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min(static_cast<int>(it - cdf_.begin()), size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// ---------------------------------------------------------------------------
// Percentiles and summary statistics.

/// Nearest-rank quantile of an ascending-sorted sample: the value at rank
/// ceil(q * n) (1-based). Empty input gives 0.
inline double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

inline double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, q);
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Samples strictly beyond the `per_mille`/1000 quantile of n samples:
/// n - ceil(n * per_mille / 1000), in exact integer arithmetic.
inline long long samples_beyond(long long n, int per_mille) {
  return n - (n * per_mille + 999) / 1000;
}

/// The percentile rule: a tail percentile is reportable only when at least
/// 10 samples lie beyond it. Returns the highest of p50, p90, p99, p99.9
/// (as per-mille: 500, 900, 990, 999) that n samples support, or 0 when
/// not even p50 is. 1000 samples support p99; 999 do not.
inline int highest_reportable_per_mille(long long n) {
  int best = 0;
  for (int pm : {500, 900, 990, 999})
    if (samples_beyond(n, pm) >= 10) best = pm;
  return best;
}

/// Geometric mean of positive values; 0 if any value is not positive or
/// the input is empty.
inline double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) {
    if (!(x > 0.0)) return 0.0;
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

/// Metric names: 1..64 characters from [A-Za-z0-9_.-], starting with a
/// letter or digit.
inline bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  for (char c : name)
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  return true;
}


// ---------------------------------------------------------------------------
// Traced-run spans.

/// One recorded interval: a named call into a layer, its parent span (-1
/// for a root) and the request or iteration id it served (-1 when none).
struct Span {
  const char* name = "";
  long long start_ns = 0;
  long long end_ns = 0;
  int parent = -1;
  long long id = -1;
};

/// In-memory span store. Disabled (the untraced run) it records nothing and
/// costs one branch per scope. Spans are kept until write_json() at exit.
/// Thread-safe: concurrent clients record into one store under a mutex.
class Tracer {
 public:
  static constexpr std::size_t kMaxSpans = 4'000'000;

  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Reserves a span slot and returns its index (-1 when disabled or full).
  int open(const char* name, int parent, long long id) {
    if (!enabled_) return -1;
    const long long t = now_ns();
    std::lock_guard<std::mutex> lk(mu_);
    if (spans_.size() >= kMaxSpans) return -1;
    spans_.push_back(Span{name, t, t, parent, id});
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int idx) {
    if (idx < 0) return;
    const long long t = now_ns();
    std::lock_guard<std::mutex> lk(mu_);
    spans_[static_cast<std::size_t>(idx)].end_ns = t;
  }
  /// Records an interval measured elsewhere (e.g. queue wait, which starts
  /// at a due time rather than at a call).
  void record(const char* name, long long start_ns, long long end_ns,
              int parent, long long id) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lk(mu_);
    if (spans_.size() < kMaxSpans)
      spans_.push_back(Span{name, start_ns, end_ns, parent, id});
  }

  /// Self time of every span: its duration minus the union of its
  /// children's intervals (children are clipped to the parent).
  std::vector<long long> self_times() const {
    std::vector<std::vector<std::pair<long long, long long>>> kids(spans_.size());
    for (const Span& s : spans_)
      if (s.parent >= 0)
        kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                              s.end_ns);
    std::vector<long long> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      auto& iv = kids[i];
      std::sort(iv.begin(), iv.end());
      long long covered = 0, cur_lo = 0, cur_hi = 0;
      bool open_iv = false;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (open_iv && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
        } else {
          if (open_iv) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
          open_iv = true;
        }
      }
      if (open_iv) covered += cur_hi - cur_lo;
      self[i] = (s.end_ns - s.start_ns) - covered;
    }
    return self;
  }

  /// Writes the spans (with self times) as one JSON document.
  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::vector<long long> self = self_times();
    std::fprintf(f, "{\"schema\": \"perfbench.spans.v1\", \"spans\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"i\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld, \"self_ns\": %lld, \"parent\": %d, "
                   "\"id\": %lld}",
                   i == 0 ? "" : ",\n", i, s.name, s.start_ns, s.end_ns,
                   self[i], s.parent, s.id);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_ = false;
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span around one call.
class SpanScope {
 public:
  SpanScope(Tracer& t, const char* name, int parent = -1, long long id = -1)
      : t_(t), idx_(t.open(name, parent, id)) {}
  ~SpanScope() { t_.close(idx_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int index() const { return idx_; }

 private:
  Tracer& t_;
  int idx_;
};

}  // namespace perfbench
