#include "support/metrics.hpp"

#include <array>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <mutex>
#include <sstream>
#include <tuple>
#include <type_traits>
#include <variant>

#include "support/error.hpp"
#include "support/json_writer.hpp"

namespace bernoulli::support {

namespace {

// One shard: the lock a run commit holds and that snapshot/reset take for
// every shard, plus this shard's slice of the profile store.
struct alignas(64) Shard {
  std::mutex mu;
  ProfileSnapshot profile;
};

// The one name table. Leaked on purpose: worker threads may outlive
// static-destruction order, and a leaked registry keeps every returned
// reference valid for the whole process lifetime.
struct Registry {
  using Metric = std::variant<Counter*, TimeCounter*, MetricGauge*,
                              LatencyHistogram*, Log2Histogram*>;

  std::mutex names_mu;  // registration and name-table walks
  std::map<std::string, Metric> names;
  std::tuple<std::deque<Counter>, std::deque<TimeCounter>,
             std::deque<MetricGauge>, std::deque<LatencyHistogram>,
             std::deque<Log2Histogram>>
      storage;
  Shard shards[kMetricShards];

  template <typename T>
  T& get(const std::string& name) {
    const std::lock_guard<std::mutex> lk(names_mu);
    auto [it, fresh] = names.try_emplace(name);
    if (fresh) it->second = &std::get<std::deque<T>>(storage).emplace_back();
    T* const* m = std::get_if<T*>(&it->second);
    BERNOULLI_CHECK_MSG(m != nullptr,
                        "metric " << name << " is registered as another kind");
    return **m;
  }

  // Calls fn(name, metric) for every metric, sorted by name. Callers hold
  // names_mu.
  template <typename Fn>
  void each(Fn&& fn) {
    for (const auto& [name, m] : names)
      std::visit([&](auto* metric) { fn(name, *metric); }, m);
  }
};

Registry& registry() {
  static Registry* r = new Registry();
  return *r;
}

// Every shard's lock, taken in shard order (released in reverse): while
// held, no run commit is in flight anywhere.
std::array<std::unique_lock<std::mutex>, kMetricShards> lock_all_shards() {
  std::array<std::unique_lock<std::mutex>, kMetricShards> locks;
  for (int i = 0; i < kMetricShards; ++i)
    locks[i] = std::unique_lock<std::mutex>(registry().shards[i].mu);
  return locks;
}

// Callers hold every shard's lock.
ProfileSnapshot merged_profile() {
  ProfileSnapshot p;
  for (const Shard& s : registry().shards) p.merge(s.profile);
  p.timer_cost_ns = profile_timer_cost_ns();
  return p;
}

// `a.b.c` -> `a_b_c`: Prometheus metric names allow [a-zA-Z0-9_:] only.
std::string prom_name(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

std::string prom_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

thread_local const PhaseCounters* t_phase = nullptr;

// The process's handles for phase `name`, resolved on its first open.
// metrics_reset zeroes values and keeps every entry, so they stay valid
// for the process. Each thread remembers the phases it has opened, so a
// steady-state open builds no name and takes no lock.
const PhaseCounters& resolved_phase(const std::string& name) {
  thread_local std::vector<const PhaseCounters*> seen;
  for (const PhaseCounters* p : seen)
    if (p->phase == name) return *p;
  static std::mutex mu;
  static std::deque<PhaseCounters> all;  // stable addresses
  const PhaseCounters* found = nullptr;
  {
    const std::lock_guard<std::mutex> lk(mu);
    for (const PhaseCounters& p : all)
      if (p.phase == name) found = &p;
    if (found == nullptr) found = &all.emplace_back(name);
  }
  seen.push_back(found);
  return *found;
}

const PhaseCounters& main_phase() {
  static const PhaseCounters& main = resolved_phase("main");
  return main;
}

}  // namespace

int metric_shard() {
  static std::atomic<int> next{0};
  thread_local const int shard =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return shard;
}

int LatencyHistogram::bucket_of(long long ns) {
  if (ns < 0) ns = 0;
  if (ns < kLinearBuckets) return static_cast<int>(ns);
  // Power-of-two group k = floor(log2 ns) >= 4, split into kSubBuckets
  // equal sub-ranges addressed by the two bits below the leading bit.
  const int k = std::bit_width(static_cast<unsigned long long>(ns)) - 1;
  const int sub = static_cast<int>((ns >> (k - 2)) & 3);
  const int b = kLinearBuckets + (k - 4) * kSubBuckets + sub;
  return std::min(b, kBuckets - 1);
}

long long LatencyHistogram::bucket_lower(int b) {
  if (b < kLinearBuckets) return b;
  const int g = b - kLinearBuckets;
  const int k = 4 + g / kSubBuckets;
  const int sub = g % kSubBuckets;
  return (1LL << k) + static_cast<long long>(sub) * (1LL << (k - 2));
}

long long LatencyHistogram::bucket_upper(int b) {
  if (b >= kBuckets - 1) return LLONG_MAX;
  return bucket_lower(b + 1) - 1;
}

void LatencyHistogram::record_ns(long long ns) {
  if (ns < 0) ns = 0;
  Shard& s = shards_[metric_shard()];
  s.count.fetch_add(1, std::memory_order_relaxed);
  s.sum.fetch_add(ns, std::memory_order_relaxed);
  s.buckets[bucket_of(ns)].fetch_add(1, std::memory_order_relaxed);
  // Relaxed CAS min/max: no fetch_min in the standard library.
  long long cur = s.min.load(std::memory_order_relaxed);
  while (ns < cur &&
         !s.min.compare_exchange_weak(cur, ns, std::memory_order_relaxed)) {
  }
  cur = s.max.load(std::memory_order_relaxed);
  while (ns > cur &&
         !s.max.compare_exchange_weak(cur, ns, std::memory_order_relaxed)) {
  }
}

LatencySnapshot LatencyHistogram::snapshot() const {
  LatencySnapshot snap;
  snap.buckets.assign(kBuckets, 0);
  long long mn = LLONG_MAX;
  long long mx = LLONG_MIN;
  // Fixed shard order; every merged quantity is an integer sum or min/max,
  // so the result is independent of which thread recorded into which shard.
  for (const Shard& s : shards_) {
    snap.count += s.count.load(std::memory_order_relaxed);
    snap.sum_ns += s.sum.load(std::memory_order_relaxed);
    mn = std::min(mn, s.min.load(std::memory_order_relaxed));
    mx = std::max(mx, s.max.load(std::memory_order_relaxed));
    for (int b = 0; b < kBuckets; ++b)
      snap.buckets[static_cast<std::size_t>(b)] +=
          s.buckets[b].load(std::memory_order_relaxed);
  }
  snap.min_ns = snap.count == 0 ? 0 : mn;
  snap.max_ns = snap.count == 0 ? 0 : mx;
  return snap;
}

void LatencyHistogram::reset() {
  for (Shard& s : shards_) {
    s.count.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
    s.min.store(LLONG_MAX, std::memory_order_relaxed);
    s.max.store(LLONG_MIN, std::memory_order_relaxed);
    for (int b = 0; b < kBuckets; ++b)
      s.buckets[b].store(0, std::memory_order_relaxed);
  }
}

long long LatencySnapshot::quantile_ns(double q) const {
  if (count == 0) return 0;
  const long long want = static_cast<long long>(
      std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(count)));
  const long long rank = std::clamp(want, 1LL, count);
  long long cum = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    cum += buckets[b];
    if (cum >= rank)
      return std::clamp(LatencyHistogram::bucket_upper(static_cast<int>(b)),
                        min_ns, max_ns);
  }
  return max_ns;
}

std::string Log2Histogram::bucket_label(int i) {
  if (i == 0) return "0";
  if (i == 1) return "1";
  long long lo = 1LL << (i - 1);
  if (i == kBuckets - 1) return std::to_string(lo) + "+";
  long long hi = (1LL << i) - 1;
  return std::to_string(lo) + "-" + std::to_string(hi);
}

Counter& counter(const std::string& name) {
  return registry().get<Counter>(name);
}

TimeCounter& time_counter(const std::string& name) {
  return registry().get<TimeCounter>(name);
}

MetricGauge& metric_gauge(const std::string& name) {
  return registry().get<MetricGauge>(name);
}

LatencyHistogram& metric_latency(const std::string& name) {
  return registry().get<LatencyHistogram>(name);
}

Log2Histogram& histogram(const std::string& name) {
  return registry().get<Log2Histogram>(name);
}

MetricsSnapshot metrics_snapshot() {
  MetricsSnapshot snap;
  Registry& r = registry();
  const auto all = lock_all_shards();
  const std::lock_guard<std::mutex> lk(r.names_mu);
  r.each([&](const std::string& name, const auto& m) {
    using T = std::decay_t<decltype(m)>;
    if constexpr (std::is_same_v<T, Counter>) {
      snap.counts.emplace(name, m.value());
    } else if constexpr (std::is_same_v<T, TimeCounter>) {
      snap.seconds.emplace(name, m.seconds());
    } else if constexpr (std::is_same_v<T, MetricGauge>) {
      snap.gauges.emplace(name, m.value());
    } else if constexpr (std::is_same_v<T, LatencyHistogram>) {
      snap.latencies.emplace(name, m.snapshot());
    } else {
      std::vector<long long>& buckets = snap.log2[name];
      for (int i = 0; i < Log2Histogram::kBuckets; ++i)
        buckets.push_back(m.bucket(i));
    }
  });
  snap.profile = merged_profile();
  return snap;
}

void metrics_reset() {
  Registry& r = registry();
  const auto all = lock_all_shards();
  const std::lock_guard<std::mutex> lk(r.names_mu);
  r.each([](const std::string&, auto& m) { m.reset(); });
  for (Shard& s : r.shards) s.profile = ProfileSnapshot{};
}

std::string metrics_json(int indent) {
  const MetricsSnapshot snap = metrics_snapshot();
  JsonWriter w(indent);
  w.begin_object();
  w.key("schema").value("bernoulli.metrics.v2");
  w.key("counts").begin_object();
  for (const auto& [name, v] : snap.counts) w.key(name).value(v);
  w.end_object();
  w.key("seconds").begin_object();
  for (const auto& [name, v] : snap.seconds) w.key(name).value(v);
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, v] : snap.gauges) w.key(name).value(v);
  w.end_object();
  w.key("latency").begin_object();
  for (const auto& [name, h] : snap.latencies) {
    w.key(name).begin_object();
    w.key("count").value(h.count);
    w.key("sum_ns").value(h.sum_ns);
    w.key("min_ns").value(h.min_ns);
    w.key("max_ns").value(h.max_ns);
    w.key("mean_ns").value(h.count == 0 ? 0.0
                                        : static_cast<double>(h.sum_ns) /
                                              static_cast<double>(h.count));
    w.key("p50_ns").value(h.p50_ns());
    w.key("p95_ns").value(h.p95_ns());
    w.key("p99_ns").value(h.p99_ns());
    w.key("buckets").begin_array();
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (h.buckets[b] == 0) continue;
      w.begin_array();
      w.value(LatencyHistogram::bucket_lower(static_cast<int>(b)));
      w.value(h.buckets[b]);
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.key("log2").begin_object();
  for (const auto& [name, buckets] : snap.log2) {
    long long total = 0;
    for (long long c : buckets) total += c;
    if (total == 0) continue;
    w.key(name).begin_object();
    w.key("buckets").begin_array();
    for (int i = 0; i < Log2Histogram::kBuckets; ++i) {
      const long long c = buckets[static_cast<std::size_t>(i)];
      if (c == 0) continue;
      w.begin_object();
      w.key("range").value(Log2Histogram::bucket_label(i));
      w.key("count").value(c);
      w.end_object();
    }
    w.end_array();
    w.key("total").value(total);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

std::string metrics_prometheus_text() {
  const MetricsSnapshot snap = metrics_snapshot();
  std::ostringstream os;
  for (const auto& [name, v] : snap.counts) {
    const std::string p = "bernoulli_" + prom_name(name) + "_total";
    os << "# TYPE " << p << " counter\n" << p << " " << v << "\n";
  }
  for (const auto& [name, v] : snap.gauges) {
    const std::string p = "bernoulli_" + prom_name(name);
    os << "# TYPE " << p << " gauge\n" << p << " " << prom_double(v) << "\n";
  }
  for (const auto& [name, h] : snap.latencies) {
    // Prometheus histograms are conventionally in seconds; `le` bounds are
    // the exact integer-ns bucket uppers scaled down.
    // "execute.latency" -> bernoulli_execute_latency_seconds
    const std::string p = "bernoulli_" + prom_name(name) + "_seconds";
    os << "# TYPE " << p << " histogram\n";
    long long cum = 0;
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (h.buckets[b] == 0) continue;
      cum += h.buckets[b];
      const long long upper =
          LatencyHistogram::bucket_upper(static_cast<int>(b));
      os << p << "_bucket{le=\"";
      if (upper == LLONG_MAX)
        os << "+Inf";
      else
        os << prom_double(static_cast<double>(upper) / 1e9);
      os << "\"} " << cum << "\n";
    }
    os << p << "_bucket{le=\"+Inf\"} " << h.count << "\n";
    os << p << "_sum " << prom_double(static_cast<double>(h.sum_ns) / 1e9)
       << "\n";
    os << p << "_count " << h.count << "\n";
  }
  return os.str();
}

bool metrics_write_prometheus(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << metrics_prometheus_text();
  return static_cast<bool>(out);
}

ProfileSnapshot profile_snapshot() {
  const auto all = lock_all_shards();
  return merged_profile();
}

void profile_reset() {
  const auto all = lock_all_shards();
  for (Shard& s : registry().shards) s.profile = ProfileSnapshot{};
}

void profile_phase_add(int phase, long long ns) {
  if (phase < 0 || phase >= kProfPhases) return;
  Shard& s = registry().shards[metric_shard()];
  const std::lock_guard<std::mutex> lk(s.mu);
  s.profile.phase_ns[phase] += ns < 0 ? 0 : ns;
  s.profile.phase_calls[phase] += 1;
}

WorkCounts& WorkCounts::operator+=(const WorkCounts& o) {
  for (const auto& [name, field] : kWorkCountFields) this->*field += o.*field;
  return *this;
}

void RunRecord::begin(std::size_t levels) {
  wall_ns = 0;
  work = WorkCounts{};
  fanout.assign(levels * static_cast<std::size_t>(Log2Histogram::kBuckets),
                0);
  if (profile.any()) profile = ProfileScratch{};
}

void RunRecord::merge(const RunRecord& o) {
  work += o.work;
  for (std::size_t i = 0; i < fanout.size() && i < o.fanout.size(); ++i)
    fanout[i] += o.fanout[i];
  profile.merge(o.profile);
}

RunSink::RunSink(std::size_t levels)
    : latency_(&metric_latency("execute.latency")),
      wall_ns_(&counter("execute.wall_ns")),
      model_bytes_(&counter("execute.model_bytes")),
      model_flops_(&counter("execute.model_flops")),
      runs_(&counter("executor.runs")) {
  for (std::size_t i = 0; i < work_.size(); ++i)
    work_[i] = &counter(kWorkCountFields[i].first);
  fanout_.reserve(levels);
  for (std::size_t d = 0; d < levels; ++d)
    fanout_.push_back(&histogram("executor.fanout.level" + std::to_string(d)));
}

const RunSink& run_sink(std::size_t levels) {
  static std::mutex mu;
  static std::deque<RunSink> sinks;  // sinks[L] has L levels
  const std::lock_guard<std::mutex> lk(mu);
  while (sinks.size() <= levels) sinks.emplace_back(sinks.size());
  return sinks[levels];
}

void RunSink::commit(const RunRecord& rec, long long runs,
                     const ProfileFlush* profile) const {
  Shard& s = registry().shards[metric_shard()];
  const std::lock_guard<std::mutex> lk(s.mu);
  // `runs` latency samples whose exact integer sum is rec.wall_ns, so
  // execute.latency.sum_ns == execute.wall_ns holds for any `runs`.
  const long long base = rec.wall_ns / runs;
  const long long rem = rec.wall_ns % runs;
  for (long long i = 0; i < runs; ++i)
    latency_->record_ns(base + (i < rem ? 1 : 0));
  wall_ns_->add(rec.wall_ns);
  model_bytes_->add(rec.model_bytes * runs);
  model_flops_->add(rec.model_flops * runs);
  runs_->add(runs);
  for (std::size_t i = 0; i < work_.size(); ++i)
    work_[i]->add(rec.work.*kWorkCountFields[i].second * runs);
  constexpr std::size_t kB = Log2Histogram::kBuckets;
  const std::size_t levels = std::min(fanout_.size(), rec.fanout.size() / kB);
  for (std::size_t d = 0; d < levels; ++d)
    for (std::size_t b = 0; b < kB; ++b)
      if (const long long n = rec.fanout[d * kB + b]; n != 0)
        fanout_[d]->add_bucket(static_cast<int>(b), n * runs);
  if (profile != nullptr)
    s.profile.add(*profile);
  else if (rec.profile.any())
    s.profile.add(profile_estimate(rec.profile, rec.wall_ns));
}

PhaseCounters::PhaseCounters(std::string phase_name)
    : phase(std::move(phase_name)),
      messages(counter("comm." + phase + ".messages")),
      bytes(counter("comm." + phase + ".bytes")),
      collectives(counter("comm." + phase + ".collectives")),
      exchanges(counter("comm." + phase + ".exchanges")),
      ghost_values(counter("comm." + phase + ".ghost_values")),
      vtime_compute(time_counter("vtime." + phase + ".compute")),
      vtime_comm(time_counter("vtime." + phase + ".comm")) {}

const PhaseCounters& phase_counters() {
  return t_phase != nullptr ? *t_phase : main_phase();
}

PhaseScope::PhaseScope(const std::string& phase) : saved_(t_phase) {
  t_phase = &resolved_phase(phase);
}

PhaseScope::~PhaseScope() { t_phase = saved_; }

}  // namespace bernoulli::support
