// Open-loop serving: one generator thread releases seeded Poisson arrivals
// at their due times into a queue; C = nproc - 1 client threads take them
// and call KernelServer::spmv. Latency runs from each request's due time,
// so a stall delays every request queued behind it (no coordinated
// omission). Five CSR matrices of the workload's family: four hot ones
// with Zipf(1) popularity and one cold one that takes 0.1% of requests.
// With plan_cache_capacity = 4 the cold requests evict and rebuild on the
// request path, next to the hits.
#include <condition_variable>
#include <cmath>
#include <deque>
#include <thread>

#include "bench.hpp"
#include "server/kernel_server.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"

namespace perfbench {

using namespace bernoulli;

namespace {

// Matrix sizes (entries) by popularity rank; the last one is the cold one.
constexpr long long kSizes[] = {20'000, 50'000, 7'000, 100'000, 200'000};
constexpr int kMatrices = 5;
constexpr int kHot = 4;
constexpr double kColdShare = 0.001;
// Idle rate (requests rarely overlap), the capacity-ladder length and its
// p99 limit. The limit sits well above the host's occasional multi-
// millisecond stalls, so a probe fails on queueing, not on one stall.
constexpr double kIdleRate = 300;
constexpr double kLadderMinRate = 1000;
constexpr int kLadderSteps = 40;
constexpr int kCapacitySearches = 3;
constexpr double kP99LimitUs = 10'000;
constexpr int kVectors = 8;  // right-hand sides per matrix

struct Request {
  long long due = 0;  // ns offset from the phase start
  int matrix = 0;
  int xi = 0;
};

struct Outcome {
  long long due = 0, dequeue = 0, start = 0, end = 0;  // absolute ns
  bool done = false;
  bool ok = false;
};

struct SliceResult {
  std::vector<Outcome> out;
  std::vector<Request> reqs;
  std::vector<double> lag_us;
  bool aborted = false;
  long long completed = 0;
  long long failed = 0;
  double span_s = 0;  // slice start to the last completion

  std::vector<double> latency_us() const { return part_us(&Outcome::due, &Outcome::end); }
  std::vector<double> part_us(long long Outcome::*from, long long Outcome::*to,
                              int only_matrix = -1) const {
    std::vector<double> v;
    for (std::size_t i = 0; i < out.size(); ++i)
      if (out[i].done && (only_matrix < 0 || reqs[i].matrix == only_matrix))
        v.push_back(static_cast<double>(out[i].*to - out[i].*from) * 1e-3);
    return v;
  }
};

struct Fixture {
  std::vector<formats::Csr> mats;
  std::vector<std::vector<Vector>> xs;    // [matrix][k]
  std::vector<std::vector<Vector>> refs;  // engine-order y = A x
  std::size_t max_rows = 0;
};

// y = A x in the engine's order: ascending entries within a row, each term
// formed as (1.0 * a) * x, summed from 0.0. Responses must equal it bitwise.
Vector engine_order_spmv(const formats::Csr& a, const Vector& x) {
  Vector y(static_cast<std::size_t>(a.rows()), 0.0);
  const auto rp = a.rowptr();
  const auto ci = a.colind();
  const auto v = a.vals();
  for (index_t i = 0; i < a.rows(); ++i)
    for (index_t e = rp[static_cast<std::size_t>(i)];
         e < rp[static_cast<std::size_t>(i) + 1]; ++e) {
      value_t prod = 1.0;
      prod *= v[static_cast<std::size_t>(e)];
      prod *= x[static_cast<std::size_t>(ci[static_cast<std::size_t>(e)])];
      y[static_cast<std::size_t>(i)] += prod;
    }
  return y;
}

std::vector<Request> make_requests(double rate, double duration_s,
                                   std::uint64_t seed) {
  const std::vector<long long> due = poisson_schedule(rate, duration_s, seed);
  const Zipf zipf(kHot, 1.0);
  SplitMix64 rng(seed ^ 0x9e37ULL);
  std::vector<Request> reqs(due.size());
  for (std::size_t i = 0; i < due.size(); ++i) {
    reqs[i].due = due[i];
    reqs[i].matrix = rng.next_double() < kColdShare ? kHot : zipf.sample(rng);
    reqs[i].xi = static_cast<int>(rng.next_below(kVectors));
  }
  return reqs;
}

// Runs one open-loop slice. When `max_backlog` > 0 the generator stops
// releasing once that many requests wait (an over-capacity probe).
SliceResult run_slice(Context& ctx, server::KernelServer& srv,
                      const std::vector<int>& handles, const Fixture& fx,
                      std::vector<Request> reqs, int clients,
                      std::size_t max_backlog) {
  SliceResult res;
  res.reqs = std::move(reqs);
  const std::size_t n = res.reqs.size();
  res.out.resize(n);
  res.lag_us.reserve(n);
  if (n == 0) return res;

  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::size_t> queue;
  bool closed = false;
  const long long base = now_ns() + 2'000'000;

  auto client = [&] {
    Vector y(fx.max_rows);
    for (;;) {
      std::size_t i = 0;
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return closed || !queue.empty(); });
        if (queue.empty()) return;
        i = queue.front();
        queue.pop_front();
      }
      const Request& r = res.reqs[i];
      Outcome& o = res.out[i];
      o.dequeue = now_ns();
      const formats::Csr& a = fx.mats[static_cast<std::size_t>(r.matrix)];
      const VectorView yv(y.data(), static_cast<std::size_t>(a.rows()));
      const Vector& x = fx.xs[static_cast<std::size_t>(r.matrix)][static_cast<std::size_t>(r.xi)];
      bool ok = false;
      {
        SpanScope call(ctx.tracer, "server.KernelServer::spmv", -1, static_cast<long long>(i));
        o.start = now_ns();
        try {
          srv.spmv(handles[static_cast<std::size_t>(r.matrix)], ConstVectorView(x), yv);
          ok = true;
        } catch (const std::exception& e) {
          std::fprintf(stderr, "request %zu threw: %s\n", i, e.what());
        }
        o.end = now_ns();
      }
      const Vector& ref = fx.refs[static_cast<std::size_t>(r.matrix)][static_cast<std::size_t>(r.xi)];
      o.ok = ok && std::equal(ref.begin(), ref.end(), y.begin());
      o.done = true;
    }
  };

  std::vector<std::thread> pool;
  for (int c = 0; c < clients; ++c) pool.emplace_back(client);
  std::thread generator([&] {
    for (std::size_t i = 0; i < n; ++i) {
      const long long target = base + res.reqs[i].due;
      // Sleep through long gaps, spin through the last half millisecond:
      // a sleep can overshoot by more than the gaps at nominal rates.
      for (long long t = now_ns(); t < target; t = now_ns())
        if (target - t > 1'000'000)
          std::this_thread::sleep_for(std::chrono::nanoseconds(target - t - 500'000));
      {
        std::lock_guard<std::mutex> lk(mu);
        if (max_backlog > 0 && queue.size() >= max_backlog) {
          res.aborted = true;
          break;
        }
        res.out[i].due = target;
        queue.push_back(i);
      }
      res.lag_us.push_back(static_cast<double>(now_ns() - target) * 1e-3);
      cv.notify_one();
    }
    {
      std::lock_guard<std::mutex> lk(mu);
      closed = true;
    }
    cv.notify_all();
  });
  generator.join();
  for (std::thread& t : pool) t.join();

  long long last_end = base;
  for (std::size_t i = 0; i < n; ++i) {
    const Outcome& o = res.out[i];
    if (!o.done) continue;
    ++res.completed;
    last_end = std::max(last_end, o.end);
    if (!o.ok) ++res.failed;
    ctx.check(o.ok, "request " + std::to_string(i) + " response differs from the reference");
    if (ctx.tracer.enabled()) {
      ctx.tracer.record("bench.request", o.due, o.end, -1, static_cast<long long>(i));
      ctx.tracer.record("bench.queue_wait", o.due, o.dequeue, -1, static_cast<long long>(i));
    }
  }
  res.span_s = static_cast<double>(last_end - base) * 1e-9;
  return res;
}

server::ServerOptions server_options() {
  server::ServerOptions o;
  o.plan_cache_capacity = kMatrices - 1;
  o.batching = true;
  o.max_batch = 8;
  o.sweep_threads = 1;
  return o;
}

class Serve final : public Phase {
 public:
  explicit Serve(Context& ctx)
      : ctx_(ctx), w_(*ctx.workload), clients_(std::max(1, std::min(3, ctx.nproc - 1))) {}

  double setup() override {
    for (int m = 0; m < kMatrices; ++m) {
      const std::uint64_t s = ctx_.seed * 1000003ULL + static_cast<std::uint64_t>(m);
      fx_.mats.push_back(family_matrix(w_, kSizes[m], s));
      fx_.max_rows = std::max(fx_.max_rows, static_cast<std::size_t>(fx_.mats.back().rows()));
      SplitMix64 rng(s ^ 0x51edULL);
      fx_.xs.emplace_back();
      fx_.refs.emplace_back();
      for (int k = 0; k < kVectors; ++k) {
        Vector x(static_cast<std::size_t>(fx_.mats.back().cols()));
        for (value_t& v : x) v = rng.next_double(-1.0, 1.0);
        fx_.refs.back().push_back(engine_order_spmv(fx_.mats.back(), x));
        fx_.xs.back().push_back(std::move(x));
      }
    }
    std::fprintf(stderr, "[serve_openloop] %d clients, matrices:", clients_);
    for (const auto& a : fx_.mats) std::fprintf(stderr, " %d", a.nnz());
    std::fprintf(stderr, " entries\n");

    // Set-up: construction + add_csr + the first (cold) request per matrix.
    constexpr int kSetupReps = 3;
    std::vector<double> setups;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      srv_.reset();
      handles_.clear();
      const long long t0 = now_ns();
      srv_ = std::make_unique<server::KernelServer>(server_options());
      for (int m = 0; m < kMatrices; ++m)
        handles_.push_back(srv_->add_csr("m" + std::to_string(m), fx_.mats[static_cast<std::size_t>(m)]));
      double cold = 0;
      for (int m = 0; m < kMatrices; ++m) {
        const auto mi = static_cast<std::size_t>(m);
        Vector y(static_cast<std::size_t>(fx_.mats[mi].rows()));
        SpanScope span(ctx_.tracer, "server.KernelServer::spmv(cold)", -1, m);
        const long long c0 = now_ns();
        srv_->spmv(handles_[mi], ConstVectorView(fx_.xs[mi][0]), VectorView(y));
        cold += static_cast<double>(now_ns() - c0) * 1e-3;
        ctx_.check(y == fx_.refs[mi][0], "cold request differs from the reference");
      }
      setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
      colds_.push_back(cold / kMatrices);
    }
    // Re-warm the hot set so the timed slices start from a steady cache.
    for (int m = kHot - 1; m >= 0; --m) {
      const auto mi = static_cast<std::size_t>(m);
      Vector y(static_cast<std::size_t>(fx_.mats[mi].rows()));
      srv_->spmv(handles_[mi], ConstVectorView(fx_.xs[mi][0]), VectorView(y));
    }
    return median(std::move(setups));
  }

  // Per epoch: an idle slice, a nominal slice and, in kCapacitySearches
  // epochs spread over the run, one full capacity search.
  void epoch(int e, double budget_s) override {
    const std::uint64_t seed = ctx_.seed * 7919ULL + 1000ULL * static_cast<std::uint64_t>(e);
    const SliceResult idle = run_slice(
        ctx_, *srv_, handles_, fx_, make_requests(kIdleRate, 0.25 * budget_s, seed + 1),
        clients_, 0);
    idle_p50_.push_back(median(idle.latency_us()));
    const std::vector<double> call0 = idle.part_us(&Outcome::start, &Outcome::end, 0);
    if (!call0.empty()) idle_call0_.push_back(median(call0));

    const server::ServerStats s0 = srv_->stats();
    const support::MetricsSnapshot m0 = support::metrics_snapshot();
    // At least 1300 expected arrivals: p99 needs 1000, and a Poisson count
    // falls below 1000 with negligible probability.
    const double nominal_s = std::max(0.45 * budget_s, 1300.0 / w_.serve_nominal_rate);
    const SliceResult nom = run_slice(
        ctx_, *srv_, handles_, fx_, make_requests(w_.serve_nominal_rate, nominal_s, seed + 2),
        clients_, 0);
    const support::MetricsSnapshot m1 = support::metrics_snapshot();
    const server::ServerStats s1 = srv_->stats();
    std::vector<double> lat = nom.latency_us();
    std::sort(lat.begin(), lat.end());
    ctx_.check(highest_reportable_per_mille(static_cast<long long>(lat.size())) >= 990,
               "nominal slice has too few samples for p99");
    p50_.push_back(quantile_sorted(lat, 0.50));
    p99_.push_back(quantile_sorted(lat, 0.99));
    // Pooled per-layer figures over every nominal slice.
    for (const double v : nom.part_us(&Outcome::due, &Outcome::start)) wait_.push_back(v);
    for (const double v : nom.part_us(&Outcome::start, &Outcome::end)) call_.push_back(v);
    lag_.insert(lag_.end(), nom.lag_us.begin(), nom.lag_us.end());
    auto lat_sum = [](const support::MetricsSnapshot& s, const char* name) {
      const auto it = s.latencies.find(name);
      return it == s.latencies.end() ? 0.0 : static_cast<double>(it->second.sum_ns);
    };
    exec_ns_ += lat_sum(m1, "execute.latency") - lat_sum(m0, "execute.latency");
    req_ns_ += lat_sum(m1, "server.request.latency") - lat_sum(m0, "server.request.latency");
    requests_ += static_cast<double>(s1.requests - s0.requests);
    hits_ += static_cast<double>(s1.cache_hits - s0.cache_hits);
    misses_ += static_cast<double>(s1.cache_misses - s0.cache_misses);
    evictions_ += static_cast<double>(s1.cache_evictions - s0.cache_evictions);
    batches_ += static_cast<double>(s1.batches - s0.batches);
    batched_ += static_cast<double>(s1.batched_requests - s0.batched_requests);
    for (const Outcome& o : nom.out) {
      if (!o.done) continue;
      recon_req_ += static_cast<double>(o.end - o.due);
      recon_parts_ += static_cast<double>(o.dequeue - o.due) + static_cast<double>(o.end - o.start);
    }

    // Capacity is a per-layer figure, measured in the traced run only.
    if (ctx_.trace && (e + 1) % (kEpochs / kCapacitySearches) == 0)
      capacities_.push_back(capacity_search(seed + 100));
  }

  void finish() override {
    // One sample per epoch: the lower quartile of the 16.
    ctx_.set_samples("serve_idle_p50_us", idle_p50_, 0.25);
    ctx_.set_samples("serve_p50_us", p50_, 0.25);
    ctx_.set_samples("serve_p99_us", p99_, 0.25);
    if (!ctx_.trace) return;

    // The host's speed drifts during a run (README.md, "Noise"): of the
    // searches, report the highest. 0 means no rung met the limit, which
    // the host's stalls can cause; it is a measurement, not an oracle
    // failure.
    ctx_.series["serve_capacity_qps"] = capacities_;
    ctx_.set("serve_capacity_qps", *std::max_element(capacities_.begin(), capacities_.end()));

    ctx_.set("bench.queue_wait_us.p50", quantile(wait_, 0.50));
    ctx_.set("bench.queue_wait_us.p99", quantile(wait_, 0.99));
    ctx_.set("server.call_us.p50", quantile(call_, 0.50));
    ctx_.set("server.call_us.p99", quantile(call_, 0.99));
    ctx_.set("bench.generator_lag_us.p99", quantile(lag_, 0.99));
    ctx_.set("bench.generator_lag_us.max", quantile(lag_, 1.0));
    // server.overhead_us: idle call p50 on the most popular matrix minus
    // that matrix's direct LinkedRunner::run p50.
    ctx_.set("server.overhead_us",
             median(idle_call0_) - linked_run_p50_us(fx_.mats[0], fx_.xs[0][0]));
    ctx_.set("server.compute_share", req_ns_ > 0 ? exec_ns_ / req_ns_ : 0.0);
    ctx_.set("server.hit_frac", hits_ + misses_ > 0 ? hits_ / (hits_ + misses_) : 0.0);
    ctx_.set("server.evictions", evictions_);
    ctx_.set("server.cold_call_us", median(colds_));
    ctx_.set("server.batch_mean", batches_ > 0 ? batched_ / batches_ : 1.0);
    ctx_.set("server.batched_frac", requests_ > 0 ? batched_ / requests_ : 0.0);
    // Reconciliation: request (due -> end) = queue wait (due -> dequeue) +
    // call (the KernelServer::spmv span); the residual is what neither
    // covers.
    ctx_.set("recon.request_residual_frac",
             recon_req_ > 0 ? (recon_req_ - recon_parts_) / recon_req_ : 0.0);
  }

 private:
  // Binary search over the fixed geometric ladder min * 1.05^k, k in
  // [0, kLadderSteps), run to convergence. A rung passes when its p99
  // (from ~2000 samples) is within the limit and the backlog never reached
  // 20 ms of arrivals. Returns the throughput achieved on the highest
  // passing rung (0 when none passes).
  double capacity_search(std::uint64_t seed) {
    int lo = -1, hi = kLadderSteps, probes = 0;
    double capacity = 0;
    while (hi - lo > 1) {
      const int mid = (std::max(lo, 0) + hi) / 2;
      const double rate = kLadderMinRate * std::pow(1.05, mid);
      const double dur = std::max(0.1, 2000.0 / rate);
      const auto backlog = static_cast<std::size_t>(std::max(50.0, 0.02 * rate));
      const SliceResult p = run_slice(ctx_, *srv_, handles_, fx_,
                                      make_requests(rate, dur, seed + static_cast<std::uint64_t>(mid)),
                                      clients_, backlog);
      ++probes;
      std::vector<double> lat = p.latency_us();
      std::sort(lat.begin(), lat.end());
      const bool pass = !p.aborted && p.failed == 0 &&
                        highest_reportable_per_mille(static_cast<long long>(lat.size())) >= 990 &&
                        quantile_sorted(lat, 0.99) <= kP99LimitUs;
      if (pass) {
        lo = mid;
        capacity = static_cast<double>(p.completed) / std::max(p.span_s, 1e-9);
      } else {
        hi = mid;
      }
    }
    std::fprintf(stderr, "[serve_openloop] capacity %.0f/s after %d probes\n", capacity, probes);
    return capacity;
  }

  Context& ctx_;
  const Workload& w_;
  const int clients_;
  Fixture fx_;
  std::unique_ptr<server::KernelServer> srv_;
  std::vector<int> handles_;
  std::vector<double> colds_, idle_p50_, idle_call0_, p50_, p99_, capacities_;
  std::vector<double> wait_, call_, lag_;
  double exec_ns_ = 0, req_ns_ = 0, requests_ = 0, hits_ = 0, misses_ = 0;
  double evictions_ = 0, batches_ = 0, batched_ = 0, recon_req_ = 0, recon_parts_ = 0;
};

}  // namespace

std::unique_ptr<Phase> make_serve_openloop(Context& ctx) { return std::make_unique<Serve>(ctx); }

}  // namespace perfbench
