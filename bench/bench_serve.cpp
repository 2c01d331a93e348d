// Serving bench: QPS and tail latency of the KernelServer under N
// concurrent client threads (pool slots).
//
//   bench_serve [--small] [--check] [--clients=<n>] [--queries=<m>]
//               [--report=<f>] [--metrics=<f>]
//
// One timed phase over a precomputed query set: clients issue requests in
// synchronized waves (std::barrier), and every request leases a runner
// and runs the linked engine once.
//
// The client count is --clients; --threads=<n> (the engine benches'
// width) is rejected with exit 2 rather than ignored.
//
// --check enforces the serving contract: every response bitwise-identical
// to the per-request serial reference, a warm cache (hit rate > 0 in
// steady state), and one engine run (executor.runs) per request served.
#include <algorithm>
#include <barrier>
#include <chrono>
#include <iostream>
#include <map>
#include <vector>

#include "analysis/report.hpp"
#include "common.hpp"
#include "formats/formats.hpp"
#include "server/kernel_server.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace bernoulli {
namespace {

long long now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

formats::Csr random_csr(index_t rows, index_t cols, index_t nnz,
                        std::uint64_t seed) {
  SplitMix64 rng(seed);
  formats::TripletBuilder b(rows, cols);
  for (index_t k = 0; k < nnz; ++k)
    b.add(rng.next_index(rows), rng.next_index(cols),
          rng.next_double(-1.0, 1.0));
  return formats::Csr::from_coo(std::move(b).build());
}

// The per-request serial reference: the engine's exact enumeration order
// and multiply chain, so --check comparisons are bitwise.
Vector reference_spmv(const formats::Csr& A, const Vector& x) {
  Vector y(static_cast<std::size_t>(A.rows()), 0.0);
  const auto rowptr = A.rowptr();
  const auto colind = A.colind();
  const auto vals = A.vals();
  for (index_t i = 0; i < A.rows(); ++i) {
    for (index_t e = rowptr[static_cast<std::size_t>(i)];
         e < rowptr[static_cast<std::size_t>(i) + 1]; ++e) {
      value_t prod = 1.0;
      prod *= vals[static_cast<std::size_t>(e)];
      prod *= x[static_cast<std::size_t>(
          colind[static_cast<std::size_t>(e)])];
      y[static_cast<std::size_t>(i)] += prod;
    }
  }
  return y;
}

struct PhaseResult {
  double wall_s = 0;
  std::vector<long long> latencies_ns;  // one per request
  server::ServerStats stats;
  long long mismatches = 0;  // responses that diverged from the reference
  long long engine_runs = 0;  // executor.runs booked while serving
};

long long runs_counter() {
  const support::MetricsSnapshot s = support::metrics_snapshot();
  const auto it = s.counts.find("executor.runs");
  return it == s.counts.end() ? 0 : it->second;
}

// The serving phase: `clients` pool-slot threads each issue `queries`
// requests in synchronized waves against a fresh server. Every response
// is compared bitwise against its precomputed reference.
PhaseResult run_phase(const formats::Csr& A, const std::vector<Vector>& xs,
                      const std::vector<Vector>& refs, int clients,
                      int queries) {
  server::KernelServer srv;
  const int h = srv.add_csr("A", A);
  const long long runs0 = runs_counter();

  // Untimed first request: pays the cache miss (compile + link) so the
  // timed loop measures steady-state serving.
  {
    Vector y(static_cast<std::size_t>(A.rows()));
    srv.spmv(h, ConstVectorView(xs[0]), VectorView(y));
  }

  PhaseResult out;
  out.latencies_ns.assign(
      static_cast<std::size_t>(clients) * static_cast<std::size_t>(queries),
      0);
  std::atomic<long long> mismatches{0};
  std::barrier wave(clients);
  support::ThreadPool& pool = support::shared_pool(clients);
  const long long t0 = now_ns();
  pool.run_slots(clients, [&](int slot) {
    const std::size_t si = static_cast<std::size_t>(slot);
    Vector y(static_cast<std::size_t>(A.rows()));
    for (int q = 0; q < queries; ++q) {
      const std::size_t xi = (si + static_cast<std::size_t>(q)) % xs.size();
      wave.arrive_and_wait();
      const long long r0 = now_ns();
      srv.spmv(h, ConstVectorView(xs[xi]), VectorView(y));
      out.latencies_ns[si * static_cast<std::size_t>(queries) +
                       static_cast<std::size_t>(q)] = now_ns() - r0;
      if (y != refs[xi]) mismatches.fetch_add(1);
    }
  });
  out.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  out.stats = srv.stats();
  out.mismatches = mismatches.load();
  out.engine_runs = runs_counter() - runs0;
  return out;
}

double quantile_us(std::vector<long long> ns, double q) {
  if (ns.empty()) return 0;
  std::sort(ns.begin(), ns.end());
  const std::size_t idx = std::min(
      ns.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(ns.size())));
  return static_cast<double>(ns[idx]) * 1e-3;
}

}  // namespace
}  // namespace bernoulli

int main(int argc, char** argv) {
  using namespace bernoulli;
  bench::Options opts = bench::Options::parse(argc, argv);
  const char* const usage =
      "usage: bench_serve [--small] [--check] [--clients=<n>] "
      "[--queries=<m>] [--report=<f>] [--metrics=<f>]\n";
  if (opts.threads != 0) {
    std::cerr << "error: bench_serve takes no --threads (clients are "
                 "--clients=<n>)\n"
              << usage;
    return 2;
  }
  int clients = opts.small ? 4 : 8;
  int queries = opts.small ? 40 : 120;
  for (const std::string& arg : opts.rest) {
    if (arg.rfind("--clients=", 0) == 0) {
      clients = std::atoi(arg.c_str() + 10);
    } else if (arg.rfind("--queries=", 0) == 0) {
      queries = std::atoi(arg.c_str() + 10);
    } else {
      std::cerr << "unknown argument: " << arg << "\n" << usage;
      return 2;
    }
  }
  if (clients < 1 || queries < 1) {
    std::cerr << "error: --clients and --queries must be >= 1\n";
    return 2;
  }

  const index_t rows = opts.small ? 600 : 4000;
  const index_t nnz = rows * 12;
  const formats::Csr A = random_csr(rows, rows, nnz, 97);

  // Distinct query vectors (one per client, rotated per request) and
  // their per-request serial references.
  std::vector<Vector> xs, refs;
  for (int t = 0; t < clients; ++t) {
    SplitMix64 rng(5000 + static_cast<std::uint64_t>(t));
    Vector x(static_cast<std::size_t>(rows));
    for (value_t& v : x) v = rng.next_double(-1.0, 1.0);
    refs.push_back(reference_spmv(A, x));
    xs.push_back(std::move(x));
  }

  std::cout << "=== KernelServer: " << clients << " clients x " << queries
            << " queries, " << rows << "x" << rows << " CSR, " << A.nnz()
            << " nnz ===\n\n";

  const PhaseResult r = run_phase(A, xs, refs, clients, queries);

  const double total_requests =
      static_cast<double>(clients) * static_cast<double>(queries);
  const double qps = total_requests / r.wall_s;
  const double p50 = quantile_us(r.latencies_ns, 0.50);
  const double p99 = quantile_us(r.latencies_ns, 0.99);
  const double hit_rate =
      r.stats.requests == 0
          ? 0.0
          : static_cast<double>(r.stats.cache_hits) /
                static_cast<double>(r.stats.cache_hits +
                                    r.stats.cache_misses);

  std::cout << qps << " qps, p50 " << p50 << " us, p99 " << p99
            << " us, hits " << r.stats.cache_hits << " misses "
            << r.stats.cache_misses << ", " << r.engine_runs
            << " engine runs for " << r.stats.requests << " requests\n";

  const std::map<std::string, double> serve = {
      {"qps", qps},
      {"p50_us", p50},
      {"p99_us", p99},
      {"cache_hit_rate", hit_rate},
  };

  if (!opts.obs.report_path.empty()) {
    analysis::RunReport report("bench_serve");
    report.config("clients", static_cast<long long>(clients));
    report.config("queries", static_cast<long long>(queries));
    report.config("small", opts.small ? "true" : "false");
    for (const auto& [key, val] : serve)
      report.metric("exec.serve." + key, val);
    report.write(opts.obs.report_path);
  }
  opts.finish();

  if (opts.check) {
    bool ok = true;
    if (r.mismatches != 0) {
      std::cerr << "CHECK FAILED: " << r.mismatches
                << " responses diverged bitwise from the serial "
                   "per-request reference\n";
      ok = false;
    }
    if (r.stats.cache_hits <= 0) {
      std::cerr << "CHECK FAILED: steady-state serving never hit the plan "
                   "cache\n";
      ok = false;
    }
    if (r.engine_runs != r.stats.requests) {
      std::cerr << "CHECK FAILED: " << r.engine_runs
                << " engine runs (executor.runs) for " << r.stats.requests
                << " requests served; want one run per request\n";
      ok = false;
    }
    if (!ok) return 1;
    std::cout << "\nCHECK OK: " << r.stats.requests
              << " responses bitwise-identical to the serial reference, "
                 "one engine run each; cache hit rate "
              << hit_rate << "\n";
  }
  return 0;
}
