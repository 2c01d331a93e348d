// Serving bench: QPS and tail latency of the KernelServer under N
// concurrent client threads (pool slots), with and without request
// batching.
//
//   bench_serve [--small] [--check] [--threads=<n>] [--clients=<n>]
//               [--queries=<m>] [--report=<f>] [--metrics=<f>]
//
// Two timed phases over the same precomputed query set:
//   unbatched  batching off — every request leases a runner and runs the
//              linked engine (the per-request serial path, differentially
//              the ground truth);
//   batched    batching on — concurrent requests against the cached plan
//              coalesce into SpMM-style multi-vector sweeps. Clients
//              issue requests in synchronized waves (std::barrier) so
//              coalescing windows actually form on small hosts.
//
// --check enforces the serving contract: every response from BOTH phases
// bitwise-identical to the per-request serial reference (and the
// reference itself bitwise-identical to blas::spmm over the same
// right-hand sides), plus a warm cache (hit rate > 0 in steady state).
#include <algorithm>
#include <barrier>
#include <chrono>
#include <cstring>
#include <iostream>
#include <map>
#include <vector>

#include "analysis/report.hpp"
#include "common.hpp"
#include "blas/spmm.hpp"
#include "formats/formats.hpp"
#include "server/kernel_server.hpp"
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
};

// One serving phase: `clients` pool-slot threads each issue `queries`
// requests in synchronized waves against a fresh server. Every response
// is compared bitwise against its precomputed reference.
PhaseResult run_phase(const formats::Csr& A, const std::vector<Vector>& xs,
                      const std::vector<Vector>& refs, int clients,
                      int queries, bool batching, int sweep_threads) {
  server::ServerOptions sopts;
  sopts.batching = batching;
  sopts.max_batch = clients;
  sopts.sweep_threads = sweep_threads;
  server::KernelServer srv(sopts);
  const int h = srv.add_csr("A", A);

  // Untimed warmup: pays the cache miss (compile + link + warmup run) so
  // the timed loop measures steady-state serving.
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
  int clients = opts.small ? 4 : 8;
  int queries = opts.small ? 40 : 120;
  for (const std::string& arg : opts.rest) {
    if (arg.rfind("--clients=", 0) == 0) {
      clients = std::atoi(arg.c_str() + 10);
    } else if (arg.rfind("--queries=", 0) == 0) {
      queries = std::atoi(arg.c_str() + 10);
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return 2;
    }
  }
  if (clients < 1 || queries < 1) {
    std::cerr << "error: --clients and --queries must be >= 1\n";
    return 2;
  }
  const int sweep_threads = std::max(opts.threads, 1);

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

  const PhaseResult unbatched =
      run_phase(A, xs, refs, clients, queries, /*batching=*/false,
                sweep_threads);
  const PhaseResult batched =
      run_phase(A, xs, refs, clients, queries, /*batching=*/true,
                sweep_threads);

  const double total_requests =
      static_cast<double>(clients) * static_cast<double>(queries);
  const double qps = total_requests / batched.wall_s;
  const double qps_unbatched = total_requests / unbatched.wall_s;
  const double p50 = quantile_us(batched.latencies_ns, 0.50);
  const double p99 = quantile_us(batched.latencies_ns, 0.99);
  const double speedup = unbatched.wall_s / batched.wall_s;
  const double hit_rate =
      batched.stats.requests == 0
          ? 0.0
          : static_cast<double>(batched.stats.cache_hits) /
                static_cast<double>(batched.stats.cache_hits +
                                    batched.stats.cache_misses);

  auto print_phase = [&](const char* name, const PhaseResult& r) {
    std::cout << name << ": " << total_requests / r.wall_s << " qps, p50 "
              << quantile_us(r.latencies_ns, 0.50) << " us, p99 "
              << quantile_us(r.latencies_ns, 0.99) << " us, "
              << r.stats.batches << " sweeps covering "
              << r.stats.batched_requests << " requests, hits "
              << r.stats.cache_hits << " misses " << r.stats.cache_misses
              << "\n";
  };
  print_phase("unbatched", unbatched);
  print_phase("batched  ", batched);
  std::cout << "speedup batched/unbatched: " << speedup << "\n";

  const std::map<std::string, double> serve = {
      {"qps", qps},
      {"qps_unbatched", qps_unbatched},
      {"p50_us", p50},
      {"p99_us", p99},
      {"speedup_batched_over_unbatched", speedup},
      {"cache_hit_rate", hit_rate},
      {"batched_requests", static_cast<double>(batched.stats.batched_requests)},
  };

  if (!opts.obs.report_path.empty()) {
    analysis::RunReport report("bench_serve");
    report.config("clients", static_cast<long long>(clients));
    report.config("queries", static_cast<long long>(queries));
    report.config("small", opts.small ? "true" : "false");
    report.config("sweep_threads", static_cast<long long>(sweep_threads));
    for (const auto& [key, val] : serve)
      report.metric("exec.serve." + key, val);
    report.write(opts.obs.report_path);
  }
  opts.finish();

  if (opts.check) {
    bool ok = true;
    if (unbatched.mismatches != 0 || batched.mismatches != 0) {
      std::cerr << "CHECK FAILED: " << unbatched.mismatches << " unbatched / "
                << batched.mismatches
                << " batched responses diverged bitwise from the serial "
                   "per-request reference\n";
      ok = false;
    }
    if (batched.stats.cache_hits <= 0) {
      std::cerr << "CHECK FAILED: steady-state serving never hit the plan "
                   "cache\n";
      ok = false;
    }
    // Reference triangulation: the engine-order reference must itself be
    // bitwise-identical to blas::spmm over the same right-hand sides —
    // the sweep, the engine and spmm share one multiply chain.
    formats::Dense B(rows, clients), C(rows, clients);
    for (int r = 0; r < clients; ++r)
      for (index_t j = 0; j < rows; ++j)
        B.at(j, r) =
            xs[static_cast<std::size_t>(r)][static_cast<std::size_t>(j)];
    blas::spmm(A, B, C);
    for (int r = 0; r < clients && ok; ++r)
      for (index_t i = 0; i < rows; ++i)
        if (C.at(i, r) !=
            refs[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)]) {
          std::cerr << "CHECK FAILED: reference diverges from blas::spmm at "
                       "(" << i << ", " << r << ")\n";
          ok = false;
          break;
        }
    if (!ok) return 1;
    std::cout << "\nCHECK OK: " << static_cast<long long>(total_requests)
              << " responses/phase bitwise-identical to the serial "
                 "reference (and reference == blas::spmm); cache hit rate "
              << hit_rate << "\n";
  }
  return 0;
}
