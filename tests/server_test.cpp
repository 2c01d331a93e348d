// KernelServer tests (PR 10 tentpole): plan-cache hit/miss semantics and
// LRU eviction, concurrent differential serving (N client threads x M
// queries, outputs bitwise-identical to serial engine execution, counters
// reconciled), and the batched SpMM-style sweep's bitwise contract with
// both the per-request path and blas::spmm.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "blas/spmm.hpp"
#include "formats/formats.hpp"
#include "server/kernel_server.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"

namespace bernoulli {
namespace {

formats::Csr random_csr(index_t rows, index_t cols, index_t nnz,
                        std::uint64_t seed) {
  SplitMix64 rng(seed);
  formats::TripletBuilder b(rows, cols);
  for (index_t k = 0; k < nnz; ++k)
    b.add(rng.next_index(rows), rng.next_index(cols),
          rng.next_double(-1.0, 1.0));
  return formats::Csr::from_coo(std::move(b).build());
}

Vector random_x(std::size_t n, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Vector x(n);
  for (value_t& v : x) v = rng.next_double(-1.0, 1.0);
  return x;
}

// y = A x in the engine's exact enumeration order and multiply chain
// (row-ascending, nonzero-ascending, prod = scale * A * x with scale 1),
// so every comparison below is bitwise, not approximate.
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

long long counter_of(const support::MetricsSnapshot& s,
                     const std::string& name) {
  auto it = s.counts.find(name);
  return it == s.counts.end() ? 0 : it->second;
}

TEST(KernelServer, CacheHitMissAndBitwiseResult) {
  formats::Csr A = random_csr(60, 50, 420, 201);
  server::KernelServer srv;
  const int h = srv.add_csr("A", A);
  EXPECT_EQ(srv.cache_size(), 0u);  // artifacts build lazily

  const Vector x = random_x(50, 202);
  const Vector expect = reference_spmv(A, x);
  Vector y(60, -1.0);
  srv.spmv(h, ConstVectorView(x), VectorView(y));
  EXPECT_EQ(y, expect);

  server::ServerStats s = srv.stats();
  EXPECT_EQ(s.requests, 1);
  EXPECT_EQ(s.cache_misses, 1);
  EXPECT_EQ(s.cache_hits, 0);
  EXPECT_EQ(srv.cache_size(), 1u);

  std::fill(y.begin(), y.end(), -1.0);
  srv.spmv(h, ConstVectorView(x), VectorView(y));
  EXPECT_EQ(y, expect);
  s = srv.stats();
  EXPECT_EQ(s.requests, 2);
  EXPECT_EQ(s.cache_misses, 1);
  EXPECT_EQ(s.cache_hits, 1);
  EXPECT_EQ(srv.cache_size(), 1u);
}

TEST(KernelServer, SameStorageSharesOneCachedPlan) {
  formats::Csr A = random_csr(30, 30, 150, 203);
  server::KernelServer srv;
  const int h1 = srv.add_csr("A", A);
  const int h2 = srv.add_csr("A-alias", A);
  EXPECT_EQ(srv.key_of(h1), srv.key_of(h2));

  const Vector x = random_x(30, 204);
  Vector y1(30), y2(30);
  srv.spmv(h1, ConstVectorView(x), VectorView(y1));
  srv.spmv(h2, ConstVectorView(x), VectorView(y2));
  EXPECT_EQ(y1, y2);
  const server::ServerStats s = srv.stats();
  EXPECT_EQ(s.cache_misses, 1);  // second handle hits the shared entry
  EXPECT_EQ(s.cache_hits, 1);
  EXPECT_EQ(srv.cache_size(), 1u);

  // Same shape, DIFFERENT storage: distinct key.
  formats::Csr B = random_csr(30, 30, 150, 203);
  const int h3 = srv.add_csr("B", B);
  EXPECT_NE(srv.key_of(h1), srv.key_of(h3));
}

TEST(KernelServer, LruEvictionIsBoundedAndRecoverable) {
  formats::Csr A = random_csr(24, 24, 100, 205);
  formats::Csr B = random_csr(24, 24, 100, 206);
  formats::Csr C = random_csr(24, 24, 100, 207);
  server::ServerOptions opts;
  opts.plan_cache_capacity = 2;
  server::KernelServer srv(opts);
  const int ha = srv.add_csr("A", A);
  const int hb = srv.add_csr("B", B);
  const int hc = srv.add_csr("C", C);

  const Vector x = random_x(24, 208);
  Vector y(24);
  srv.spmv(ha, ConstVectorView(x), VectorView(y));  // miss: cache {A}
  srv.spmv(hb, ConstVectorView(x), VectorView(y));  // miss: cache {B, A}
  EXPECT_EQ(srv.cache_size(), 2u);
  EXPECT_EQ(srv.stats().cache_evictions, 0);

  srv.spmv(hc, ConstVectorView(x), VectorView(y));  // miss: evicts A (LRU)
  EXPECT_EQ(srv.cache_size(), 2u);
  EXPECT_EQ(srv.stats().cache_evictions, 1);

  srv.spmv(hb, ConstVectorView(x), VectorView(y));  // hit: B stayed cached
  EXPECT_EQ(srv.stats().cache_hits, 1);

  srv.spmv(ha, ConstVectorView(x), VectorView(y));  // miss again: rebuilt
  EXPECT_EQ(srv.stats().cache_evictions, 2);        // C was LRU this time
  EXPECT_EQ(srv.cache_size(), 2u);
  EXPECT_EQ(y, reference_spmv(A, x));               // rebuilt entry serves
}

// N client threads x M distinct queries against one server: every
// response bitwise-equal to serial engine execution, and the executor.*
// run count reconciles exactly — one engine-run group per request plus
// one warmup run per cache miss, whether requests were batched or not.
TEST(KernelServer, ConcurrentClientsMatchSerialBitwiseAndReconcile) {
  formats::Csr A = random_csr(120, 100, 1400, 209);
  constexpr int kClients = 4;
  constexpr int kQueries = 24;

  // Precompute every query and its serial reference.
  std::vector<Vector> xs, expects;
  for (int t = 0; t < kClients; ++t)
    for (int q = 0; q < kQueries; ++q) {
      xs.push_back(random_x(100, 1000 + static_cast<std::uint64_t>(
                                            t * kQueries + q)));
      expects.push_back(reference_spmv(A, xs.back()));
    }

  server::KernelServer srv;
  const int h = srv.add_csr("A", A);
  const support::MetricsSnapshot before = support::metrics_snapshot();

  std::vector<Vector> ys(xs.size(), Vector(120, 0.0));
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t)
    clients.emplace_back([&, t] {
      for (int q = 0; q < kQueries; ++q) {
        const std::size_t i = static_cast<std::size_t>(t * kQueries + q);
        srv.spmv(h, ConstVectorView(xs[i]), VectorView(ys[i]));
      }
    });
  for (std::thread& c : clients) c.join();

  for (std::size_t i = 0; i < xs.size(); ++i)
    EXPECT_EQ(ys[i], expects[i]) << "request " << i;

  // Counter reconciliation: each request books one engine-run group
  // (batched sweeps replay the cached delta per request), plus one
  // warmup run per cache miss.
  const support::MetricsSnapshot after = support::metrics_snapshot();
  const server::ServerStats s = srv.stats();
  EXPECT_EQ(s.requests, kClients * kQueries);
  EXPECT_EQ(counter_of(after, "executor.runs") -
                counter_of(before, "executor.runs"),
            kClients * kQueries + s.cache_misses);

  // The single-booking invariant holds through concurrent serving and
  // batched replay: every latency nanosecond is also a wall nanosecond.
  const support::MetricsSnapshot m = support::metrics_snapshot();
  ASSERT_TRUE(m.latencies.count("execute.latency"));
  EXPECT_EQ(m.latencies.at("execute.latency").sum_ns,
            m.counts.at("execute.wall_ns"));
}

// The batched sweep must reproduce per-request results bitwise. Drive
// enough concurrent identical traffic that sweeps actually form (leader
// preemption windows coalesce followers), retrying the workload until
// the server reports at least one multi-request batch; every response is
// checked bitwise against the unbatched reference regardless.
TEST(KernelServer, BatchedSweepBitwiseEqualsUnbatchedAndSpmm) {
  formats::Csr A = random_csr(200, 200, 3000, 210);
  constexpr int kClients = 8;
  constexpr int kQueries = 40;

  std::vector<Vector> xs, expects;
  for (int t = 0; t < kClients; ++t) {
    xs.push_back(random_x(200, 2000 + static_cast<std::uint64_t>(t)));
    expects.push_back(reference_spmv(A, xs.back()));
  }

  // Differential reference #2: blas::spmm over the same right-hand sides
  // (column r of B = client r's x) must agree bitwise with the engine
  // reference — the sweep, the engine and spmm share one multiply chain.
  formats::Dense B(200, kClients), C(200, kClients);
  for (int r = 0; r < kClients; ++r)
    for (index_t j = 0; j < 200; ++j)
      B.at(j, r) = xs[static_cast<std::size_t>(r)][static_cast<std::size_t>(j)];
  blas::spmm(A, B, C);
  for (int r = 0; r < kClients; ++r)
    for (index_t i = 0; i < 200; ++i)
      ASSERT_EQ(C.at(i, r),
                expects[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)]);

  server::ServerOptions opts;
  opts.max_batch = kClients;
  server::KernelServer srv(opts);
  const int h = srv.add_csr("A", A);

  long long batched = 0;
  for (int round = 0; round < 20 && batched == 0; ++round) {
    std::vector<std::thread> clients;
    std::atomic<int> failures{0};
    for (int t = 0; t < kClients; ++t)
      clients.emplace_back([&, t] {
        const std::size_t ti = static_cast<std::size_t>(t);
        Vector y(200);
        for (int q = 0; q < kQueries; ++q) {
          srv.spmv(h, ConstVectorView(xs[ti]), VectorView(y));
          if (y != expects[ti]) failures.fetch_add(1);
        }
      });
    for (std::thread& c : clients) c.join();
    ASSERT_EQ(failures.load(), 0) << "batched response diverged bitwise";
    batched = srv.stats().batched_requests;
  }
  EXPECT_GT(batched, 0) << "no multi-request sweep ever formed";
  EXPECT_GT(srv.stats().batches, 0);
}

// Shape guard: a request with mismatched vector sizes must be rejected,
// not silently read out of bounds.
// A rejected request is not a request: a shape mismatch or a bad handle
// throws and leaves stats().requests and the server.requests counter
// where they were.
TEST(KernelServer, RejectsShapeMismatch) {
  formats::Csr A = random_csr(10, 8, 30, 211);
  server::KernelServer srv;
  const int h = srv.add_csr("A", A);
  Vector x(8, 1.0), y(10, 0.0), y_bad(9, 0.0);
  auto count = [](const char* name) {
    return counter_of(support::metrics_snapshot(), name);
  };
  const long long served0 = count("server.requests");
  const long long runs0 = count("executor.runs");
  // A rejected request never reaches the cache: on this cold handle it
  // books no miss, builds and caches no entry, and runs no warmup.
  auto expect_rejected = [&](const std::function<void()>& call) {
    EXPECT_THROW(call(), std::exception);
    EXPECT_EQ(srv.stats().requests, 0);
    EXPECT_EQ(srv.stats().cache_misses, 0);
    EXPECT_EQ(srv.cache_size(), 0u);
    EXPECT_EQ(count("server.requests"), served0);
    EXPECT_EQ(count("executor.runs"), runs0);
  };
  expect_rejected(
      [&] { srv.spmv(h, ConstVectorView(x), VectorView(y_bad)); });
  expect_rejected([&] { srv.spmv(-1, ConstVectorView(x), VectorView(y)); });
  expect_rejected([&] { srv.spmv(99, ConstVectorView(x), VectorView(y)); });
  expect_rejected(
      [&] { srv.spmv("missing", ConstVectorView(x), VectorView(y)); });
  EXPECT_THROW(srv.key_of(99), std::exception);
  // The server still serves the good handle afterwards.
  srv.spmv(h, ConstVectorView(x), VectorView(y));
  EXPECT_EQ(srv.stats().requests, 1);
  EXPECT_EQ(count("server.requests"), served0 + 1);
}

}  // namespace
}  // namespace bernoulli
