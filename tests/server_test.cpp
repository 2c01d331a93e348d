// KernelServer tests: plan-cache hit/miss semantics and LRU eviction,
// concurrent differential serving (N client threads x M queries, outputs
// bitwise-identical to serial engine execution, counters reconciled to
// one engine run per request), an eviction storm at capacity 1, and the
// rejection of malformed requests and registrations.
#include <gtest/gtest.h>

#include <functional>
#include <thread>
#include <vector>

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
// run count reconciles exactly — one engine run per request, cache miss
// or hit.
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

  // Counter reconciliation: each request books exactly one engine run.
  const support::MetricsSnapshot after = support::metrics_snapshot();
  const server::ServerStats s = srv.stats();
  EXPECT_EQ(s.requests, kClients * kQueries);
  EXPECT_EQ(counter_of(after, "executor.runs") -
                counter_of(before, "executor.runs"),
            kClients * kQueries);

  // The single-booking invariant holds through concurrent serving: every
  // latency nanosecond is also a wall nanosecond.
  const support::MetricsSnapshot m = support::metrics_snapshot();
  ASSERT_TRUE(m.latencies.count("execute.latency"));
  EXPECT_EQ(m.latencies.at("execute.latency").sum_ns,
            m.counts.at("execute.wall_ns"));
}

// Eviction storm: capacity 1 under a seeded, skewed hot set larger than
// the cache, from concurrent clients. Entries are evicted while other
// requests still run on them; every response stays bitwise, no request is
// lost or double-counted, and each one runs the engine exactly once.
TEST(KernelServer, EvictionStormAtCapacityOneStaysBitwiseAndReconciles) {
  constexpr int kMatrices = 4;
  constexpr int kClients = 4;
  constexpr int kQueries = 100;
  std::vector<formats::Csr> mats;
  std::vector<Vector> xs, expects;
  for (int m = 0; m < kMatrices; ++m) {
    const auto mu = static_cast<std::uint64_t>(m);
    mats.push_back(random_csr(40 + 8 * m, 36, 300, 300 + mu));
    xs.push_back(random_x(36, 400 + mu));
    expects.push_back(reference_spmv(mats.back(), xs.back()));
  }
  server::ServerOptions opts;
  opts.plan_cache_capacity = 1;
  server::KernelServer srv(opts);
  std::vector<int> handles;
  for (int m = 0; m < kMatrices; ++m)
    handles.push_back(
        srv.add_csr("m" + std::to_string(m), mats[static_cast<std::size_t>(m)]));
  const support::MetricsSnapshot before = support::metrics_snapshot();

  std::vector<int> failures(kClients, 0);
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t)
    clients.emplace_back([&, t] {
      // Skewed choice: matrix 0 half the time, 1 a quarter, the rest the
      // remainder — a hot set of three or more against a cache of one.
      SplitMix64 rng(500 + static_cast<std::uint64_t>(t));
      for (int q = 0; q < kQueries; ++q) {
        const index_t r = rng.next_index(8);
        const std::size_t m = r < 4 ? 0 : r < 6 ? 1 : r < 7 ? 2 : 3;
        Vector y(expects[m].size(), -1.0);
        srv.spmv(handles[m], ConstVectorView(xs[m]), VectorView(y));
        if (y != expects[m]) ++failures[static_cast<std::size_t>(t)];
      }
    });
  for (std::thread& c : clients) c.join();

  for (int t = 0; t < kClients; ++t)
    EXPECT_EQ(failures[static_cast<std::size_t>(t)], 0) << "client " << t;
  const support::MetricsSnapshot after = support::metrics_snapshot();
  const server::ServerStats s = srv.stats();
  EXPECT_EQ(s.requests, kClients * kQueries);
  EXPECT_EQ(s.cache_hits + s.cache_misses, s.requests);
  EXPECT_GT(s.cache_evictions, 0);
  EXPECT_LE(s.cache_evictions, s.cache_misses);
  EXPECT_EQ(srv.cache_size(), 1u);
  EXPECT_EQ(counter_of(after, "executor.runs") -
                counter_of(before, "executor.runs"),
            s.requests);
}

// A matrix name registers once: a second add_csr under the same name
// throws, naming it, and the name keeps serving the first matrix.
TEST(KernelServer, RejectsDuplicateName) {
  formats::Csr A = random_csr(12, 12, 40, 212);
  formats::Csr B = random_csr(12, 12, 40, 213);
  server::KernelServer srv;
  srv.add_csr("A", A);
  try {
    srv.add_csr("A", B);
    ADD_FAILURE() << "duplicate name accepted";
  } catch (const std::exception& err) {
    EXPECT_NE(std::string(err.what()).find("already registered as A"),
              std::string::npos)
        << err.what();
  }
  const Vector x = random_x(12, 214);
  Vector y(12);
  srv.spmv("A", ConstVectorView(x), VectorView(y));
  EXPECT_EQ(y, reference_spmv(A, x));
  EXPECT_THROW(srv.key_of(1), std::exception);  // nothing was registered
}

// Shape and aliasing guards: a request with mismatched vector sizes must
// be rejected, not silently read out of bounds, and one whose x and y
// overlap must be rejected, not answered from a zeroed x. A rejected
// request is not a request: it throws and leaves stats().requests and the
// server.requests counter where they were.
TEST(KernelServer, RejectsShapeMismatch) {
  formats::Csr A = random_csr(10, 8, 30, 211);
  server::KernelServer srv;
  const int h = srv.add_csr("A", A);
  Vector x(8, 1.0), y(10, 0.0), y_bad(9, 0.0), z(18, 1.0);
  auto count = [](const char* name) {
    return counter_of(support::metrics_snapshot(), name);
  };
  const long long served0 = count("server.requests");
  const long long runs0 = count("executor.runs");
  // A rejected request never reaches the cache: on this cold handle it
  // books no miss, builds and caches no entry, and runs no engine.
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
  const VectorView zv(z);
  expect_rejected([&] { srv.spmv(h, zv.first(8), zv.first(10)); });
  expect_rejected([&] { srv.spmv(h, zv.subspan(2, 8), zv.first(10)); });
  expect_rejected([&] { srv.spmv(h, zv.first(8), zv.subspan(7, 10)); });
  EXPECT_THROW(srv.key_of(99), std::exception);
  // The server still serves the good handle afterwards, and adjacent,
  // non-overlapping x and y in one buffer are not aliased.
  srv.spmv(h, ConstVectorView(x), VectorView(y));
  EXPECT_EQ(srv.stats().requests, 1);
  EXPECT_EQ(count("server.requests"), served0 + 1);
  srv.spmv(h, zv.first(8), zv.subspan(8, 10));
  EXPECT_EQ(srv.stats().requests, 2);
}

}  // namespace
}  // namespace bernoulli
