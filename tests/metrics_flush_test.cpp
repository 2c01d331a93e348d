// Regression tests for the per-run record commit (support/metrics.hpp).
// A run commits a GROUP — one execute.latency sample, the matching
// execute.wall_ns delta, the executor.* counts, fan-out buckets, the
// profile — under its registry shard's lock, and a concurrent
// metrics_snapshot() (which holds every shard's lock) must never see
// half of it. The witness invariants, at EVERY snapshot:
// execute.latency.sum_ns == execute.wall_ns (the same integer
// nanoseconds), executor.runs == execute.latency count, and with
// profiling on, the profile's run count == execute.latency count.
// Without a commit that readers exclude, the mid-flight assertions below
// trip (a snapshot lands between two bookings of one run) and the
// interleavings race under ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "compiler/link.hpp"
#include "compiler/loopnest.hpp"
#include "formats/formats.hpp"
#include "support/metrics.hpp"
#include "support/profile.hpp"
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

compiler::CompiledKernel compile_spmv(compiler::Bindings& b,
                                      const formats::Csr& A,
                                      ConstVectorView x, VectorView y) {
  b.bind_csr("A", A);
  b.bind_dense_vector("x", x);
  b.bind_dense_vector("y", y);
  compiler::LoopNest nest;
  nest.loops = {{"i", A.rows()}, {"j", A.cols()}};
  nest.body.target = {"y", {"i"}};
  nest.body.factors = {{"A", {"i", "j"}}, {"x", {"j"}}};
  return compiler::compile(nest, b);
}

// sum_ns vs wall_ns out of one snapshot; {0, 0} when nothing booked yet.
std::pair<long long, long long> latency_vs_wall(
    const support::MetricsSnapshot& s) {
  long long sum = 0;
  if (auto it = s.latencies.find("execute.latency"); it != s.latencies.end())
    sum = it->second.sum_ns;
  long long wall = 0;
  if (auto it = s.counts.find("execute.wall_ns"); it != s.counts.end())
    wall = it->second;
  return {sum, wall};
}

long long count_of(const support::MetricsSnapshot& s, const char* name) {
  auto it = s.counts.find(name);
  return it == s.counts.end() ? 0 : it->second;
}

long long samples_of(const support::MetricsSnapshot& s) {
  auto it = s.latencies.find("execute.latency");
  return it == s.latencies.end() ? 0 : it->second.count;
}

TEST(MetricsFlush, SerialRunsKeepLatencySumEqualToWall) {
  support::metrics_reset();
  formats::Csr A = random_csr(40, 40, 260, 101);
  Vector x(40, 0.5), y(40, 0.0);
  compiler::Bindings b;
  const compiler::CompiledKernel k =
      compile_spmv(b, A, ConstVectorView(x), VectorView(y));
  constexpr int kRuns = 25;
  for (int i = 0; i < kRuns; ++i) k.run();
  const support::MetricsSnapshot s = support::metrics_snapshot();
  const auto [sum, wall] = latency_vs_wall(s);
  EXPECT_EQ(sum, wall);
  EXPECT_EQ(s.latencies.at("execute.latency").count, kRuns);
}

// The regression: snapshots taken WHILE another thread commits runs must
// always see a consistent group. If readers did not exclude the commit,
// this would fail on the first snapshot that lands between the latency
// booking and the wall_ns booking of one run.
TEST(MetricsFlush, ConcurrentSnapshotsNeverSeeTornFlush) {
  support::metrics_reset();
  formats::Csr A = random_csr(64, 64, 700, 102);
  Vector x(64, 1.0), y(64, 0.0);
  compiler::Bindings b;
  const compiler::CompiledKernel k =
      compile_spmv(b, A, ConstVectorView(x), VectorView(y));
  constexpr int kRuns = 400;

  std::atomic<bool> watching{false};
  std::atomic<bool> done{false};
  // The runs start only once the snapshot loop is about to start, so the
  // two overlap however fast a run is.
  std::thread runner([&] {
    while (!watching.load(std::memory_order_acquire)) std::this_thread::yield();
    for (int i = 0; i < kRuns; ++i) k.run();
    done.store(true, std::memory_order_release);
  });

  long long checks = 0;
  watching.store(true, std::memory_order_release);
  while (!done.load(std::memory_order_acquire)) {
    const support::MetricsSnapshot s = support::metrics_snapshot();
    const auto [sum, wall] = latency_vs_wall(s);
    ASSERT_EQ(sum, wall) << "torn flush observed after " << checks
                         << " consistent snapshots";
    ++checks;
  }
  runner.join();

  const support::MetricsSnapshot s = support::metrics_snapshot();
  const auto [sum, wall] = latency_vs_wall(s);
  EXPECT_EQ(sum, wall);
  EXPECT_EQ(s.latencies.at("execute.latency").count, kRuns);
  EXPECT_GT(checks, 0) << "snapshot thread never overlapped the runs";
}

// metrics_reset() is a reader-side participant too: resetting mid-commit
// must not split a group either (reset between a run's two bookings
// would leave wall_ns without its latency sample, breaking the invariant
// for every later snapshot).
TEST(MetricsFlush, ConcurrentResetKeepsGroupsAtomic) {
  support::metrics_reset();
  formats::Csr A = random_csr(32, 32, 180, 103);
  Vector x(32, 2.0), y(32, 0.0);
  compiler::Bindings b;
  const compiler::CompiledKernel k =
      compile_spmv(b, A, ConstVectorView(x), VectorView(y));

  std::atomic<bool> done{false};
  std::thread runner([&] {
    for (int i = 0; i < 200; ++i) k.run();
    done.store(true, std::memory_order_release);
  });
  while (!done.load(std::memory_order_acquire)) {
    support::metrics_reset();
    const auto [sum, wall] = latency_vs_wall(support::metrics_snapshot());
    ASSERT_EQ(sum, wall);
  }
  runner.join();
  support::metrics_reset();
  const auto [sum, wall] = latency_vs_wall(support::metrics_snapshot());
  EXPECT_EQ(sum, wall);
}

// Whole runs from every engine rung at once: a serial linked runner on
// one thread, a threaded runner and the interpreter on another, profiling
// on. Every snapshot must see each run's latency sample, executor.runs
// increment and profile run together — or none of them.
TEST(MetricsFlush, ConcurrentSnapshotsSeeWholeRunsOfEveryEngine) {
  support::metrics_reset();
  support::set_profiling(true);
  formats::Csr A = random_csr(64, 64, 700, 104);
  Vector xa(64, 1.0), ya(64, 0.0), xb(64, 1.0), yb(64, 0.0);
  compiler::Bindings ba, bb;
  const compiler::CompiledKernel ka =
      compile_spmv(ba, A, ConstVectorView(xa), VectorView(ya));
  const compiler::CompiledKernel kb =
      compile_spmv(bb, A, ConstVectorView(xb), VectorView(yb));
  // Relation order after compile(): 0 = interval, 1 = y, 2 = A, 3 = x.
  compiler::ParallelRunner threaded(
      compiler::link_plan(kb.plan(), kb.query()), 2);
  const compiler::LinkedMac mac =
      compiler::link_mac(kb.query(), 1, {2, 3});
  const compiler::Action action =
      compiler::multiply_accumulate(kb.query(), 1, {2, 3});
  constexpr int kRuns = 150;

  std::atomic<bool> watching{false};
  std::atomic<int> finished{0};
  auto wait = [&] {
    while (!watching.load(std::memory_order_acquire))
      std::this_thread::yield();
  };
  std::thread serial([&] {
    wait();
    for (int i = 0; i < kRuns; ++i) ka.run();
    finished.fetch_add(1, std::memory_order_release);
  });
  std::thread mixed([&] {
    wait();
    for (int i = 0; i < kRuns; ++i) {
      threaded.run(mac);
      compiler::execute_interpreted(kb.plan(), kb.query(), action);
    }
    finished.fetch_add(1, std::memory_order_release);
  });

  long long checks = 0;
  watching.store(true, std::memory_order_release);
  while (finished.load(std::memory_order_acquire) < 2) {
    const support::MetricsSnapshot s = support::metrics_snapshot();
    const auto [sum, wall] = latency_vs_wall(s);
    ASSERT_EQ(sum, wall) << "after " << checks << " whole snapshots";
    ASSERT_EQ(count_of(s, "executor.runs"), samples_of(s))
        << "after " << checks << " whole snapshots";
    ASSERT_EQ(s.profile.runs, samples_of(s))
        << "after " << checks << " whole snapshots";
    ++checks;
  }
  serial.join();
  mixed.join();
  support::set_profiling(false);

  const support::MetricsSnapshot s = support::metrics_snapshot();
  EXPECT_EQ(samples_of(s), 3 * kRuns);
  EXPECT_EQ(count_of(s, "executor.runs"), 3 * kRuns);
  EXPECT_EQ(s.profile.runs, 3 * kRuns);
  EXPECT_GT(checks, 0) << "snapshot thread never overlapped the runs";
}

}  // namespace
}  // namespace bernoulli
