// Regression tests for CompiledKernel's concurrency contract (PR 10,
// satellite: copy-during-run). A copy taken while another thread is
// mid-run() used to read the source's linked_ cache unsynchronized —
// a data race on the shared_ptr (ThreadSanitizer flags it) and, worse,
// a window where the copy observed the source's in-flux runner state.
// Now linked_ is only touched under its cache mutex, runs claim the
// cached program with an atomic in-use flag, and moves/assignments
// enforce an ownership check (active_runs() == 0) because they replace
// the storage an in-flight run borrows.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "compiler/loopnest.hpp"
#include "formats/formats.hpp"
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

// y += A x in the engine's exact order and multiply chain (row-ascending,
// nonzero-ascending; prod = scale * A * x), so comparisons are bitwise.
void reference_spmv(const formats::Csr& A, const Vector& x, Vector& y) {
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
}

TEST(KernelCopy, CopyRunsIndependentlyAndBitwiseEqual) {
  formats::Csr A = random_csr(50, 50, 400, 7);
  Vector x(50), y(50, 0.0);
  SplitMix64 rng(8);
  for (value_t& v : x) v = rng.next_double(-1.0, 1.0);
  compiler::Bindings b;
  const compiler::CompiledKernel k =
      compile_spmv(b, A, ConstVectorView(x), VectorView(y));
  k.run();  // prime the linked cache so the copy relinks eagerly
  Vector expect(50, 0.0);
  reference_spmv(A, x, expect);
  EXPECT_EQ(y, expect);

  const compiler::CompiledKernel copy = k;  // NOLINT: copy is the test
  std::fill(y.begin(), y.end(), 0.0);
  copy.run();
  EXPECT_EQ(y, expect);
  EXPECT_EQ(k.active_runs(), 0);
  EXPECT_EQ(copy.active_runs(), 0);
}

// The regression: one thread loops run() (lazily building and reusing
// the linked cache) while another thread takes copies of the same
// kernel. Pre-fix, the copy constructor read linked_ while run() wrote
// it — a shared_ptr data race. The copies must also be fully functional
// afterwards (linked against their OWN storage, not the source's).
TEST(KernelCopy, CopyWhileAnotherThreadRunsIsSafe) {
  formats::Csr A = random_csr(60, 60, 500, 9);
  Vector x(60), y(60, 0.0);
  SplitMix64 rng(10);
  for (value_t& v : x) v = rng.next_double(-1.0, 1.0);
  compiler::Bindings b;
  const compiler::CompiledKernel k =
      compile_spmv(b, A, ConstVectorView(x), VectorView(y));

  constexpr int kRuns = 300;
  std::atomic<bool> copying{false};
  std::atomic<bool> done{false};
  // The runs start only once the copy loop is about to start, so the two
  // overlap however fast a run is.
  std::thread runner([&] {
    while (!copying.load(std::memory_order_acquire)) std::this_thread::yield();
    for (int i = 0; i < kRuns; ++i) k.run();
    done.store(true, std::memory_order_release);
  });

  std::vector<compiler::CompiledKernel> copies;
  int taken = 0;
  copying.store(true, std::memory_order_release);
  while (!done.load(std::memory_order_acquire)) {
    compiler::CompiledKernel c(k);
    ++taken;
    if (copies.size() < 4) copies.push_back(std::move(c));
  }
  runner.join();
  EXPECT_GT(taken, 0);
  EXPECT_EQ(k.active_runs(), 0);

  // The source accumulated kRuns sweeps into y; the copies, run serially
  // now, must produce the exact same increment (they borrow the same
  // views, so each run adds one more A*x into the shared target).
  Vector expect(60, 0.0);
  for (int i = 0; i < kRuns; ++i) reference_spmv(A, x, expect);
  EXPECT_EQ(y, expect);
  for (const compiler::CompiledKernel& c : copies) {
    reference_spmv(A, x, expect);
    c.run();
    EXPECT_EQ(y, expect);
  }
}

// Assignments and moves replace the storage a run borrows, so they carry
// the ownership check — and when the source was already linked, the
// destination relinks eagerly against its OWN storage (a stale cache
// pointing at the source's plan would dangle once the source dies).
TEST(KernelCopy, ReassignmentAndMoveRelinkAgainstOwnStorage) {
  formats::Csr A = random_csr(40, 40, 300, 11);
  Vector x(40), y(40, 0.0);
  SplitMix64 rng(12);
  for (value_t& v : x) v = rng.next_double(-1.0, 1.0);
  compiler::Bindings b;
  compiler::CompiledKernel k =
      compile_spmv(b, A, ConstVectorView(x), VectorView(y));
  k.run();  // prime the cache so assignment exercises the relink path
  Vector expect(40, 0.0);
  reference_spmv(A, x, expect);
  ASSERT_EQ(y, expect);

  compiler::CompiledKernel assigned;
  assigned = k;  // copy-assign over a default-constructed kernel
  std::fill(y.begin(), y.end(), 0.0);
  assigned.run();
  EXPECT_EQ(y, expect);

  compiler::CompiledKernel moved = std::move(k);  // move-construct
  std::fill(y.begin(), y.end(), 0.0);
  moved.run();
  EXPECT_EQ(y, expect);

  assigned = std::move(moved);  // move-assign over a linked kernel
  std::fill(y.begin(), y.end(), 0.0);
  assigned.run();
  EXPECT_EQ(y, expect);
  EXPECT_EQ(assigned.active_runs(), 0);
}

}  // namespace
}  // namespace bernoulli
