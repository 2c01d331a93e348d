// Allocation budgets. Distributed set-up: compile_dist_matvec may hold at
// most 1.5x the bytes its kernels keep (plus a fixed slack) at any moment,
// so the inspector cannot copy a rank's fragment on the way to keeping it.
// Linked runs: after a runner's first run of a fused pair, later runs
// allocate nothing.
//
// Every form of the global operator new/delete is replaced in this binary
// by a counting hook that tracks allocations and live and peak heap bytes,
// so this file runs as a test executable of its own.
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "compiler/link.hpp"
#include "compiler/loopnest.hpp"
#include "distrib/distribution.hpp"
#include "formats/blocksolve.hpp"
#include "formats/formats.hpp"
#include "spmd/dist_compile.hpp"
#include "workloads/bs_order.hpp"
#include "workloads/grid.hpp"

namespace {

std::atomic<long long> g_allocs{0};
std::atomic<long long> g_live{0};
std::atomic<long long> g_peak{0};

void* counted(void* p) {
  if (p == nullptr) return nullptr;
  g_allocs.fetch_add(1);
  const long long now =
      g_live.fetch_add(static_cast<long long>(malloc_usable_size(p))) +
      static_cast<long long>(malloc_usable_size(p));
  long long peak = g_peak.load();
  while (now > peak && !g_peak.compare_exchange_weak(peak, now)) {
  }
  return p;
}

void uncount(void* p) {
  if (p == nullptr) return;
  g_live.fetch_sub(static_cast<long long>(malloc_usable_size(p)));
  std::free(p);
}

void* allocate(std::size_t n) {
  return counted(std::malloc(n == 0 ? 1 : n));
}

void* allocate(std::size_t n, std::align_val_t al) {
  void* p = nullptr;
  const std::size_t a = std::max(static_cast<std::size_t>(al), sizeof(void*));
  if (posix_memalign(&p, a, n == 0 ? 1 : n) != 0) return nullptr;
  return counted(p);
}

template <class... A>
void* or_throw(std::size_t n, A... al) {
  void* p = allocate(n, al...);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return or_throw(n); }
void* operator new[](std::size_t n) { return or_throw(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return allocate(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return allocate(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  return or_throw(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return or_throw(n, al);
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return allocate(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return allocate(n, al);
}
void operator delete(void* p) noexcept { uncount(p); }
void operator delete[](void* p) noexcept { uncount(p); }
void operator delete(void* p, std::size_t) noexcept { uncount(p); }
void operator delete[](void* p, std::size_t) noexcept { uncount(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { uncount(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  uncount(p);
}
void operator delete(void* p, std::align_val_t) noexcept { uncount(p); }
void operator delete[](void* p, std::align_val_t) noexcept { uncount(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  uncount(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  uncount(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  uncount(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  uncount(p);
}

namespace bernoulli::spmd {
namespace {

// The fixed part of set-up that does not scale with the matrix: plans,
// bindings, trace and metric records, machine bookkeeping.
constexpr long long kSlackBytes = 256 << 10;

long long kept_bytes(const DistKernel& k) {
  const formats::Csr& f = k.fragment();
  return static_cast<long long>(f.rowptr().size_bytes() +
                                f.colind().size_bytes() +
                                f.vals().size_bytes()) +
         static_cast<long long>(sizeof(value_t)) *
             (k.schedule().full_size() + k.schedule().owned);
}

TEST(SetupMemory, CompileHoldsAtMostOneAndAHalfTimesWhatItKeeps) {
  // The paper's problem at test size: 5 dof per point, BlockSolve
  // ordered, rows distributed in per-color runs.
  auto g = workloads::grid3d_7pt(16, 8, 8, 5, 7);
  const formats::BsOrdering ord = workloads::blocksolve_ordering(g.matrix, 5);
  const formats::Csr a = formats::Csr::from_coo(
      formats::BsMatrix::build(g.matrix, ord).to_coo_permuted());
  for (int P : {1, 4}) {
    SCOPED_TRACE("P=" + std::to_string(P));
    const distrib::RowRunsDist rows =
        distrib::rowruns_from_color_ptr(ord.color_ptr, a.rows(), P);
    std::vector<std::unique_ptr<DistKernel>> kernels(
        static_cast<std::size_t>(P));
    long long base = 0, peak = 0;
    runtime::Machine machine(P);
    machine.run([&](runtime::Process& p) {
      auto& mine = kernels[static_cast<std::size_t>(p.rank())];
      mine = std::make_unique<DistKernel>();  // outside the window
      p.barrier();
      if (p.rank() == 0) {
        base = g_live.load();
        g_peak.store(base);
      }
      p.barrier();
      *mine = compile_dist_matvec(p, a, rows);
      p.barrier();
      if (p.rank() == 0) peak = g_peak.load();
    });
    long long kept = 0;
    for (const auto& k : kernels) kept += kept_bytes(*k);
    const long long used = peak - base;
    EXPECT_LE(used, kept + kept / 2 + kSlackBytes)
        << "peak " << used << " bytes over baseline, kernels keep " << kept;
  }
}

}  // namespace
}  // namespace bernoulli::spmd

namespace bernoulli::compiler {
namespace {

TEST(RunMemory, FusedRunsAllocateNothingAfterTheFirst) {
  const index_t n = 64;
  formats::TripletBuilder tb(n, n);
  for (index_t i = 0; i < n; ++i)
    for (index_t d : {0, 1, 5, 17}) tb.add(i, (i + d) % n, 1.0 + d);
  const formats::Coo coo = std::move(tb).build();
  const formats::Csr csr = formats::Csr::from_coo(coo);
  const formats::Ccs ccs = formats::Ccs::from_coo(coo);
  const formats::Bsr bsr = formats::Bsr::from_coo(coo, 2);
  const formats::Sell sell = formats::Sell::from_coo(coo, 8, 32);
  Vector x(n, 1.0), y(n, 0.0);
  for (const std::string f : {"csr", "ccs", "bcsr", "sell"}) {
    SCOPED_TRACE(f);
    Bindings b;
    if (f == "csr") b.bind_csr("A", csr);
    if (f == "ccs") b.bind_ccs("A", ccs);
    if (f == "bcsr") b.bind_bsr("A", bsr);
    if (f == "sell") b.bind_sell("A", sell);
    b.bind_dense_vector("X", ConstVectorView(x));
    b.bind_dense_vector("Y", VectorView(y));
    const LoopNest nest{{{"i", n}, {"j", n}},
                        {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
    const CompiledKernel k = compile(nest, b, {});
    LinkedRunner runner(link_plan(k.plan(), k.query()));
    const LinkedMac mac = link_mac(k.query(), 1, {2, 3}, 1.0);
    ASSERT_NE(leaf_form(runner.linked(), mac), LeafForm::kPerElement);
    runner.run(mac);
    const long long before = g_allocs.load();
    runner.run(mac);
    runner.run(mac);
    EXPECT_EQ(g_allocs.load() - before, 0);
  }
}

}  // namespace
}  // namespace bernoulli::compiler
