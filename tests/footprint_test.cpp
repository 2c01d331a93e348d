// The link-time data-movement footprint (compiler::PlanFootprint) and its
// reconciliation with the serving-metrics registry.
//
// derive_footprint promises EXACT static counts for plans that satisfy
// the bulk-drain discipline (flat enumerate levels, always-hit arithmetic
// probes, segmented levels invoked once per parent). These tests hold
// that promise against measurement three ways:
//   1. leaf_tuples equals the executor's measured leaf count (RunStats
//      and the executor.tuples counter) on CSR and CCS SpMV;
//   2. one LinkedRunner run advances execute.model_bytes /
//      execute.model_flops by exactly the footprint, and books exactly
//      one execute.latency sample whose nanoseconds equal the
//      execute.wall_ns rate delta (same integer, same flush site);
//   3. a serial run and a ParallelRunner run book identical
//      deterministic-metric deltas (sample count, model traffic) — the
//      shard-merge determinism the metrics registry guarantees.
// Data-dependent plans (filters, fill-in) must be flagged inexact, and
// an inexact footprint must book NO model traffic.
#include <gtest/gtest.h>

#include <memory>

#include "compiler/link.hpp"
#include "compiler/loopnest.hpp"
#include "formats/formats.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"

namespace bernoulli::compiler {
namespace {

using formats::Coo;
using formats::TripletBuilder;

Coo random_matrix(index_t rows, index_t cols, index_t nnz,
                  std::uint64_t seed) {
  SplitMix64 rng(seed);
  TripletBuilder b(rows, cols);
  for (index_t k = 0; k < nnz; ++k)
    b.add(rng.next_index(rows), rng.next_index(cols),
          rng.next_double(-1.0, 1.0));
  return std::move(b).build();
}

struct Spmv {
  // Owning storage + the compiled y += A x kernel over it. Heap-held
  // (make_spmv returns a unique_ptr) because the kernel's query references
  // views owned by `bindings` and storage at its bind-time address.
  formats::Csr csr;
  formats::Ccs ccs;
  Vector x, y;
  Bindings bindings;
  CompiledKernel kernel;
  index_t target = 1;
  std::vector<index_t> factors{2, 3};
};

enum class Fmt { kCsr, kCcs };

std::unique_ptr<Spmv> make_spmv(Fmt fmt, index_t rows, index_t cols,
                                index_t nnz, std::uint64_t seed) {
  Coo coo = random_matrix(rows, cols, nnz, seed);
  auto s = std::make_unique<Spmv>();
  s->csr = formats::Csr::from_coo(coo);
  s->ccs = formats::Ccs::from_coo(coo);
  s->x.resize(static_cast<std::size_t>(cols));
  s->y.assign(static_cast<std::size_t>(rows), 0.0);
  SplitMix64 rng(seed + 1);
  for (auto& v : s->x) v = rng.next_double(-1, 1);
  if (fmt == Fmt::kCsr)
    s->bindings.bind_csr("A", s->csr);
  else
    s->bindings.bind_ccs("A", s->ccs);
  s->bindings.bind_dense_vector("X", ConstVectorView(s->x));
  s->bindings.bind_dense_vector("Y", VectorView(s->y));
  LoopNest nest{{{"i", rows}, {"j", cols}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
  s->kernel = compile(nest, s->bindings);
  return s;
}

long long rate_delta(const support::MetricsSnapshot& m0,
                     const support::MetricsSnapshot& m1, const char* name) {
  auto get = [&](const support::MetricsSnapshot& s) {
    auto it = s.counts.find(name);
    return it == s.counts.end() ? 0LL : it->second;
  };
  return get(m1) - get(m0);
}

support::LatencySnapshot latency_delta(const support::MetricsSnapshot& m0,
                                       const support::MetricsSnapshot& m1,
                                       const char* name) {
  auto get = [&](const support::MetricsSnapshot& s) {
    auto it = s.latencies.find(name);
    return it == s.latencies.end() ? support::LatencySnapshot{} : it->second;
  };
  support::LatencySnapshot a = get(m0), b = get(m1);
  b.count -= a.count;
  b.sum_ns -= a.sum_ns;
  return b;
}

class FootprintFmt : public ::testing::TestWithParam<Fmt> {};

TEST_P(FootprintFmt, SpmvFootprintIsExactAndMatchesMeasuredWork) {
  auto s = make_spmv(GetParam(), 60, 48, 500, 11);
  LinkedPlan lp = link_plan(s->kernel.plan(), s->kernel.query());
  const PlanFootprint& fp = lp.footprint;
  ASSERT_TRUE(fp.exact) << fp.note;

  const long long nnz = GetParam() == Fmt::kCsr ? s->csr.nnz() : s->ccs.nnz();
  EXPECT_EQ(fp.leaf_tuples, nnz) << fp.note;
  // SpMV moves one index + one value per stored entry, one x read and a
  // y read-modify-write per entry, at 2 flops per entry.
  EXPECT_EQ(fp.flops, 2 * nnz);
  long long value_bytes = 0;
  for (const auto& op : fp.operands) value_bytes += op.value_bytes;
  // A streams nnz values; X reads nnz values; Y is read-modify-write.
  EXPECT_EQ(value_bytes,
            static_cast<long long>(sizeof(value_t)) * (2 * nnz + 2 * nnz));
  EXPECT_GT(fp.index_bytes(), 0);
  EXPECT_EQ(fp.total_bytes(), fp.index_bytes() + fp.value_bytes());

  // Measured leaf count agrees: RunStats.tuples and the executor.tuples
  // counter delta both equal leaf_tuples for one run.
  LinkedRunner runner(std::move(lp));
  LinkedMac mac = link_mac(s->kernel.query(), s->target, s->factors);
  RunStats stats;
  auto c0 = support::metrics_snapshot();
  runner.run(mac, &stats);
  auto c1 = support::metrics_snapshot();
  EXPECT_EQ(stats.tuples, fp.leaf_tuples);
  auto count = [](const support::MetricsSnapshot& snap, const char* k) {
    auto it = snap.counts.find(k);
    return it == snap.counts.end() ? 0LL : it->second;
  };
  EXPECT_EQ(count(c1, "executor.tuples") - count(c0, "executor.tuples"),
            fp.leaf_tuples);
}

TEST_P(FootprintFmt, OneRunBooksFootprintIntoMetricsRegistry) {
  auto s = make_spmv(GetParam(), 40, 40, 300, 23);
  LinkedPlan lp = link_plan(s->kernel.plan(), s->kernel.query());
  ASSERT_TRUE(lp.footprint.exact) << lp.footprint.note;
  const long long bytes = lp.footprint.total_bytes();
  const long long flops = lp.footprint.flops;

  LinkedRunner runner(std::move(lp));
  LinkedMac mac = link_mac(s->kernel.query(), s->target, s->factors);
  runner.run(mac);  // registers the metrics; window starts clean
  auto m0 = support::metrics_snapshot();
  runner.run(mac);
  auto m1 = support::metrics_snapshot();

  EXPECT_EQ(rate_delta(m0, m1, "execute.model_bytes"), bytes);
  EXPECT_EQ(rate_delta(m0, m1, "execute.model_flops"), flops);
  const auto lat = latency_delta(m0, m1, "execute.latency");
  EXPECT_EQ(lat.count, 1);
  // The histogram sum and the wall_ns rate are the SAME integer booked at
  // the single flush site — equal by construction, not within-epsilon.
  EXPECT_EQ(lat.sum_ns, rate_delta(m0, m1, "execute.wall_ns"));
}

TEST_P(FootprintFmt, SerialAndParallelRunnersBookIdenticalDeterministicMetrics) {
  auto s = make_spmv(GetParam(), 64, 64, 600, 31);
  LinkedMac mac = link_mac(s->kernel.query(), s->target, s->factors);

  LinkedRunner serial(link_plan(s->kernel.plan(), s->kernel.query()));
  ParallelRunner parallel(link_plan(s->kernel.plan(), s->kernel.query()), 3);
  serial.run(mac);
  parallel.run(mac);  // both registered + warmed

  auto m0 = support::metrics_snapshot();
  serial.run(mac);
  auto m1 = support::metrics_snapshot();
  parallel.run(mac);
  auto m2 = support::metrics_snapshot();

  // Deterministic subset: one latency sample each (the coordinator books
  // exactly one per run), identical model traffic, and each window's
  // histogram-sum equals its wall_ns rate delta.
  EXPECT_EQ(latency_delta(m0, m1, "execute.latency").count, 1);
  EXPECT_EQ(latency_delta(m1, m2, "execute.latency").count, 1);
  EXPECT_EQ(rate_delta(m0, m1, "execute.model_bytes"),
            rate_delta(m1, m2, "execute.model_bytes"));
  EXPECT_EQ(rate_delta(m0, m1, "execute.model_flops"),
            rate_delta(m1, m2, "execute.model_flops"));
  EXPECT_GT(rate_delta(m0, m1, "execute.model_bytes"), 0);
  EXPECT_EQ(latency_delta(m0, m1, "execute.latency").sum_ns,
            rate_delta(m0, m1, "execute.wall_ns"));
  EXPECT_EQ(latency_delta(m1, m2, "execute.latency").sum_ns,
            rate_delta(m1, m2, "execute.wall_ns"));
}

TEST(Footprint, RejectingFilterIsInexactAndBooksNoModelTraffic) {
  // Loop bounds TIGHTER than the matrix: the iteration-space filter can
  // genuinely reject (columns >= 20 exist in A but not in the j loop), so
  // the surviving-tuple count is data-dependent. The footprint must say
  // so, and runs must not book model traffic.
  Coo coo = random_matrix(30, 30, 200, 7);
  formats::Csr csr = formats::Csr::from_coo(coo);
  Vector x(30, 1.0), y(30, 0.0);
  Bindings b;
  b.bind_csr("A", csr);
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));
  LoopNest nest{{{"i", 30}, {"j", 20}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
  CompiledKernel k = compile(nest, b);
  LinkedPlan lp = link_plan(k.plan(), k.query());
  EXPECT_FALSE(lp.footprint.exact);
  EXPECT_FALSE(lp.footprint.note.empty());
  EXPECT_EQ(lp.footprint.total_bytes(), 0);
  EXPECT_EQ(lp.footprint.flops, 0);

  LinkedRunner runner(std::move(lp));
  LinkedMac mac = link_mac(k.query(), 1, {2, 3});
  runner.run(mac);
  auto m0 = support::metrics_snapshot();
  runner.run(mac);
  auto m1 = support::metrics_snapshot();
  EXPECT_EQ(rate_delta(m0, m1, "execute.model_bytes"), 0);
  EXPECT_EQ(rate_delta(m0, m1, "execute.model_flops"), 0);
  // The latency histogram still records — timing needs no footprint.
  EXPECT_EQ(latency_delta(m0, m1, "execute.latency").count, 1);
}

TEST(Footprint, BcsrSpmvFootprintIsExactIncludingFillZeros) {
  // Random 24x24 blocked at 4x4: most stored blocks carry fill zeros.
  // The blocked level enumerates whole blocks, so the exact leaf count is
  // stored() (= num_blocks * 16), NOT coo nnz — fill is real traffic and
  // real flops, which is the format's bargain, and padding_bytes stays 0.
  Coo coo = random_matrix(24, 24, 120, 41);
  formats::Bsr bsr = formats::Bsr::from_coo(coo, 4);
  ASSERT_GT(bsr.stored(), bsr.to_coo().nnz());
  Vector x(24, 1.0), y(24, 0.0);
  Bindings b;
  b.bind_bsr("A", bsr);
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));
  LoopNest nest{{{"i", 24}, {"j", 24}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
  CompiledKernel k = compile(nest, b);

  LinkedPlan lp = link_plan(k.plan(), k.query());
  const PlanFootprint fp = lp.footprint;
  ASSERT_TRUE(fp.exact) << fp.note;
  const long long stored = bsr.stored();
  EXPECT_EQ(fp.leaf_tuples, stored);
  EXPECT_EQ(fp.flops, 2 * stored);
  EXPECT_EQ(fp.padding_bytes, 0);

  LinkedRunner runner(std::move(lp));
  RunStats stats;
  runner.run(link_mac(k.query(), 1, {2, 3}), &stats);
  EXPECT_EQ(stats.tuples, fp.leaf_tuples);
}

TEST(Footprint, SellSpmvFootprintIsExactWithPaddingSeparate) {
  // Skewed row lengths force heavy SELL padding. Padding lanes are never
  // enumerated: the exact leaf count is nnz, the pad slack is booked as
  // padding_bytes (storage overhead), and total_bytes() — what one run
  // books as execute.model_bytes — excludes it.
  const index_t rows = 20, cols = 24;
  SplitMix64 rng(52);
  TripletBuilder tb(rows, cols);
  for (index_t i = 0; i < rows; ++i) {
    const index_t len = (i % 8 == 0) ? 20 : 1 + i % 4;
    for (index_t k = 0; k < len; ++k)
      tb.add(i, (i + k * 5) % cols, rng.next_double(-1, 1));
  }
  Coo coo = std::move(tb).build();
  formats::Sell sell = formats::Sell::from_coo(coo, 4, 8);
  ASSERT_GT(sell.stored(), sell.nnz());

  Vector x(static_cast<std::size_t>(cols), 1.0);
  Vector y(static_cast<std::size_t>(rows), 0.0);
  Bindings b;
  b.bind_sell("A", sell);
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));
  LoopNest nest{{{"i", rows}, {"j", cols}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
  CompiledKernel k = compile(nest, b);

  LinkedPlan lp = link_plan(k.plan(), k.query());
  const PlanFootprint fp = lp.footprint;
  ASSERT_TRUE(fp.exact) << fp.note;
  const long long nnz = sell.nnz();
  constexpr long long szi = static_cast<long long>(sizeof(index_t));
  constexpr long long szv = static_cast<long long>(sizeof(value_t));
  EXPECT_EQ(fp.leaf_tuples, nnz);
  EXPECT_EQ(fp.flops, 2 * nnz);
  EXPECT_EQ(fp.padding_bytes, (sell.stored() - nnz) * (szi + szv));
  EXPECT_EQ(fp.total_bytes(), fp.index_bytes() + fp.value_bytes());

  LinkedMac mac = link_mac(k.query(), 1, {2, 3});
  LinkedRunner runner(std::move(lp));
  RunStats stats;
  runner.run(mac, &stats);  // registers metrics; window starts clean
  EXPECT_EQ(stats.tuples, nnz);
  auto m0 = support::metrics_snapshot();
  runner.run(mac);
  auto m1 = support::metrics_snapshot();
  EXPECT_EQ(rate_delta(m0, m1, "execute.model_bytes"), fp.total_bytes());
  EXPECT_EQ(rate_delta(m0, m1, "execute.model_flops"), fp.flops);
}

INSTANTIATE_TEST_SUITE_P(Formats, FootprintFmt,
                         ::testing::Values(Fmt::kCsr, Fmt::kCcs),
                         [](const ::testing::TestParamInfo<Fmt>& i) {
                           return i.param == Fmt::kCsr ? "csr" : "ccs";
                         });

}  // namespace
}  // namespace bernoulli::compiler
