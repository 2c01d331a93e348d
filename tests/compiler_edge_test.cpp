// Compiler edge cases: one-variable loops, multi-factor statements,
// degenerate extents, plan cost-model sanity, and emission structure.
#include <gtest/gtest.h>

#include "compiler/loopnest.hpp"
#include "formats/formats.hpp"
#include "formats/sparse_vector.hpp"
#include "relation/array_views.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace bernoulli::compiler {
namespace {

using formats::Coo;
using formats::Csr;
using formats::SparseVector;
using formats::TripletBuilder;

TEST(CompileEdge, OneVariableVectorScale) {
  // Y(i) += 2 * X(i): a single-loop DOANY.
  Vector x{1.0, 2.0, 3.0}, y(3, 0.5);
  Bindings b;
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));
  LoopNest nest{{{"i", 3}}, {{"Y", {"i"}}, {{"X", {"i"}}}, 2.0}};
  compile(nest, b).run();
  EXPECT_DOUBLE_EQ(y[0], 2.5);
  EXPECT_DOUBLE_EQ(y[1], 4.5);
  EXPECT_DOUBLE_EQ(y[2], 6.5);
}

TEST(CompileEdge, SparseVectorScatter) {
  // Y(i) += X(i) with X sparse: only stored positions update.
  SparseVector x(5, {{1, 10.0}, {4, 20.0}});
  Vector y(5, 1.0);
  Bindings b;
  b.bind_sparse_vector("X", x);
  b.bind_dense_vector("Y", VectorView(y));
  LoopNest nest{{{"i", 5}}, {{"Y", {"i"}}, {{"X", {"i"}}}, 1.0}};
  compile(nest, b).run();
  EXPECT_DOUBLE_EQ(y[0], 1.0);
  EXPECT_DOUBLE_EQ(y[1], 11.0);
  EXPECT_DOUBLE_EQ(y[4], 21.0);
}

TEST(CompileEdge, ThreeFactorHadamard) {
  // Y(i) += A(i,j) * X(j) * W(i): three value factors.
  TripletBuilder tb(3, 3);
  tb.add(0, 1, 2.0);
  tb.add(2, 0, 3.0);
  Csr a = Csr::from_coo(std::move(tb).build());
  Vector x{1.0, 10.0, 100.0}, w{2.0, 3.0, 4.0}, y(3, 0.0);
  Bindings b;
  b.bind_csr("A", a);
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("W", ConstVectorView(w));
  b.bind_dense_vector("Y", VectorView(y));
  LoopNest nest{
      {{"i", 3}, {"j", 3}},
      {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}, {"W", {"i"}}}, 1.0}};
  compile(nest, b).run();
  EXPECT_DOUBLE_EQ(y[0], 2.0 * 10.0 * 2.0);
  EXPECT_DOUBLE_EQ(y[1], 0.0);
  EXPECT_DOUBLE_EQ(y[2], 3.0 * 1.0 * 4.0);
}

TEST(CompileEdge, ZeroExtentLoopRunsNothing) {
  Vector x(0), y(0);
  // Empty matrix with zero rows: degenerate but must not crash.
  Coo a(0, 4, {});
  Csr acsr = Csr::from_coo(a);
  Vector xv(4, 1.0);
  Bindings b;
  b.bind_csr("A", acsr);
  b.bind_dense_vector("X", ConstVectorView(xv));
  b.bind_dense_vector("Y", VectorView(y));
  LoopNest nest{{{"i", 0}, {"j", 4}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
  EXPECT_NO_THROW(compile(nest, b).run());
}

TEST(CompileEdge, EmptySparseMatrixProducesZero) {
  Coo a(4, 4, {});
  Csr acsr = Csr::from_coo(a);
  Vector x(4, 1.0), y(4, 7.0);
  Bindings b;
  b.bind_csr("A", acsr);
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));
  LoopNest nest{{{"i", 4}, {"j", 4}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
  compile(nest, b).run();
  for (double v : y) EXPECT_DOUBLE_EQ(v, 7.0);  // accumulation of nothing
}

TEST(CompileEdge, PlanCostPrefersSparseDriver) {
  // With a very sparse A, plans driven by A's enumeration must be cheaper
  // than dense interval scans; verify via the cost numbers.
  SplitMix64 rng(1);
  TripletBuilder tb(1000, 1000);
  for (int k = 0; k < 50; ++k)
    tb.add(rng.next_index(1000), rng.next_index(1000), 1.0);
  Coo coo = std::move(tb).build();
  Csr a = Csr::from_coo(coo);
  Vector x(1000, 1.0), y(1000, 0.0);
  Bindings b;
  b.bind_csr("A", a);
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));
  LoopNest nest{{{"i", 1000}, {"j", 1000}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
  CompiledKernel k = compile(nest, b);
  // The inner level must be driven by A's column level (expected size
  // 0.05), not the interval (1000).
  const auto& inner = k.plan().levels[1];
  EXPECT_EQ(inner.method, JoinMethod::kEnumerate);
  EXPECT_EQ(k.query().relations[static_cast<std::size_t>(
                                    inner.drivers[0].rel)].view->name(),
            "A");
}

TEST(CompileEdge, DescribePlanMentionsEveryRelation) {
  TripletBuilder tb(4, 4);
  tb.add(1, 2, 1.0);
  Csr a = Csr::from_coo(std::move(tb).build());
  Vector x(4, 1.0), y(4, 0.0);
  Bindings b;
  b.bind_csr("A", a);
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));
  LoopNest nest{{{"i", 4}, {"j", 4}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
  std::string desc = compile(nest, b).describe_plan();
  for (const char* name : {"A", "X", "Y", "I"})
    EXPECT_NE(desc.find(name), std::string::npos) << desc;
}

TEST(CompileEdge, EmitBalancedBraces) {
  SplitMix64 rng(2);
  TripletBuilder tb(6, 6);
  for (int k = 0; k < 10; ++k)
    tb.add(rng.next_index(6), rng.next_index(6), 1.0);
  Csr a = Csr::from_coo(std::move(tb).build());
  SparseVector x(6, {{2, 1.0}});
  Vector y(6, 0.0);
  Bindings b;
  b.bind_csr("A", a);
  b.bind_sparse_vector("X", x);
  b.bind_dense_vector("Y", VectorView(y));
  LoopNest nest{{{"i", 6}, {"j", 6}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
  for (bool merge : {true, false}) {
    PlannerOptions opts;
    opts.allow_merge = merge;
    std::string code = compile(nest, b, opts).emit();
    long depth = 0;
    for (char c : code) {
      if (c == '{') ++depth;
      if (c == '}') --depth;
      ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0) << code;
  }
}

TEST(CompileEdge, EllBindingMatchesDense) {
  // The compiler covers ITPACK storage through its view: same dense
  // program, different access methods.
  SplitMix64 rng(4);
  TripletBuilder tb(16, 12);
  for (int k = 0; k < 60; ++k)
    tb.add(rng.next_index(16), rng.next_index(12), rng.next_double(-1, 1));
  Coo coo = std::move(tb).build();
  formats::Ell ell = formats::Ell::from_coo(coo);

  Vector x(12);
  for (auto& v : x) v = rng.next_double(-1, 1);
  Vector y(16, 0.0), y_ref(16);
  formats::spmv(formats::Dense::from_coo(coo), x, y_ref);

  Bindings b;
  b.bind_ell("A", ell);
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));
  LoopNest nest{{{"i", 16}, {"j", 12}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
  CompiledKernel k = compile(nest, b);
  k.run();
  for (std::size_t i = 0; i < 16; ++i) ASSERT_NEAR(y[i], y_ref[i], 1e-12);
  // The strided ELL level emits as C (no refusal note).
  EXPECT_NE(k.emit("spmv_ell").find("int spmv_ell("), std::string::npos);
}

TEST(CompileEdge, RepeatedRunsAccumulate) {
  TripletBuilder tb(2, 2);
  tb.add(0, 0, 1.0);
  Csr a = Csr::from_coo(std::move(tb).build());
  Vector x(2, 1.0), y(2, 0.0);
  Bindings b;
  b.bind_csr("A", a);
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));
  LoopNest nest{{{"i", 2}, {"j", 2}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
  CompiledKernel k = compile(nest, b);
  k.run();
  k.run();
  k.run();
  EXPECT_DOUBLE_EQ(y[0], 3.0);  // += semantics, three evaluations
}

}  // namespace
}  // namespace bernoulli::compiler
