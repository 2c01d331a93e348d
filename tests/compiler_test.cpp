// The Bernoulli compiler pipeline: query extraction, planning, plan
// interpretation, and C emission, cross-checked against dense references.
#include <gtest/gtest.h>

#include "compiler/loopnest.hpp"
#include "formats/formats.hpp"
#include "relation/array_views.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace bernoulli::compiler {
namespace {

using formats::Coo;
using formats::Csr;
using formats::Ccs;
using formats::Dense;
using formats::SparseVector;
using formats::TripletBuilder;

Coo random_matrix(index_t rows, index_t cols, index_t nnz, std::uint64_t seed) {
  SplitMix64 rng(seed);
  TripletBuilder b(rows, cols);
  for (index_t k = 0; k < nnz; ++k)
    b.add(rng.next_index(rows), rng.next_index(cols),
          rng.next_double(-1.0, 1.0));
  return std::move(b).build();
}

LoopNest matvec_nest(index_t n, index_t m) {
  return LoopNest{
      {{"i", n}, {"j", m}},
      {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0},
  };
}

TEST(Compile, CsrMatvecMatchesDense) {
  Coo a = random_matrix(30, 24, 150, 1);
  Csr csr = Csr::from_coo(a);
  Dense d = Dense::from_coo(a);

  Vector x(24);
  SplitMix64 rng(2);
  for (auto& v : x) v = rng.next_double(-1.0, 1.0);
  Vector y(30, 0.0), y_ref(30);
  spmv(d, x, y_ref);

  Bindings b;
  b.bind_csr("A", csr);
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));
  CompiledKernel k = compile(matvec_nest(30, 24), b);
  k.run();
  for (std::size_t i = 0; i < y.size(); ++i) ASSERT_NEAR(y[i], y_ref[i], 1e-12);
}

TEST(Compile, CsrPlanEnumeratesMatrixHierarchy) {
  Coo a = random_matrix(30, 24, 60, 3);
  Csr csr = Csr::from_coo(a);
  Vector x(24, 1.0), y(30, 0.0);
  Bindings b;
  b.bind_csr("A", csr);
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));
  CompiledKernel k = compile(matvec_nest(30, 24), b);
  std::string desc = k.describe_plan();
  // Outer loop over i, inner over j, both driven by A's hierarchy (the
  // sparse filter), never by a dense scan of the full iteration space.
  EXPECT_EQ(k.plan().levels[0].var, "i");
  EXPECT_EQ(k.plan().levels[1].var, "j");
  EXPECT_NE(desc.find("enumerate A"), std::string::npos) << desc;
}

TEST(Compile, CcsMatvecPicksColumnMajorOrder) {
  Coo a = random_matrix(40, 40, 150, 4);
  Ccs ccs = Ccs::from_coo(a);
  Dense d = Dense::from_coo(a);

  Vector x(40);
  SplitMix64 rng(5);
  for (auto& v : x) v = rng.next_double(-1.0, 1.0);
  Vector y(40, 0.0), y_ref(40);
  spmv(d, x, y_ref);

  Bindings b;
  b.bind_ccs("A", ccs);
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));
  CompiledKernel k = compile(matvec_nest(40, 40), b);
  // CCS can only reach rows through a column, so the chosen order must put
  // j outermost.
  EXPECT_EQ(k.plan().levels[0].var, "j");
  k.run();
  for (std::size_t i = 0; i < y.size(); ++i) ASSERT_NEAR(y[i], y_ref[i], 1e-12);
}

TEST(Compile, CooMatvecMatchesDense) {
  Coo a = random_matrix(25, 25, 90, 6);
  Dense d = Dense::from_coo(a);
  Vector x(25);
  SplitMix64 rng(7);
  for (auto& v : x) v = rng.next_double(-1.0, 1.0);
  Vector y(25, 0.0), y_ref(25);
  spmv(d, x, y_ref);

  Bindings b;
  b.bind_coo("A", a);
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));
  compile(matvec_nest(25, 25), b).run();
  for (std::size_t i = 0; i < y.size(); ++i) ASSERT_NEAR(y[i], y_ref[i], 1e-12);
}

TEST(Compile, SparseXFiltersIterations) {
  // Paper Eq. 4: with both A and X sparse, P = NZ(A) AND NZ(X); only
  // columns stored in X contribute.
  Coo a = random_matrix(20, 20, 120, 8);
  Csr csr = Csr::from_coo(a);
  SparseVector x(20, {{3, 2.0}, {7, -1.0}, {15, 0.5}});
  Vector y(20, 0.0), y_ref(20, 0.0);

  Dense d = Dense::from_coo(a);
  Vector xd = x.to_dense();
  spmv(d, xd, y_ref);

  Bindings b;
  b.bind_csr("A", csr);
  b.bind_sparse_vector("X", x);
  b.bind_dense_vector("Y", VectorView(y));
  compile(matvec_nest(20, 20), b).run();
  for (std::size_t i = 0; i < y.size(); ++i) ASSERT_NEAR(y[i], y_ref[i], 1e-12);
}

TEST(Compile, SparseXSparseAUsesMergeJoin) {
  Coo a = random_matrix(60, 60, 600, 9);
  Csr csr = Csr::from_coo(a);
  SparseVector x(60, {{1, 1.0}, {5, 1.0}, {30, 1.0}, {59, 1.0}});
  Vector y(60, 0.0);

  Bindings b;
  b.bind_csr("A", csr);
  b.bind_sparse_vector("X", x);
  b.bind_dense_vector("Y", VectorView(y));
  CompiledKernel k = compile(matvec_nest(60, 60), b);
  // At the j level both A's column level and X are sorted filters: the
  // planner should merge-join them.
  bool has_merge = false;
  for (const auto& lv : k.plan().levels)
    if (lv.method == JoinMethod::kMerge) has_merge = true;
  EXPECT_TRUE(has_merge) << k.describe_plan();
}

TEST(Compile, ForcedOrdersAllProduceSameResult) {
  // Executor correctness is independent of the join order: any feasible
  // order must compute the same y.
  Coo a = random_matrix(15, 18, 80, 10);
  Csr csr = Csr::from_coo(a);
  Dense d = Dense::from_coo(a);
  Vector x(18);
  SplitMix64 rng(11);
  for (auto& v : x) v = rng.next_double(-1.0, 1.0);
  Vector y_ref(15);
  spmv(d, x, y_ref);

  for (auto order : {std::vector<std::string>{"i", "j"},
                     std::vector<std::string>{"j", "i"}}) {
    Vector y(15, 0.0);
    Bindings b;
    b.bind_csr("A", csr);
    b.bind_dense_vector("X", ConstVectorView(x));
    b.bind_dense_vector("Y", VectorView(y));
    PlannerOptions opts;
    opts.force_order = order;
    compile(matvec_nest(15, 18), b, opts).run();
    for (std::size_t i = 0; i < y.size(); ++i)
      ASSERT_NEAR(y[i], y_ref[i], 1e-12) << "order " << order[0] << order[1];
  }
}

TEST(Compile, MergeDisabledStillCorrect) {
  Coo a = random_matrix(30, 30, 200, 12);
  Csr csr = Csr::from_coo(a);
  SparseVector x(30, {{2, 1.5}, {9, -2.0}, {29, 4.0}});
  Vector xd = x.to_dense();
  Dense d = Dense::from_coo(a);
  Vector y_ref(30);
  spmv(d, xd, y_ref);

  for (bool allow_merge : {true, false}) {
    Vector y(30, 0.0);
    Bindings b;
    b.bind_csr("A", csr);
    b.bind_sparse_vector("X", x);
    b.bind_dense_vector("Y", VectorView(y));
    PlannerOptions opts;
    opts.allow_merge = allow_merge;
    compile(matvec_nest(30, 30), b, opts).run();
    for (std::size_t i = 0; i < y.size(); ++i)
      ASSERT_NEAR(y[i], y_ref[i], 1e-12);
  }
}

TEST(Compile, MatMatProductThreeDeep) {
  // C(i,j) += A(i,k) * B(k,j): sparse-sparse matrix product into dense C.
  Coo a = random_matrix(12, 15, 60, 13);
  Coo bm = random_matrix(15, 10, 50, 14);
  Csr acsr = Csr::from_coo(a);
  Csr bcsr = Csr::from_coo(bm);
  Dense c(12, 10);

  Bindings b;
  b.bind_csr("A", acsr);
  b.bind_csr("B", bcsr);
  b.bind_dense_matrix("C", c);
  LoopNest nest{
      {{"i", 12}, {"k", 15}, {"j", 10}},
      {{"C", {"i", "j"}}, {{"A", {"i", "k"}}, {"B", {"k", "j"}}}, 1.0},
  };
  compile(nest, b).run();

  Dense ad = Dense::from_coo(a), bd = Dense::from_coo(bm);
  for (index_t i = 0; i < 12; ++i)
    for (index_t j = 0; j < 10; ++j) {
      value_t ref = 0;
      for (index_t k = 0; k < 15; ++k) ref += ad.at(i, k) * bd.at(k, j);
      ASSERT_NEAR(c.at(i, j), ref, 1e-12) << i << "," << j;
    }
}

TEST(Compile, ScaledAccumulation) {
  // Y(i) += 2.5 * A(i,j) * X(j), accumulating on top of existing y.
  Coo a = random_matrix(10, 10, 30, 15);
  Csr csr = Csr::from_coo(a);
  Vector x(10, 1.0), y(10, 1.0);
  Dense d = Dense::from_coo(a);
  Vector ax(10);
  spmv(d, x, ax);

  Bindings b;
  b.bind_csr("A", csr);
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));
  LoopNest nest{{{"i", 10}, {"j", 10}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 2.5}};
  compile(nest, b).run();
  for (std::size_t i = 0; i < 10; ++i)
    ASSERT_NEAR(y[i], 1.0 + 2.5 * ax[i], 1e-12);
}

TEST(Compile, EmitsCsrKernelAsLinkedC) {
  Coo a = random_matrix(10, 10, 30, 16);
  Csr csr = Csr::from_coo(a);
  Vector x(10, 1.0), y(10, 0.0);
  Bindings b;
  b.bind_csr("A", csr);
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));
  CompiledKernel k = compile(matvec_nest(10, 10), b);
  std::string code = k.emit("spmv_csr");
  // The specializer's translation unit: the exported symbol takes the
  // arrays as runtime arguments and accumulates into the target.
  EXPECT_NE(code.find("int spmv_csr(const int** ia"), std::string::npos)
      << code;
  EXPECT_NE(code.find("W0"), std::string::npos) << code;
  EXPECT_NE(code.find("+="), std::string::npos) << code;
}

TEST(Compile, MergeJoinEmitsTheRefusalNote) {
  Coo a = random_matrix(10, 10, 40, 17);
  Csr csr = Csr::from_coo(a);
  SparseVector x(10, {{1, 1.0}, {4, 2.0}});
  Vector y(10, 0.0);
  Bindings b;
  b.bind_csr("A", csr);
  b.bind_sparse_vector("X", x);
  b.bind_dense_vector("Y", VectorView(y));
  PlannerOptions opts;
  opts.force_order = std::vector<std::string>{"i", "j"};
  CompiledKernel k = compile(matvec_nest(10, 10), b, opts);
  ASSERT_NE(k.describe_plan().find("merge"), std::string::npos)
      << k.describe_plan();
  const std::string code = k.emit("spmv_sx");
  // One C comment line naming the kernel and why emission refused it.
  EXPECT_EQ(code.rfind("/* spmv_sx not emitted: ", 0), 0u) << code;
  EXPECT_NE(code.find("merge join"), std::string::npos) << code;
  EXPECT_EQ(code.find('\n'), code.size() - 1) << code;
  EXPECT_EQ(code.substr(code.size() - 3), "*/\n") << code;
}

TEST(Compile, RejectsUnboundArray) {
  Bindings b;
  Vector y(5, 0.0);
  b.bind_dense_vector("Y", VectorView(y));
  EXPECT_THROW(compile(matvec_nest(5, 5), b), Error);
}

TEST(Compile, RejectsReadOnlyTarget) {
  Coo a = random_matrix(5, 5, 10, 18);
  Csr csr = Csr::from_coo(a);
  Vector x(5, 1.0);
  Vector y(5, 0.0);
  Bindings b;
  b.bind_csr("A", csr);
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", ConstVectorView(y));  // read-only target
  EXPECT_THROW(compile(matvec_nest(5, 5), b), Error);
}

TEST(Compile, PermutedRowsQuery) {
  // Paper §2.2 / Eq. 6: rows of A are permuted by P. We pose the query
  // directly: Y(i) += A(ip, j) * X(j) with P(i, ip).
  const index_t n = 8;
  Coo a = random_matrix(n, n, 30, 19);
  Csr csr = Csr::from_coo(a);
  std::vector<index_t> perm = {3, 1, 4, 0, 2, 7, 5, 6};

  Vector x(static_cast<std::size_t>(n));
  SplitMix64 rng(20);
  for (auto& v : x) v = rng.next_double(-1.0, 1.0);
  Vector y(static_cast<std::size_t>(n), 0.0);

  relation::IntervalView iview("I", {n, n});
  relation::PermutationView pview("P", perm);
  relation::CsrView aview("A", csr);
  relation::DenseVectorView xview("X", ConstVectorView(x));
  relation::DenseVectorView yview("Y", VectorView(y));

  relation::Query q;
  q.vars = {"i", "ip", "j"};
  q.relations.push_back({&iview, {"i", "j"}, true, false, true});
  q.relations.push_back({&pview, {"i", "ip"}, true, false, false});
  q.relations.push_back({&aview, {"ip", "j"}, true, false, false});
  q.relations.push_back({&xview, {"j"}, false, false, false});
  q.relations.push_back({&yview, {"i"}, false, true, false});

  Plan plan = plan_query(q);
  execute(plan, q, multiply_accumulate(q, 4, {2, 3}));

  // Reference: y[i] = sum_j A[perm[i]][j] * x[j].
  Dense d = Dense::from_coo(a);
  for (index_t i = 0; i < n; ++i) {
    value_t ref = 0;
    for (index_t j = 0; j < n; ++j)
      ref += d.at(perm[static_cast<std::size_t>(i)], j) *
             x[static_cast<std::size_t>(j)];
    ASSERT_NEAR(y[static_cast<std::size_t>(i)], ref, 1e-12) << "i=" << i;
  }
}

}  // namespace
}  // namespace bernoulli::compiler
