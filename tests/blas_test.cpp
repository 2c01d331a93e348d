// Sparse BLAS extensions: SpMM, SpGEMM.
#include <gtest/gtest.h>

#include "blas/spgemm.hpp"
#include "blas/spmm.hpp"
#include "formats/blocksolve.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "workloads/bs_order.hpp"
#include "workloads/grid.hpp"

namespace bernoulli::blas {
namespace {

using formats::Coo;
using formats::Csr;
using formats::Dense;
using formats::TripletBuilder;

Coo random_matrix(index_t rows, index_t cols, index_t nnz, std::uint64_t seed) {
  SplitMix64 rng(seed);
  TripletBuilder b(rows, cols);
  for (index_t k = 0; k < nnz; ++k)
    b.add(rng.next_index(rows), rng.next_index(cols),
          rng.next_double(-1.0, 1.0));
  return std::move(b).build();
}

Dense random_dense(index_t rows, index_t cols, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Dense d(rows, cols);
  for (index_t i = 0; i < rows; ++i)
    for (index_t j = 0; j < cols; ++j) d.at(i, j) = rng.next_double(-1.0, 1.0);
  return d;
}

Dense dense_matmul(const Dense& a, const Dense& b) {
  Dense c(a.rows(), b.cols());
  for (index_t i = 0; i < a.rows(); ++i)
    for (index_t j = 0; j < b.cols(); ++j) {
      value_t sum = 0;
      for (index_t k = 0; k < a.cols(); ++k) sum += a.at(i, k) * b.at(k, j);
      c.at(i, j) = sum;
    }
  return c;
}

TEST(Spmm, MatchesDenseReference) {
  Coo a = random_matrix(25, 30, 180, 1);
  Csr acsr = Csr::from_coo(a);
  Dense ad = Dense::from_coo(a);
  Dense b = random_dense(30, 7, 2);
  Dense c(25, 7), c_ref = dense_matmul(ad, b);
  spmm(acsr, b, c);
  for (index_t i = 0; i < 25; ++i)
    for (index_t j = 0; j < 7; ++j)
      ASSERT_NEAR(c.at(i, j), c_ref.at(i, j), 1e-12);
}

TEST(Spmm, AddAccumulates) {
  Coo a = random_matrix(10, 10, 40, 3);
  Csr acsr = Csr::from_coo(a);
  Dense b = random_dense(10, 3, 4);
  Dense c0 = random_dense(10, 3, 5);
  Dense c = c0;
  Dense ab(10, 3);
  spmm(acsr, b, ab);
  spmm_add(acsr, b, c);
  for (index_t i = 0; i < 10; ++i)
    for (index_t j = 0; j < 3; ++j)
      ASSERT_NEAR(c.at(i, j), c0.at(i, j) + ab.at(i, j), 1e-12);
}

TEST(Spmm, SingleColumnEqualsSpmv) {
  Coo a = random_matrix(20, 20, 80, 6);
  Csr acsr = Csr::from_coo(a);
  Dense b(20, 1);
  Vector x(20);
  SplitMix64 rng(7);
  for (index_t i = 0; i < 20; ++i) {
    x[static_cast<std::size_t>(i)] = rng.next_double(-1, 1);
    b.at(i, 0) = x[static_cast<std::size_t>(i)];
  }
  Dense c(20, 1);
  spmm(acsr, b, c);
  Vector y(20);
  formats::spmv(acsr, x, y);
  for (index_t i = 0; i < 20; ++i)
    ASSERT_NEAR(c.at(i, 0), y[static_cast<std::size_t>(i)], 1e-13);
}

TEST(Spmm, BlockSolveStorageMatchesCsr) {
  auto g = workloads::grid3d_7pt(3, 3, 2, 5, 8);
  auto ord = workloads::blocksolve_ordering(g.matrix, 5);
  auto bs = formats::BsMatrix::build(g.matrix, ord);
  Csr acsr = Csr::from_coo(g.matrix);
  Dense b = random_dense(g.matrix.cols(), 4, 9);
  Dense c1(g.matrix.rows(), 4), c2(g.matrix.rows(), 4);
  spmm(acsr, b, c1);
  spmm(bs, b, c2);
  for (index_t i = 0; i < c1.rows(); ++i)
    for (index_t j = 0; j < 4; ++j)
      ASSERT_NEAR(c1.at(i, j), c2.at(i, j), 1e-10);
}

TEST(Spgemm, MatchesDenseReference) {
  Coo a = random_matrix(12, 17, 70, 14);
  Coo b = random_matrix(17, 9, 60, 15);
  Csr c = spgemm(Csr::from_coo(a), Csr::from_coo(b));
  c.validate();
  Dense ref = dense_matmul(Dense::from_coo(a), Dense::from_coo(b));
  for (index_t i = 0; i < 12; ++i)
    for (index_t j = 0; j < 9; ++j)
      ASSERT_NEAR(c.at(i, j), ref.at(i, j), 1e-12) << i << "," << j;
}

TEST(Spgemm, IdentityIsNeutral) {
  Coo a = random_matrix(10, 10, 40, 16);
  TripletBuilder ib(10, 10);
  for (index_t i = 0; i < 10; ++i) ib.add(i, i, 1.0);
  Csr eye = Csr::from_coo(std::move(ib).build());
  Csr acsr = Csr::from_coo(a);
  EXPECT_EQ(spgemm(acsr, eye).to_coo(), a);
  EXPECT_EQ(spgemm(eye, acsr).to_coo(), a);
}

TEST(Spgemm, StructureIsJoinOfStructures) {
  // (A B)(i,j) is stored iff some k has A(i,k) and B(k,j) stored — even if
  // values cancel; check with a crafted cancellation.
  TripletBuilder ab(2, 2), bb(2, 2);
  ab.add(0, 0, 1.0);
  ab.add(0, 1, 1.0);
  bb.add(0, 0, 1.0);
  bb.add(1, 0, -1.0);
  Csr c = spgemm(Csr::from_coo(std::move(ab).build()),
                 Csr::from_coo(std::move(bb).build()));
  EXPECT_EQ(c.nnz(), 1);            // entry (0,0) exists...
  EXPECT_DOUBLE_EQ(c.at(0, 0), 0.0);  // ...with value exactly 0
}

TEST(Spgemm, RejectsDimensionMismatch) {
  Coo a = random_matrix(3, 4, 5, 17);
  Coo b = random_matrix(5, 3, 5, 18);
  EXPECT_THROW(spgemm(Csr::from_coo(a), Csr::from_coo(b)), bernoulli::Error);
}

}  // namespace
}  // namespace bernoulli::blas
