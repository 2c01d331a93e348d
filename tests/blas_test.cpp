// Sparse BLAS extension: SpGEMM.
#include <gtest/gtest.h>

#include "blas/spgemm.hpp"
#include "formats/dense.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

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
