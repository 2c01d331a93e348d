// Skyline storage and envelope Cholesky: the full (direct) factorization
// of the paper's §6, with the no-fill-outside-the-envelope property.
#include <gtest/gtest.h>

#include <cmath>

#include "formats/dense.hpp"
#include "formats/csr.hpp"
#include "formats/skyline.hpp"
#include "solvers/cg.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "workloads/grid.hpp"
#include "workloads/rcm.hpp"
#include "workloads/suite.hpp"

namespace bernoulli::formats {
namespace {

// Entries only in column 0 stretch every row's envelope back to column 0:
// n(n+1)/2 stored entries. At n = 66000 that is past the index type; at
// n = 92682 a 32-bit sum wraps to a small positive size, so a wrapped
// row pointer would send from_coo writing out of bounds.
TEST(Skyline, OversizedEnvelopeThrowsBeforeAllocating) {
  for (const index_t n : {index_t{66000}, index_t{92682}}) {
    TripletBuilder b(n, n);
    for (index_t i = 0; i < n; ++i) b.add(i, 0, 1.0);
    const Coo a = std::move(b).build();
    try {
      (void)Skyline::from_coo(a);
      FAIL() << "expected an index overflow error at n = " << n;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("Skyline envelope size"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Skyline, RoundTripsSymmetricMatrix) {
  auto g = workloads::grid2d_5pt(6, 5, 1, 1);
  Skyline s = Skyline::from_coo(g.matrix);
  EXPECT_EQ(s.to_coo(), g.matrix);
}

TEST(Skyline, SymmetricSpmvMatchesDense) {
  auto g = workloads::grid2d_5pt(7, 7, 1, 2);
  Skyline s = Skyline::from_coo(g.matrix);
  Dense d = Dense::from_coo(g.matrix);
  const auto n = static_cast<std::size_t>(g.matrix.rows());
  SplitMix64 rng(3);
  Vector x(n), y(n), y_ref(n);
  for (auto& v : x) v = rng.next_double(-1, 1);
  spmv(d, x, y_ref);
  s.spmv_sym(x, y);
  for (std::size_t i = 0; i < n; ++i) ASSERT_NEAR(y[i], y_ref[i], 1e-12);
}

TEST(Skyline, CholeskyReconstructsMatrix) {
  auto g = workloads::grid2d_5pt(5, 5, 1, 4);
  Skyline s = Skyline::from_coo(g.matrix);
  Skyline factored = s;
  factored.cholesky_in_place();

  // L L^T must equal A entrywise (within the envelope L is exact; outside
  // it both are structurally zero for envelope matrices).
  const index_t n = s.rows();
  Dense a = Dense::from_coo(g.matrix);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j <= i; ++j) {
      value_t sum = 0;
      for (index_t k = 0; k <= j; ++k) {
        value_t lik = k >= factored.first(i) ? factored.at(i, k) : 0.0;
        value_t ljk = k >= factored.first(j) ? factored.at(j, k) : 0.0;
        sum += lik * ljk;
      }
      ASSERT_NEAR(sum, a.at(i, j), 1e-10) << i << "," << j;
    }
}

TEST(Skyline, DirectSolveMatchesTruth) {
  auto g = workloads::grid3d_7pt(4, 4, 4, 1, 5);
  Skyline s = Skyline::from_coo(g.matrix);
  const auto n = static_cast<std::size_t>(s.rows());
  SplitMix64 rng(6);
  Vector x_true(n);
  for (auto& v : x_true) v = rng.next_double(-1, 1);
  Vector b(n);
  s.spmv_sym(x_true, b);

  s.cholesky_in_place();
  Vector x(n);
  s.solve_factored(b, x);
  for (std::size_t i = 0; i < n; ++i) ASSERT_NEAR(x[i], x_true[i], 1e-9);
}

TEST(Skyline, RcmShrinksEnvelopeAndFactorCost) {
  // The direct-method payoff of RCM: envelope (= factor storage and
  // factor work) shrinks on a scrambled matrix.
  formats::Coo grid = workloads::suite_matrix("gr_30_30").matrix;
  SplitMix64 rng(7);
  std::vector<index_t> shuffle(static_cast<std::size_t>(grid.rows()));
  for (std::size_t i = 0; i < shuffle.size(); ++i)
    shuffle[i] = static_cast<index_t>(i);
  for (std::size_t i = shuffle.size(); i > 1; --i)
    std::swap(shuffle[i - 1], shuffle[rng.next_below(i)]);
  formats::Coo scrambled = workloads::permute_symmetric(grid, shuffle);
  formats::Coo restored = workloads::permute_symmetric(
      scrambled, workloads::rcm_ordering(scrambled));

  Skyline bad = Skyline::from_coo(scrambled);
  Skyline good = Skyline::from_coo(restored);
  EXPECT_LT(good.stored(), bad.stored() / 3)
      << "scrambled " << bad.stored() << " restored " << good.stored();
}

TEST(Skyline, BreakdownOnIndefinite) {
  TripletBuilder b(2, 2);
  b.add(0, 0, 1.0);
  b.add(1, 0, 5.0);
  b.add(0, 1, 5.0);
  b.add(1, 1, 1.0);
  Skyline s = Skyline::from_coo(std::move(b).build());
  EXPECT_THROW(s.cholesky_in_place(), Error);
}

TEST(Skyline, AgreesWithCg) {
  auto g = workloads::grid2d_5pt(8, 6, 1, 8);
  Csr a = Csr::from_coo(g.matrix);
  const auto n = static_cast<std::size_t>(a.rows());
  Vector b(n, 1.0);

  Vector x_cg(n, 0.0);
  solvers::CgOptions opts;
  opts.max_iterations = 1000;
  opts.tolerance = 1e-13;
  ASSERT_TRUE(solvers::cg(a, b, x_cg, opts).converged);

  Skyline s = Skyline::from_coo(g.matrix);
  s.cholesky_in_place();
  Vector x_direct(n);
  s.solve_factored(b, x_direct);
  for (std::size_t i = 0; i < n; ++i) ASSERT_NEAR(x_direct[i], x_cg[i], 1e-7);
}

}  // namespace
}  // namespace bernoulli::formats
