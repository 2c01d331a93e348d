// BSR format: blocking invariants, round trips, and SpMV agreement.
#include <gtest/gtest.h>

#include "formats/bsr.hpp"
#include "formats/dense.hpp"
#include "formats/sell.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "workloads/grid.hpp"

namespace bernoulli::formats {
namespace {

Coo random_matrix(index_t rows, index_t cols, index_t nnz, std::uint64_t seed) {
  SplitMix64 rng(seed);
  TripletBuilder b(rows, cols);
  for (index_t k = 0; k < nnz; ++k)
    b.add(rng.next_index(rows), rng.next_index(cols),
          rng.next_double(-1.0, 1.0));
  return std::move(b).build();
}

TEST(Bsr, DofMatrixBlocksPerfectly) {
  // A dof-5 grid matrix blocks exactly into 5x5 blocks: the number of
  // blocks equals the number of point couplings (no wasted fill beyond
  // genuinely zero couplings inside stored blocks).
  auto g = workloads::grid3d_7pt(3, 3, 3, 5, 1);
  Bsr bsr = Bsr::from_coo(g.matrix, 5);
  // Blocks = point-graph edges (x2) + diagonal points.
  index_t expected_blocks = 0;
  {
    // 3x3x3 grid: 3 faces directions * 2*3*3... count via node adjacency.
    auto ng = g.matrix;
    (void)ng;
    // 27 diagonal blocks + 2 * 54 coupling blocks (54 grid edges).
    expected_blocks = 27 + 2 * 54;
  }
  EXPECT_EQ(bsr.num_blocks(), expected_blocks);
  EXPECT_EQ(bsr.to_coo(), g.matrix);
}

TEST(Bsr, Block1IsPlainCsrStructure) {
  Coo a = random_matrix(12, 12, 40, 2);
  Bsr bsr = Bsr::from_coo(a, 1);
  EXPECT_EQ(bsr.num_blocks(), a.nnz());
  EXPECT_EQ(bsr.to_coo(), a);
}

TEST(Bsr, SpmvMatchesDense) {
  for (index_t block : {1, 2, 3, 4, 6}) {
    Coo a = random_matrix(24, 36, 200, 100 + static_cast<std::uint64_t>(block));
    Bsr bsr = Bsr::from_coo(a, block);
    bsr.validate();
    Dense d = Dense::from_coo(a);
    Vector x(36);
    SplitMix64 rng(5);
    for (auto& v : x) v = rng.next_double(-1, 1);
    Vector y(24), y_ref(24);
    spmv(d, x, y_ref);
    spmv(bsr, x, y);
    for (std::size_t i = 0; i < 24; ++i)
      ASSERT_NEAR(y[i], y_ref[i], 1e-12) << "block " << block;
  }
}

TEST(Bsr, LookupMatchesDense) {
  Coo a = random_matrix(20, 20, 90, 7);
  Bsr bsr = Bsr::from_coo(a, 4);
  Dense d = Dense::from_coo(a);
  for (index_t i = 0; i < 20; ++i)
    for (index_t j = 0; j < 20; ++j)
      ASSERT_DOUBLE_EQ(bsr.at(i, j), d.at(i, j));
}

TEST(Bsr, FillCountsStorageOverhead) {
  // A diagonal matrix blocked 4x4 stores 16 values per nonzero.
  TripletBuilder b(8, 8);
  for (index_t i = 0; i < 8; ++i) b.add(i, i, 1.0);
  Bsr bsr = Bsr::from_coo(std::move(b).build(), 4);
  EXPECT_EQ(bsr.num_blocks(), 2);
  EXPECT_EQ(bsr.stored(), 32);  // 2 blocks x 16 slots for 8 nonzeros
}

TEST(Bsr, RejectsIndivisibleDimensions) {
  Coo a = random_matrix(10, 10, 20, 8);
  EXPECT_THROW(Bsr::from_coo(a, 3), Error);
}

TEST(Bsr, SpmvAddAccumulates) {
  Coo a = random_matrix(12, 12, 50, 9);
  Bsr bsr = Bsr::from_coo(a, 3);
  Vector x(12, 1.0), y(12, 2.0), ax(12);
  spmv(bsr, x, ax);
  spmv_add(bsr, x, y);
  for (std::size_t i = 0; i < 12; ++i) ASSERT_NEAR(y[i], 2.0 + ax[i], 1e-13);
}

// index_t is 32-bit: a product that sizes storage must be checked in 64
// bits and rejected by name before anything is allocated. One stored
// entry with 46341 x 46341 blocks needs R*C = 2,147,488,281 value slots,
// past INT32_MAX — unguarded, the block area wraps or sizes a 17 GB array.
TEST(Bsr, OversizedBlockAreaThrowsBeforeAllocating) {
  const index_t block = 46341;
  TripletBuilder b(block, block);
  b.add(7, 11, 1.0);
  const Coo a = std::move(b).build();
  try {
    (void)Bsr::from_coo(a, block);
    FAIL() << "expected an index overflow error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("BCSR block area R*C"),
              std::string::npos)
        << e.what();
  }
}

// The same guard on SELL-C-σ: two entries in one row of a 2^30-lane chunk
// pad the chunk to 2 * 2^30 = 2^31 stored lanes.
TEST(Sell, OversizedPaddedStorageThrowsBeforeAllocating) {
  const index_t chunk = index_t{1} << 30;
  TripletBuilder b(3, 4);
  b.add(0, 1, 1.0);
  b.add(0, 3, 2.0);
  b.add(2, 0, 3.0);
  const Coo a = std::move(b).build();
  try {
    (void)Sell::from_coo(a, chunk, chunk);
    FAIL() << "expected an index overflow error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("SELL stored lanes"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace bernoulli::formats
