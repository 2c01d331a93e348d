// Per-format unit tests plus parameterized cross-format property sweeps:
// every format must (1) round-trip through COO, (2) agree with the dense
// reference on lookups, (3) produce the dense-reference SpMV result.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>

#include "formats/formats.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace bernoulli::formats {
namespace {

// The 6x6 example matrix of the paper's Fig. 1 (values 1..9, column 4 and
// column 0 empty is not the case there; we use the exact figure layout:
// nonzeros at the positions drawn, with columns 2 and 4 empty to exercise
// CCCS column compression).
Coo figure1_matrix() {
  TripletBuilder b(6, 6);
  b.add(0, 0, 1.0);
  b.add(2, 0, 2.0);
  b.add(5, 0, 3.0);
  b.add(1, 1, 4.0);
  b.add(3, 3, 5.0);
  b.add(4, 3, 6.0);
  b.add(0, 5, 7.0);
  b.add(2, 5, 8.0);
  b.add(4, 5, 9.0);
  return std::move(b).build();
}

Coo random_matrix(index_t rows, index_t cols, index_t nnz, std::uint64_t seed) {
  SplitMix64 rng(seed);
  TripletBuilder b(rows, cols);
  for (index_t k = 0; k < nnz; ++k)
    b.add(rng.next_index(rows), rng.next_index(cols),
          rng.next_double(-1.0, 1.0));
  return std::move(b).build();
}

TEST(Coo, CanonicalizesAndSumsDuplicates) {
  TripletBuilder b(3, 3);
  b.add(2, 2, 1.0);
  b.add(0, 0, 1.0);
  b.add(2, 2, 2.5);
  b.add(0, 1, -1.0);
  Coo a = std::move(b).build();
  EXPECT_EQ(a.nnz(), 3);
  EXPECT_DOUBLE_EQ(a.at(2, 2), 3.5);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(a.at(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(a.at(1, 1), 0.0);
  a.validate();
}

TEST(Coo, RejectsOutOfRangeEntry) {
  TripletBuilder b(2, 2);
  b.add(2, 0, 1.0);
  EXPECT_THROW(std::move(b).build(), Error);
}

TEST(Coo, RowLengths) {
  Coo a = figure1_matrix();
  auto len = a.row_lengths();
  EXPECT_EQ(len[0], 2);
  EXPECT_EQ(len[1], 1);
  EXPECT_EQ(len[5], 1);
  EXPECT_EQ(a.row_nnz(4), 2);
}

TEST(Coo, TransposeInvolution) {
  Coo a = random_matrix(17, 11, 60, 1);
  EXPECT_EQ(a.transposed().transposed(), a);
}

TEST(Coo, SymmetryDetection) {
  TripletBuilder b(3, 3);
  b.add(0, 1, 2.0);
  b.add(1, 0, 2.0);
  b.add(2, 2, 1.0);
  EXPECT_TRUE(std::move(b).build().is_symmetric());

  TripletBuilder c(3, 3);
  c.add(0, 1, 2.0);
  EXPECT_FALSE(std::move(c).build().is_symmetric());
}

TEST(Csr, Figure1RowAccess) {
  Csr a = Csr::from_coo(figure1_matrix());
  EXPECT_EQ(a.nnz(), 9);
  auto r0 = a.row_cols(0);
  ASSERT_EQ(r0.size(), 2u);
  EXPECT_EQ(r0[0], 0);
  EXPECT_EQ(r0[1], 5);
  EXPECT_DOUBLE_EQ(a.at(4, 5), 9.0);
  EXPECT_DOUBLE_EQ(a.at(4, 4), 0.0);
}

template <class T>
std::vector<T> as_vector(std::span<const T> s) {
  return {s.begin(), s.end()};
}

TEST(Csr, FromCooRvalueTakesTheArraysBitwise) {
  // Duplicates sum during assembly; both overloads see the summed Coo.
  TripletBuilder b(5, 4);
  SplitMix64 rng(3);
  for (int k = 0; k < 40; ++k)
    b.add(rng.next_index(5), rng.next_index(4), rng.next_double(-1.0, 1.0));
  b.add(2, 1, 0.5);
  b.add(2, 1, 0.25);
  Coo coo = std::move(b).build();
  const Csr copied = Csr::from_coo(coo);
  const Csr moved = Csr::from_coo(std::move(coo));
  EXPECT_EQ(moved.rows(), copied.rows());
  EXPECT_EQ(moved.cols(), copied.cols());
  EXPECT_EQ(as_vector(moved.rowptr()), as_vector(copied.rowptr()));
  EXPECT_EQ(as_vector(moved.colind()), as_vector(copied.colind()));
  EXPECT_EQ(as_vector(moved.vals()), as_vector(copied.vals()));
  // The moved-from Coo is a valid empty matrix of its shape.
  EXPECT_EQ(coo.nnz(), 0);
  EXPECT_TRUE(coo.rowind().empty());
  EXPECT_TRUE(coo.colind().empty());
  EXPECT_EQ(coo.rows(), 5);
  EXPECT_EQ(coo.cols(), 4);
  EXPECT_NO_THROW(coo.validate());
  EXPECT_EQ(Csr::from_coo(std::move(coo)).nnz(), 0);
}

TEST(Ccs, MatchesPaperFigure1Layout) {
  // Fig. 1(b): CCS of the example matrix. Column 0 holds rows {0,2,5}
  // with values {1,2,3}.
  Ccs a = Ccs::from_coo(figure1_matrix());
  auto c0r = a.col_rows(0);
  ASSERT_EQ(c0r.size(), 3u);
  EXPECT_EQ(c0r[0], 0);
  EXPECT_EQ(c0r[1], 2);
  EXPECT_EQ(c0r[2], 5);
  EXPECT_DOUBLE_EQ(a.col_vals(0)[2], 3.0);
  // Empty columns still exist in CCS (zero-length sections).
  EXPECT_EQ(a.col_rows(2).size(), 0u);
  EXPECT_EQ(a.col_rows(4).size(), 0u);
}

TEST(Cccs, CompressesEmptyColumns) {
  // Fig. 1(c): CCCS does not store the zero columns; COLIND lists stored
  // column indices.
  Cccs a = Cccs::from_coo(figure1_matrix());
  EXPECT_EQ(a.stored_cols(), 4);
  auto ci = a.colind();
  EXPECT_EQ(ci[0], 0);
  EXPECT_EQ(ci[1], 1);
  EXPECT_EQ(ci[2], 3);
  EXPECT_EQ(ci[3], 5);
  EXPECT_EQ(a.find_stored_col(4), -1);
  EXPECT_EQ(a.find_stored_col(3), 2);
  EXPECT_DOUBLE_EQ(a.at(4, 3), 6.0);
  EXPECT_DOUBLE_EQ(a.at(4, 4), 0.0);
}

TEST(Dia, TridiagonalUsesThreeDiagonals) {
  TripletBuilder b(5, 5);
  for (index_t i = 0; i < 5; ++i) {
    b.add(i, i, 2.0);
    if (i > 0) b.add(i, i - 1, -1.0);
    if (i < 4) b.add(i, i + 1, -1.0);
  }
  Dia a = Dia::from_coo(std::move(b).build());
  EXPECT_EQ(a.num_diagonals(), 3);
  EXPECT_EQ(a.offsets()[0], -1);
  EXPECT_EQ(a.offsets()[1], 0);
  EXPECT_EQ(a.offsets()[2], 1);
  EXPECT_DOUBLE_EQ(a.at(3, 2), -1.0);
  EXPECT_DOUBLE_EQ(a.at(3, 1), 0.0);
}

TEST(Dia, SkylineStoresOnlyBetweenFirstAndLast) {
  // One diagonal with nonzeros at rows 3 and 7 only: the skyline keeps
  // rows 3..7 (5 slots), not the full diagonal.
  TripletBuilder b(10, 10);
  b.add(3, 3, 1.0);
  b.add(7, 7, 2.0);
  Dia a = Dia::from_coo(std::move(b).build());
  EXPECT_EQ(a.num_diagonals(), 1);
  EXPECT_EQ(a.diag_len(0), 5);
  EXPECT_EQ(a.first()[0], 3);
  EXPECT_DOUBLE_EQ(a.at(5, 5), 0.0);  // interior zero slot
  EXPECT_DOUBLE_EQ(a.at(7, 7), 2.0);
}

// Entries at both ends of every diagonal of an n x n matrix pad each
// diagonal to its full length: n^2 stored slots. At n = 66000 that is
// past the index type; at n = 92682 it is past 2^33 and a 32-bit sum
// would wrap twice.
TEST(Dia, OversizedPaddedStorageThrowsBeforeAllocating) {
  for (const index_t n : {index_t{66000}, index_t{92682}}) {
    TripletBuilder b(n, n);
    for (index_t d = 0; d < n; ++d) {
      b.add(0, d, 1.0);
      b.add(n - 1 - d, n - 1, 1.0);
      if (d > 0) {
        b.add(d, 0, 1.0);
        b.add(n - 1, n - 1 - d, 1.0);
      }
    }
    const Coo a = std::move(b).build();
    try {
      (void)Dia::from_coo(a);
      FAIL() << "expected an index overflow error at n = " << n;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("DIA padded storage"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Ell, WidthIsMaxRowLength) {
  Ell a = Ell::from_coo(figure1_matrix());
  EXPECT_EQ(a.width(), 2);
  EXPECT_EQ(a.nnz(), 9);
  EXPECT_EQ(a.padded_size(), 12);
  EXPECT_DOUBLE_EQ(a.at(5, 0), 3.0);
}

// One hub row of 32769 entries pads every one of 65536 rows to that
// width: rows*width = 2^31 + 2^16 stored slots, past the index type.
TEST(Ell, OversizedPaddedStorageThrowsBeforeAllocating) {
  const index_t rows = index_t{1} << 16;
  const index_t width = (index_t{1} << 15) + 1;
  TripletBuilder b(rows, width);
  for (index_t j = 0; j < width; ++j) b.add(5, j, 1.0);
  const Coo a = std::move(b).build();
  try {
    (void)Ell::from_coo(a);
    FAIL() << "expected an index overflow error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("ELL padded storage rows*width"),
              std::string::npos)
        << e.what();
  }
}

TEST(Jds, PermutationSortsRowsByLength) {
  Jds a = Jds::from_coo(figure1_matrix());
  // Rows 0,2,4 have 2 entries; rows 1,3,5 have 1.
  auto perm = a.perm();
  EXPECT_EQ(perm[0], 0);
  EXPECT_EQ(perm[1], 2);
  EXPECT_EQ(perm[2], 4);
  EXPECT_EQ(a.num_jdiags(), 2);
  // First jagged diagonal covers all 6 rows, second only the 3 long rows.
  EXPECT_EQ(a.jdptr()[1] - a.jdptr()[0], 6);
  EXPECT_EQ(a.jdptr()[2] - a.jdptr()[1], 3);
  EXPECT_DOUBLE_EQ(a.at(4, 5), 9.0);
}

TEST(Dense, FromToCoo) {
  Coo a = figure1_matrix();
  Dense d = Dense::from_coo(a);
  EXPECT_DOUBLE_EQ(d.at(2, 5), 8.0);
  EXPECT_EQ(d.to_coo(), a);
}

// 46341^2 = 2^31 + 4633 elements: the builder must refuse before it
// allocates 16 GiB.
TEST(Dense, OversizedStorageThrowsBeforeAllocating) {
  const index_t n = 46341;
  TripletBuilder b(n, n);
  b.add(7, 11, 1.0);
  const Coo a = std::move(b).build();
  try {
    (void)Dense::from_coo(a);
    FAIL() << "expected an index overflow error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("dense rows*cols"),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Parameterized property sweeps across all formats.

struct SweepCase {
  Kind kind;
  index_t rows;
  index_t cols;
  index_t nnz;
  std::uint64_t seed;
};

std::ostream& operator<<(std::ostream& os, const SweepCase& c) {
  return os << kind_name(c.kind) << "_" << c.rows << "x" << c.cols << "_nnz"
            << c.nnz << "_s" << c.seed;
}

class FormatSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(FormatSweep, RoundTripsThroughCoo) {
  const auto& p = GetParam();
  Coo a = random_matrix(p.rows, p.cols, p.nnz, p.seed);
  AnyFormat f(p.kind, a);
  EXPECT_EQ(f.to_coo(), a);
}

TEST_P(FormatSweep, LookupMatchesDense) {
  const auto& p = GetParam();
  Coo a = random_matrix(p.rows, p.cols, p.nnz, p.seed);
  AnyFormat f(p.kind, a);
  Dense d = Dense::from_coo(a);
  for (index_t i = 0; i < p.rows; ++i)
    for (index_t j = 0; j < p.cols; ++j)
      ASSERT_DOUBLE_EQ(f.at(i, j), d.at(i, j)) << "(" << i << "," << j << ")";
}

TEST_P(FormatSweep, SpmvMatchesDenseReference) {
  const auto& p = GetParam();
  Coo a = random_matrix(p.rows, p.cols, p.nnz, p.seed);
  AnyFormat f(p.kind, a);
  Dense d = Dense::from_coo(a);

  SplitMix64 rng(p.seed ^ 0xabcdef);
  Vector x(static_cast<std::size_t>(p.cols));
  for (auto& v : x) v = rng.next_double(-1.0, 1.0);

  Vector y_ref(static_cast<std::size_t>(p.rows)), y(y_ref.size());
  spmv(d, x, y_ref);
  f.spmv(x, y);
  for (std::size_t i = 0; i < y.size(); ++i)
    ASSERT_NEAR(y[i], y_ref[i], 1e-12) << "row " << i;
}

TEST_P(FormatSweep, SpmvAddAccumulates) {
  const auto& p = GetParam();
  Coo a = random_matrix(p.rows, p.cols, p.nnz, p.seed);
  AnyFormat f(p.kind, a);

  Vector x(static_cast<std::size_t>(p.cols), 1.0);
  Vector y0(static_cast<std::size_t>(p.rows), 0.5);
  Vector y1 = y0;
  Vector ax(static_cast<std::size_t>(p.rows));
  f.spmv(x, ax);
  f.spmv_add(x, y1);
  for (std::size_t i = 0; i < y1.size(); ++i)
    ASSERT_NEAR(y1[i], y0[i] + ax[i], 1e-12);
}

std::vector<SweepCase> make_sweep() {
  std::vector<SweepCase> cases;
  std::uint64_t seed = 100;
  for (Kind k : sparse_kinds()) {
    cases.push_back({k, 1, 1, 1, seed++});       // degenerate 1x1
    cases.push_back({k, 8, 8, 8, seed++});       // tiny
    cases.push_back({k, 25, 40, 130, seed++});   // rectangular wide
    cases.push_back({k, 40, 25, 130, seed++});   // rectangular tall
    cases.push_back({k, 64, 64, 500, seed++});   // moderate density
    cases.push_back({k, 100, 100, 40, seed++});  // very sparse (empty rows)
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllFormats, FormatSweep,
                         ::testing::ValuesIn(make_sweep()),
                         [](const ::testing::TestParamInfo<SweepCase>& info) {
                           std::ostringstream os;
                           os << info.param;
                           // gtest parameterized names must be [A-Za-z0-9_]
                           // ("SELL-C-s" has dashes).
                           std::string s = os.str();
                           for (char& ch : s)
                             if (!std::isalnum(static_cast<unsigned char>(ch)))
                               ch = '_';
                           return s;
                         });

TEST(AnyFormat, StorageBytesOrdering) {
  // ITPACK on a matrix with one long row pays padding; CRS does not.
  TripletBuilder b(50, 50);
  for (index_t j = 0; j < 50; ++j) b.add(0, j, 1.0);
  for (index_t i = 1; i < 50; ++i) b.add(i, i, 1.0);
  Coo a = std::move(b).build();
  AnyFormat ell(Kind::kEll, a), csr(Kind::kCsr, a);
  EXPECT_GT(ell.storage_bytes(), csr.storage_bytes());
}

TEST(AnyFormat, EmptyMatrixAllKinds) {
  Coo a(4, 4, {});
  for (Kind k : sparse_kinds()) {
    AnyFormat f(k, a);
    Vector x(4, 1.0), y(4, -1.0);
    f.spmv(x, y);
    for (double v : y) EXPECT_DOUBLE_EQ(v, 0.0);
    EXPECT_EQ(f.to_coo().nnz(), 0);
  }
}

}  // namespace
}  // namespace bernoulli::formats
