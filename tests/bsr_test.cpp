// BSR format: blocking invariants, round trips, and SpMV agreement; the
// BCSR and SELL conversions against reference copies of their original
// algorithms; and the views that borrow both formats' arrays.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "compiler/loopnest.hpp"
#include "formats/bsr.hpp"
#include "formats/dense.hpp"
#include "formats/sell.hpp"
#include "relation/bsr_view.hpp"
#include "relation/sell_view.hpp"
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

// ---------------------------------------------------------------------
// Differential: from_coo against reference copies of the per-row-bucket
// conversions it replaced (per-row vectors, per-entry lower_bound). Every
// output array must be equal.

Bsr reference_bsr(const Coo& a, index_t block) {
  const index_t brows = a.rows() / block;
  std::vector<std::vector<index_t>> blocks(static_cast<std::size_t>(brows));
  auto rowind = a.rowind();
  auto colind = a.colind();
  for (index_t k = 0; k < a.nnz(); ++k)
    blocks[static_cast<std::size_t>(rowind[k] / block)].push_back(colind[k] /
                                                                  block);
  std::vector<index_t> browptr{0}, bcolind;
  for (auto& br : blocks) {
    std::sort(br.begin(), br.end());
    br.erase(std::unique(br.begin(), br.end()), br.end());
    bcolind.insert(bcolind.end(), br.begin(), br.end());
    browptr.push_back(static_cast<index_t>(bcolind.size()));
  }
  const auto bb =
      static_cast<std::size_t>(block) * static_cast<std::size_t>(block);
  std::vector<value_t> vals(bcolind.size() * bb, 0.0);
  auto avals = a.vals();
  for (index_t k = 0; k < a.nnz(); ++k) {
    const index_t br = rowind[k] / block, bc = colind[k] / block;
    const index_t* begin = bcolind.data() + browptr[static_cast<std::size_t>(br)];
    const index_t* end = bcolind.data() + browptr[static_cast<std::size_t>(br) + 1];
    auto slot = static_cast<std::size_t>(std::lower_bound(begin, end, bc) -
                                         bcolind.data());
    vals[slot * bb +
         static_cast<std::size_t>(rowind[k] % block) *
             static_cast<std::size_t>(block) +
         static_cast<std::size_t>(colind[k] % block)] =
        avals[static_cast<std::size_t>(k)];
  }
  return Bsr(a.rows(), a.cols(), block, std::move(browptr), std::move(bcolind),
             std::move(vals));
}

Sell reference_sell(const Coo& a, index_t chunk, index_t sigma) {
  const index_t rows = a.rows();
  auto rowind = a.rowind();
  auto colind = a.colind();
  auto avals = a.vals();
  std::vector<std::vector<std::pair<index_t, value_t>>> by_row(
      static_cast<std::size_t>(rows));
  for (index_t k = 0; k < a.nnz(); ++k)
    by_row[static_cast<std::size_t>(rowind[k])].emplace_back(
        colind[k], avals[static_cast<std::size_t>(k)]);
  std::vector<index_t> order(static_cast<std::size_t>(rows));
  std::iota(order.begin(), order.end(), index_t{0});
  for (index_t w = 0; w < rows; w += sigma) {
    auto begin = order.begin() + w;
    auto end = order.begin() + std::min<index_t>(w + sigma, rows);
    std::stable_sort(begin, end, [&](index_t x, index_t y) {
      return by_row[static_cast<std::size_t>(x)].size() >
             by_row[static_cast<std::size_t>(y)].size();
    });
  }
  const index_t nchunks = (rows + chunk - 1) / chunk;
  std::vector<index_t> cptr{0};
  for (index_t ch = 0; ch < nchunks; ++ch) {
    std::size_t maxlen = 0;
    for (index_t p = ch * chunk; p < std::min((ch + 1) * chunk, rows); ++p)
      maxlen = std::max(
          maxlen, by_row[static_cast<std::size_t>(order[static_cast<std::size_t>(p)])]
                      .size());
    cptr.push_back(cptr.back() + static_cast<index_t>(maxlen) * chunk);
  }
  std::vector<index_t> cind(static_cast<std::size_t>(cptr.back()), 0);
  std::vector<value_t> vals(static_cast<std::size_t>(cptr.back()), 0.0);
  std::vector<index_t> rowbase(static_cast<std::size_t>(rows), 0);
  std::vector<index_t> rowlen(static_cast<std::size_t>(rows), 0);
  for (index_t p = 0; p < rows; ++p) {
    const index_t i = order[static_cast<std::size_t>(p)];
    const index_t base = cptr[static_cast<std::size_t>(p / chunk)] + p % chunk;
    const auto& row = by_row[static_cast<std::size_t>(i)];
    rowbase[static_cast<std::size_t>(i)] = base;
    rowlen[static_cast<std::size_t>(i)] = static_cast<index_t>(row.size());
    for (std::size_t k = 0; k < row.size(); ++k) {
      const auto slot = static_cast<std::size_t>(base) +
                        k * static_cast<std::size_t>(chunk);
      cind[slot] = row[k].first;
      vals[slot] = row[k].second;
    }
  }
  return Sell(rows, a.cols(), chunk, sigma, std::move(cptr), std::move(cind),
              std::move(vals), std::move(rowbase), std::move(rowlen));
}

template <class T>
std::vector<T> as_vector(std::span<const T> s) {
  return {s.begin(), s.end()};
}

void expect_same_bsr(const Coo& a, index_t block, const std::string& shape) {
  SCOPED_TRACE(shape + " block=" + std::to_string(block));
  const Bsr got = Bsr::from_coo(a, block);
  const Bsr want = reference_bsr(a, block);
  EXPECT_EQ(as_vector(got.browptr()), as_vector(want.browptr()));
  EXPECT_EQ(as_vector(got.bcolind()), as_vector(want.bcolind()));
  EXPECT_EQ(as_vector(got.vals()), as_vector(want.vals()));
}

void expect_same_sell(const Coo& a, index_t chunk, index_t sigma,
                      const std::string& shape) {
  SCOPED_TRACE(shape + " C=" + std::to_string(chunk) +
               " sigma=" + std::to_string(sigma));
  const Sell got = Sell::from_coo(a, chunk, sigma);
  const Sell want = reference_sell(a, chunk, sigma);
  EXPECT_EQ(as_vector(got.cptr()), as_vector(want.cptr()));
  EXPECT_EQ(as_vector(got.colind()), as_vector(want.colind()));
  EXPECT_EQ(as_vector(got.vals()), as_vector(want.vals()));
  EXPECT_EQ(as_vector(got.rowbase()), as_vector(want.rowbase()));
  EXPECT_EQ(as_vector(got.rowlen()), as_vector(want.rowlen()));
  EXPECT_EQ(got.nnz(), want.nnz());
}

// Pareto(1.5) row lengths (capped at the column count), uniform columns.
Coo pareto_matrix(index_t rows, index_t cols, std::uint64_t seed) {
  SplitMix64 rng(seed);
  TripletBuilder b(rows, cols);
  for (index_t i = 0; i < rows; ++i) {
    const double u = rng.next_double(1e-9, 1.0);
    const auto len = std::min<index_t>(
        cols, static_cast<index_t>(2.0 / std::pow(u, 1.0 / 1.5)));
    for (index_t k = 0; k < len; ++k)
      b.add(i, rng.next_index(cols), rng.next_double(-1.0, 1.0));
  }
  return std::move(b).build();
}

struct Shape {
  std::string name;
  Coo coo;
};

// Every shape has dimensions divisible by 12, so blocks 1-4 and 6 apply.
std::vector<Shape> conversion_shapes() {
  std::vector<Shape> shapes;
  shapes.push_back({"0x24", Coo(0, 24, {})});
  shapes.push_back({"24x0", Coo(24, 0, {})});
  shapes.push_back({"empty 24x36", Coo(24, 36, {})});
  {
    // Rows 0-5 and 18-23 and columns 0-11 and 30-35 are empty.
    SplitMix64 rng(11);
    TripletBuilder b(24, 36);
    for (index_t k = 0; k < 60; ++k)
      b.add(6 + rng.next_index(12), 12 + rng.next_index(18),
            rng.next_double(-1.0, 1.0));
    shapes.push_back({"empty rows and columns", std::move(b).build()});
  }
  {
    TripletBuilder b(36, 48);
    for (index_t j = 0; j < 48; ++j) b.add(13, j, 1.0 + j);
    b.add(2, 5, -1.0);
    b.add(30, 47, -2.0);
    shapes.push_back({"one dense row", std::move(b).build()});
  }
  shapes.push_back({"random 60x60", random_matrix(60, 60, 400, 12)});
  shapes.push_back({"pareto 600x600", pareto_matrix(600, 600, 13)});
  return shapes;
}

TEST(ConvertDifferential, BsrMatchesReferenceArrays) {
  for (const Shape& s : conversion_shapes())
    for (index_t block : {1, 2, 3, 4, 6}) expect_same_bsr(s.coo, block, s.name);
}

TEST(ConvertDifferential, SellMatchesReferenceArrays) {
  std::vector<Shape> shapes = conversion_shapes();
  // Row counts that leave a partial last chunk.
  shapes.push_back({"random 37x20", random_matrix(37, 20, 150, 14)});
  shapes.push_back({"pareto 101x300", pareto_matrix(101, 300, 15)});
  for (const Shape& s : shapes) {
    // sigma = 64 and 1050 exceed most of these row counts.
    for (auto [chunk, sigma] : {std::pair<index_t, index_t>{1, 1},
                                {4, 4},
                                {4, 8},
                                {8, 32},
                                {8, 64},
                                {7, 1050}})
      expect_same_sell(s.coo, chunk, sigma, s.name);
  }
}

// ---------------------------------------------------------------------
// The views borrow: every array a BCSR or SELL view reads is the
// matrix's own, so the view holds no index or value storage.

TEST(BorrowedViews, BsrViewReadsTheMatrixArrays) {
  const Bsr m = Bsr::from_coo(random_matrix(24, 24, 120, 16), 4);
  const relation::BsrView view("A", m);
  EXPECT_EQ(view.value_array().data(), m.vals().data());
  EXPECT_EQ(view.value_array().size(), m.vals().size());
  const relation::LevelDescriptor d = view.level(1).describe();
  EXPECT_EQ(d.kind, relation::LevelDescriptor::Kind::kBlocked);
  EXPECT_EQ(d.ptr, m.browptr().data());
  EXPECT_EQ(d.ind, m.bcolind().data());

  // Bound through Bindings, the kernel's view is the same borrower.
  compiler::Bindings b;
  b.bind_bsr("A", m);
  EXPECT_EQ(b.lookup("A").view->value_array().data(), m.vals().data());
  EXPECT_EQ(b.lookup("A").view->level(1).describe().ind, m.bcolind().data());
}

TEST(BorrowedViews, SellViewReadsTheMatrixArrays) {
  const Sell m = Sell::from_coo(random_matrix(30, 30, 140, 17), 4, 8);
  const relation::SellView view("A", m);
  EXPECT_EQ(view.value_array().data(), m.vals().data());
  EXPECT_EQ(view.value_array().size(), m.vals().size());
  const relation::LevelDescriptor d = view.level(1).describe();
  EXPECT_EQ(d.kind, relation::LevelDescriptor::Kind::kSliced);
  EXPECT_EQ(d.ind, m.colind().data());
  EXPECT_EQ(d.off, m.rowbase().data());
  EXPECT_EQ(d.len, m.rowlen().data());

  compiler::Bindings b;
  b.bind_sell("A", m);
  EXPECT_EQ(b.lookup("A").view->value_array().data(), m.vals().data());
  EXPECT_EQ(b.lookup("A").view->level(1).describe().len, m.rowlen().data());
}

}  // namespace
}  // namespace bernoulli::formats
