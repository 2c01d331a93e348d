// Declarative format specifications: a user teaches the compiler a new
// format with a textual spec over raw arrays, and the ordinary pipeline
// plans/runs/emits against it.
#include <gtest/gtest.h>

#include "compiler/loopnest.hpp"
#include "formats/bsr.hpp"
#include "formats/csr.hpp"
#include "formats/sell.hpp"
#include "relation/array_views.hpp"
#include "relation/bsr_view.hpp"
#include "relation/format_spec.hpp"
#include "relation/sell_view.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace bernoulli::relation {
namespace {

using formats::Coo;
using formats::Csr;
using formats::TripletBuilder;

Coo sample(index_t n, index_t nnz, std::uint64_t seed) {
  SplitMix64 rng(seed);
  TripletBuilder b(n, n);
  for (index_t k = 0; k < nnz; ++k)
    b.add(rng.next_index(n), rng.next_index(n), rng.next_double(-1, 1));
  return std::move(b).build();
}

// Names a CSR matrix's raw arrays in a FormatArrays bundle (borrowed:
// `m` must outlive every view built from it).
FormatArrays csr_arrays(const Csr& m) {
  FormatArrays arrays;
  arrays.index_arrays["ROWPTR"] = m.rowptr();
  arrays.index_arrays["COLIND"] = m.colind();
  arrays.value_arrays["VALS"] = m.vals();
  return arrays;
}

std::string csr_spec(index_t rows) {
  return "format A {\n"
         "  level i: dense(" + std::to_string(rows) + ");\n"
         "  level j: compressed(ptr=ROWPTR, ind=COLIND) sorted;\n"
         "  value VALS;\n"
         "}\n";
}

TEST(FormatSpec, ParsesCsrAndMatchesBuiltinView) {
  Coo coo = sample(12, 50, 1);
  Csr m = Csr::from_coo(coo);
  FormatArrays arrays = csr_arrays(m);
  GenericFormatView v(csr_spec(12), arrays);

  EXPECT_EQ(v.name(), "A");
  EXPECT_EQ(v.arity(), 2);
  EXPECT_EQ(v.level_vars(), (std::vector<std::string>{"i", "j"}));
  EXPECT_TRUE(v.level(0).properties().dense);
  EXPECT_TRUE(v.level(1).properties().sorted);
  EXPECT_EQ(v.level(1).properties().search_cost, SearchCost::kLog);

  CsrView builtin("A", m);
  for (index_t i = 0; i < 12; ++i)
    for (index_t j = 0; j < 12; ++j)
      EXPECT_EQ(v.level(1).search(i, j), builtin.level(1).search(i, j));
}

TEST(FormatSpec, CompilesThroughThePipeline) {
  const index_t n = 16;
  Coo coo = sample(n, 70, 2);
  Csr m = Csr::from_coo(coo);
  FormatArrays arrays = csr_arrays(m);
  GenericFormatView aview(csr_spec(n), arrays);

  SplitMix64 rng(3);
  Vector x(static_cast<std::size_t>(n));
  for (auto& v : x) v = rng.next_double(-1, 1);
  Vector y(static_cast<std::size_t>(n), 0.0), y_ref(y.size());
  formats::spmv(m, x, y_ref);

  compiler::Bindings b;
  b.bind_view("A", &aview, {0, 1}, /*sparse=*/true);
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));
  compiler::LoopNest nest{{{"i", n}, {"j", n}},
                          {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}},
                           1.0}};
  compiler::CompiledKernel k = compiler::compile(nest, b);
  k.run();
  for (std::size_t i = 0; i < y.size(); ++i) ASSERT_NEAR(y[i], y_ref[i], 1e-12);
  // The spec's levels emit as C like the built-in CSR view's.
  EXPECT_NE(k.emit("spmv_spec").find("int spmv_spec("), std::string::npos);
}

// y += A x over bindings that hold A, X and Y.
Vector run_spmv(compiler::Bindings& b, index_t n, const Vector& x) {
  Vector y(static_cast<std::size_t>(n), 0.0);
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));
  compiler::LoopNest nest{{{"i", n}, {"j", n}},
                          {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}},
                           1.0}};
  compiler::compile(nest, b).run();
  return y;
}

TEST(FormatSpec, BorrowsNamedVectorsAndRunsBitwise) {
  // A user spec over the user's own named vectors: the view reads them in
  // place (no copy), and the kernel over it is bitwise the built-in CSR
  // view's.
  const index_t n = 20;
  Csr m = Csr::from_coo(sample(n, 90, 6));
  const std::vector<index_t> rowptr(m.rowptr().begin(), m.rowptr().end());
  const std::vector<index_t> colind(m.colind().begin(), m.colind().end());
  const Vector vals(m.vals().begin(), m.vals().end());
  FormatArrays arrays;
  arrays.index_arrays["ROWPTR"] = rowptr;
  arrays.index_arrays["COLIND"] = colind;
  arrays.value_arrays["VALS"] = vals;
  GenericFormatView view(csr_spec(n), arrays);
  arrays = {};  // the bundle may go; the named vectors must not

  EXPECT_EQ(view.value_array().data(), vals.data());
  const LevelDescriptor d = view.level(1).describe();
  EXPECT_EQ(d.ptr, rowptr.data());
  EXPECT_EQ(d.ind, colind.data());

  SplitMix64 rng(7);
  Vector x(static_cast<std::size_t>(n));
  for (auto& v : x) v = rng.next_double(-1, 1);
  compiler::Bindings user, builtin;
  user.bind_view("A", &view, {0, 1}, /*sparse=*/true);
  builtin.bind_csr("A", m);
  const Vector y = run_spmv(user, n, x);
  const Vector y_ref = run_spmv(builtin, n, x);
  for (std::size_t i = 0; i < y.size(); ++i) ASSERT_EQ(y[i], y_ref[i]) << i;
}

TEST(FormatSpec, UnsortedLevelGetsLinearSearch) {
  Coo coo = sample(8, 20, 4);
  Csr m = Csr::from_coo(coo);
  FormatArrays arrays = csr_arrays(m);
  GenericFormatView v(
      "format B { level i: dense(8); "
      "level j: compressed(ptr=ROWPTR, ind=COLIND) unsorted; value VALS; }",
      arrays);
  EXPECT_FALSE(v.level(1).properties().sorted);
  EXPECT_EQ(v.level(1).properties().search_cost, SearchCost::kLinear);
  // Search must still be correct.
  CsrView builtin("B", m);
  for (index_t i = 0; i < 8; ++i)
    for (index_t j = 0; j < 8; ++j)
      EXPECT_EQ(v.level(1).search(i, j), builtin.level(1).search(i, j));
}

TEST(FormatSpec, ListAndFunctionLevels) {
  const std::vector<index_t> ind = {2, 5, 9};
  const std::vector<index_t> map = {1, 0, 2};
  FormatArrays arrays;
  arrays.index_arrays["IND"] = ind;
  arrays.index_arrays["MAP"] = map;
  GenericFormatView list_view(
      "format L { level i: list(ind=IND) sorted; }", arrays);
  EXPECT_EQ(list_view.level(0).search(0, 5), 1);
  EXPECT_EQ(list_view.level(0).search(0, 4), -1);
  EXPECT_FALSE(list_view.has_value());

  GenericFormatView fn_view(
      "format P { level i: dense(3); level ip: function(map=MAP); }", arrays);
  EXPECT_EQ(fn_view.level(1).search(0, 1), 0);
  EXPECT_EQ(fn_view.level(1).search(0, 0), -1);
}

TEST(FormatSpec, ParsesBlockedLevelAndSearchesThroughBlocks) {
  // 8x8 with full 4x4 blocks at block (0,0) and (1,1): every in-block
  // probe must land on the block-row-major value slot, every out-of-block
  // probe must miss.
  TripletBuilder tb(8, 8);
  for (index_t r = 0; r < 4; ++r)
    for (index_t c = 0; c < 4; ++c) {
      tb.add(r, c, 1.0 + r * 4 + c);
      tb.add(4 + r, 4 + c, -(1.0 + r * 4 + c));
    }
  Coo coo = std::move(tb).build();
  formats::Bsr m = formats::Bsr::from_coo(coo, 4);

  FormatArrays arrays;
  arrays.index_arrays["BROWPTR"] = m.browptr();
  arrays.index_arrays["BCOLIND"] = m.bcolind();
  arrays.value_arrays["BVALS"] = m.vals();
  GenericFormatView v(
      "format A { level i: dense(8); "
      "level j: blocked(r=4, c=4, ptr=BROWPTR, ind=BCOLIND) sorted; "
      "value BVALS; }",
      arrays);

  EXPECT_EQ(v.arity(), 2);
  EXPECT_EQ(descriptor_text(v.level(1).describe()), "blocked 4x4");
  for (index_t i = 0; i < 8; ++i)
    for (index_t j = 0; j < 8; ++j) {
      const index_t pos = v.level(1).search(i, j);
      if ((i < 4) == (j < 4)) {
        ASSERT_GE(pos, 0) << i << "," << j;
        EXPECT_EQ(m.vals()[static_cast<std::size_t>(pos)], m.at(i, j))
            << i << "," << j;
      } else {
        EXPECT_EQ(pos, -1) << i << "," << j;
      }
    }
}

TEST(FormatSpec, ParsesSlicedLevelAndMatchesCsrSearch) {
  Coo coo = sample(10, 30, 5);
  formats::Sell m = formats::Sell::from_coo(coo, 4, 8);
  formats::Csr csr = formats::Csr::from_coo(coo);

  FormatArrays arrays;
  arrays.index_arrays["ROWBASE"] = m.rowbase();
  arrays.index_arrays["ROWLEN"] = m.rowlen();
  arrays.index_arrays["SIND"] = m.colind();
  arrays.value_arrays["SVALS"] = m.vals();
  GenericFormatView v(
      "format S { level i: dense(10); "
      "level j: sliced(chunk=4, sigma=8, base=ROWBASE, len=ROWLEN, ind=SIND) "
      "sorted; value SVALS; }",
      arrays);

  EXPECT_EQ(descriptor_text(v.level(1).describe()), "sliced C=4 sigma=8");
  // Same hits and misses as CSR, with the hit's lane slot holding the
  // same value — padding lanes are unreachable through search.
  CsrView builtin("S", csr);
  for (index_t i = 0; i < 10; ++i)
    for (index_t j = 0; j < 10; ++j) {
      const index_t pos = v.level(1).search(i, j);
      const index_t ref = builtin.level(1).search(i, j);
      if (ref < 0) {
        EXPECT_EQ(pos, -1) << i << "," << j;
      } else {
        ASSERT_GE(pos, 0) << i << "," << j;
        EXPECT_EQ(m.vals()[static_cast<std::size_t>(pos)],
                  csr.vals()[static_cast<std::size_t>(ref)])
            << i << "," << j;
      }
    }
}

TEST(FormatSpec, BlockedAndSlicedErrorsAreAnchored) {
  const std::vector<index_t> ptr = {0, 1}, ind = {0}, base = {0, 1},
                             len = {1, 1}, len3 = {1, 1, 1};
  FormatArrays arrays;
  arrays.index_arrays["PTR"] = ptr;
  arrays.index_arrays["IND"] = ind;
  arrays.index_arrays["BASE"] = base;
  arrays.index_arrays["LEN"] = len;
  arrays.index_arrays["LEN3"] = len3;

  auto expect_error = [&](const std::string& spec, const char* line,
                          const char* needle) {
    try {
      GenericFormatView v(spec, arrays);
      FAIL() << "expected throw mentioning: " << needle;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(line), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };

  // Zero/negative block dims, anchored to the offending line.
  expect_error(
      "format X {\n  level i: dense(4);\n"
      "  level j: blocked(r=0, c=4, ptr=PTR, ind=IND);\n}",
      "line 3", "positive block dims");
  // Block tiling must cover the dense parent exactly.
  expect_error(
      "format X {\n  level i: dense(5);\n"
      "  level j: blocked(r=4, c=4, ptr=PTR, ind=IND);\n}",
      "line 3", "covers 4 rows but parent level is dense(5)");
  // Unknown array names are echoed back.
  expect_error(
      "format X {\n  level i: dense(4);\n"
      "  level j: blocked(r=4, c=4, ptr=NOPE, ind=IND);\n}",
      "line 3", "NOPE");
  // chunk must be positive.
  expect_error(
      "format X {\n  level i: dense(2);\n"
      "  level j: sliced(chunk=0, sigma=8, base=BASE, len=LEN, ind=IND);\n}",
      "line 3", "positive chunk");
  // sigma must tile into whole chunks.
  expect_error(
      "format X {\n  level i: dense(2);\n"
      "  level j: sliced(chunk=4, sigma=6, base=BASE, len=LEN, ind=IND);\n}",
      "line 3", "sigma must be a positive multiple of chunk, got sigma=6");
  // base and len must agree on the row count.
  expect_error(
      "format X {\n  level i: dense(2);\n"
      "  level j: sliced(chunk=4, sigma=8, base=BASE, len=LEN3, ind=IND);\n}",
      "line 3", "base and len must have one entry per row");
}

TEST(FormatSpec, ErrorsAreAnchored) {
  FormatArrays arrays;
  try {
    GenericFormatView v("format X {\n  level i: compressed(ptr=NOPE, ind=Q);\n}",
                        arrays);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("NOPE"), std::string::npos);
  }
  EXPECT_THROW(GenericFormatView("format Y { }", arrays), Error);
  EXPECT_THROW(GenericFormatView("format Z { level i: bogus(3); }", arrays),
               Error);
  EXPECT_THROW(GenericFormatView("format W { level i: dense(x); }", arrays),
               Error);
}

// Builds a view that must be rejected, and checks the message names the
// line and carries `needle`.
void expect_rejected(const std::string& spec, const FormatArrays& arrays,
                     const char* line, const char* needle) {
  try {
    GenericFormatView v(spec, arrays);
    ADD_FAILURE() << "accepted: " << spec;
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(line), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

// ---- Numbers: decimal digits only, within index_t ---------------------

TEST(FormatSpecNumbers, RejectsTrailingCharacters) {
  expect_rejected("format X {\n  level i: dense(12abc);\n}", {}, "line 2",
                  "needs a non-negative number, got '12abc'");
}

TEST(FormatSpecNumbers, RejectsNegativeValues) {
  expect_rejected("format X {\n  level i: dense(-3);\n}", {}, "line 2",
                  "needs a non-negative number, got '-3'");
  const std::vector<index_t> ptr = {0, 1}, ind = {0};
  FormatArrays arrays;
  arrays.index_arrays["PTR"] = ptr;
  arrays.index_arrays["IND"] = ind;
  expect_rejected(
      "format X {\n  level i: dense(2);\n"
      "  level j: blocked(r=-2, c=2, ptr=PTR, ind=IND);\n}",
      arrays, "line 3", "blocked() r needs a non-negative number");
}

TEST(FormatSpecNumbers, RejectsValuesBeyondIndexType) {
  // 2^32 + 2 used to wrap to an extent of 2.
  expect_rejected("format X {\n  level i: dense(4294967298);\n}", {},
                  "line 2", "does not fit the 32-bit index type");
  expect_rejected("format X {\n  level i: dense(2147483648);\n}", {},
                  "line 2", "dense() extent = 2147483648");
  expect_rejected("format X {\n  level i: dense(99999999999999999999999);\n}",
                  {}, "line 2", "does not fit the 32-bit index type");
  // The largest index_t still parses.
  GenericFormatView big("format X { level i: dense(2147483647); }", {});
  EXPECT_EQ(big.level(0).expected_size(), 2147483647.0);
}

// ---- Arrays checked against their levels at construction --------------

TEST(FormatSpecArrays, PtrLengthMustMatchTheParentExtent) {
  // |P| = 3 under dense(6): the first enumerate(3, ...) would read past P.
  const std::vector<index_t> ptr = {0, 1, 2}, ind = {0, 1};
  FormatArrays arrays;
  arrays.index_arrays["P"] = ptr;
  arrays.index_arrays["J"] = ind;
  expect_rejected(
      "format X {\n  level i: dense(6);\n"
      "  level j: compressed(ptr=P, ind=J);\n}",
      arrays, "line 3", "ptr array has 3 entries, the parent level needs 7");
}

TEST(FormatSpecArrays, PtrMustEndWithinInd) {
  const std::vector<index_t> ptr = {0, 2, 5}, ind = {0, 1, 2, 3};
  FormatArrays arrays;
  arrays.index_arrays["P"] = ptr;
  arrays.index_arrays["J"] = ind;
  expect_rejected(
      "format X {\n  level i: dense(2);\n"
      "  level j: compressed(ptr=P, ind=J);\n}",
      arrays, "line 3", "ptr array ends at 5 but the ind array has 4");
}

TEST(FormatSpecArrays, PtrMustNotDecrease) {
  const std::vector<index_t> ptr = {0, 3, 1, 4}, ind = {0, 1, 2, 3};
  FormatArrays arrays;
  arrays.index_arrays["P"] = ptr;
  arrays.index_arrays["J"] = ind;
  expect_rejected(
      "format X {\n  level i: dense(3);\n"
      "  level j: compressed(ptr=P, ind=J);\n}",
      arrays, "line 3", "ptr array decreases at entry 2");
}

TEST(FormatSpecArrays, BlockedPtrIsCheckedPerBlockRow) {
  // dense(4) tiles into two block rows of 2, but the last block row's
  // segment ends past the three stored blocks.
  const std::vector<index_t> ptr = {0, 1, 4}, ind = {0, 1, 0};
  FormatArrays arrays;
  arrays.index_arrays["P"] = ptr;
  arrays.index_arrays["J"] = ind;
  expect_rejected(
      "format X {\n  level i: dense(4);\n"
      "  level j: blocked(r=2, c=2, ptr=P, ind=J);\n}",
      arrays, "line 3", "ptr array ends at 4 but the ind array has 3");
}

TEST(FormatSpecArrays, FunctionMapLengthMustMatchTheParentExtent) {
  const std::vector<index_t> map = {1, 0};
  FormatArrays arrays;
  arrays.index_arrays["M"] = map;
  expect_rejected(
      "format X {\n  level i: dense(3);\n  level ip: function(map=M);\n}",
      arrays, "line 3", "function() map has 2 entries, the parent level has 3");
}

TEST(FormatSpecArrays, SlicedRowsMustEndWithinInd) {
  // Row 1's second lane sits at 1 + 1*2 = 3, past |ind| = 3.
  const std::vector<index_t> base = {0, 1}, len = {1, 2}, ind = {0, 1, 2};
  FormatArrays arrays;
  arrays.index_arrays["B"] = base;
  arrays.index_arrays["L"] = len;
  arrays.index_arrays["I"] = ind;
  expect_rejected(
      "format X {\n  level i: dense(2);\n"
      "  level j: sliced(chunk=2, sigma=2, base=B, len=L, ind=I);\n}",
      arrays, "line 3", "row 1 reaches position 3 but the ind array has 3");
  // One len entry per parent row.
  expect_rejected(
      "format X {\n  level i: dense(3);\n"
      "  level j: sliced(chunk=2, sigma=2, base=B, len=L, ind=I);\n}",
      arrays, "line 3", "sliced() len has 2 entries, the parent level has 3");
}

TEST(FormatSpecArrays, ValueArrayMustCoverTheLeafPositions) {
  const std::vector<index_t> ptr = {0, 2, 3}, ind = {0, 1, 1};
  const Vector vals = {1.0, 2.0};
  FormatArrays arrays;
  arrays.index_arrays["P"] = ptr;
  arrays.index_arrays["J"] = ind;
  arrays.value_arrays["V"] = vals;
  expect_rejected(
      "format X {\n  level i: dense(2);\n"
      "  level j: compressed(ptr=P, ind=J);\n  value V;\n}",
      arrays, "line 4", "value array 'V' has 2 entries, the leaf level "
                        "addresses 3 positions");
}

TEST(FormatSpecArrays, BuiltinBlockedAndSlicedViewsPassTheChecks) {
  // BsrView/SellView are specs over the matrix's own arrays, so they run
  // the same checks; well-formed matrices pass them.
  Coo coo = sample(12, 40, 9);
  const formats::Bsr bsr = formats::Bsr::from_coo(coo, 4);
  const formats::Sell sell = formats::Sell::from_coo(coo, 4, 8);
  EXPECT_NO_THROW(BsrView("A", bsr));
  EXPECT_NO_THROW(SellView("A", sell));
}

}  // namespace
}  // namespace bernoulli::relation
