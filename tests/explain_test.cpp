// EXPLAIN renderer tests: lock the text schema with a golden transcript,
// then sweep every storage binding the planner supports and require that
// both the text and JSON forms render (and that the JSON actually parses)
// for every plan the planner produces. Also checks that the executor
// counters agree with the plan's ground truth (tuples == nnz for matvec).
#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "compiler/loopnest.hpp"
#include "formats/formats.hpp"
#include "formats/sparse_vector.hpp"
#include "relation/array_views.hpp"
#include "relation/hash_index.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"

namespace bernoulli::compiler {
namespace {

using formats::Coo;
using formats::TripletBuilder;

// ---- minimal recursive-descent JSON validity checker ----------------------
// Accepts exactly RFC 8259 JSON; returns false on trailing garbage.

struct JsonCursor {
  const std::string& s;
  std::size_t i = 0;

  void ws() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\n' || s[i] == '\t' ||
                            s[i] == '\r'))
      ++i;
  }
  bool eat(char c) {
    ws();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return false;
  }
  bool lit(const char* word) {
    std::size_t n = std::char_traits<char>::length(word);
    if (s.compare(i, n, word) != 0) return false;
    i += n;
    return true;
  }
  bool string() {
    if (!eat('"')) return false;
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\') {
        ++i;
        if (i >= s.size()) return false;
      }
      ++i;
    }
    return eat('"');
  }
  bool number() {
    ws();
    std::size_t start = i;
    if (i < s.size() && s[i] == '-') ++i;
    while (i < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[i])) || s[i] == '.' ||
            s[i] == 'e' || s[i] == 'E' || s[i] == '+' || s[i] == '-'))
      ++i;
    return i > start;
  }
  bool value() {
    ws();
    if (i >= s.size()) return false;
    switch (s[i]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return lit("true");
      case 'f': return lit("false");
      case 'n': return lit("null");
      default: return number();
    }
  }
  bool object() {
    if (!eat('{')) return false;
    if (eat('}')) return true;
    do {
      ws();
      if (!string() || !eat(':') || !value()) return false;
    } while (eat(','));
    return eat('}');
  }
  bool array() {
    if (!eat('[')) return false;
    if (eat(']')) return true;
    do {
      if (!value()) return false;
    } while (eat(','));
    return eat(']');
  }
};

bool valid_json(const std::string& s) {
  JsonCursor c{s};
  if (!c.value()) return false;
  c.ws();
  return c.i == s.size();
}

// ---- fixtures -------------------------------------------------------------

LoopNest matvec_nest(index_t rows, index_t cols) {
  return {{{"i", rows}, {"j", cols}},
          {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
}

TEST(Explain, GoldenCsrMatvecText) {
  TripletBuilder tb(3, 3);
  tb.add(0, 0, 1.0);
  tb.add(0, 2, 2.0);
  tb.add(1, 1, 3.0);
  tb.add(2, 0, 4.0);
  tb.add(2, 2, 5.0);
  Coo coo = std::move(tb).build();
  formats::Csr csr = formats::Csr::from_coo(coo);
  Vector x(3, 1.0), y(3, 0.0);
  Bindings b;
  b.bind_csr("A", csr);
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));
  auto k = compile(matvec_nest(3, 3), b);

  // The exact transcript is the contract: docs/ARCHITECTURE.md and the
  // README quote this format. Update both if you change the renderer.
  const char* golden =
      "plan: 2 levels, est. total cost 24\n"
      "for i: enumerate\n"
      "  driver I[0] binds i  (dense, sorted, search O(1), E[n]=3, filters, "
      "order-free)\n"
      "  probe  Y[0] binds i  (dense, sorted, search O(1), E[n]=3, writes)\n"
      "  probe  A[0] binds i  (dense, sorted, search O(1), E[n]=3, filters)\n"
      "  est 3 bindings, cost 9 per outer iteration\n"
      "for j: enumerate\n"
      "  driver A[1] binds j  (sorted, search O(log n), E[n]=1.66667, "
      "filters)\n"
      "  probe  I[1] binds j  (dense, sorted, search O(1), E[n]=3, filters, "
      "order-free)\n"
      "  probe  X[0] binds j  (dense, sorted, search O(1), E[n]=3)\n"
      "  est 1.66667 bindings, cost 5 per outer iteration\n"
      "parallel: outer level i chunked across threads (disjoint output "
      "rows)\n"
      "specialize: every level enumerates a flat shape and every probe "
      "lowers to inline checks or binary searches\n"
      "level 0: dense 3\n"
      "level 1: compressed\n";
  EXPECT_EQ(k.explain(), golden);

  std::string j = k.explain_json();
  EXPECT_TRUE(valid_json(j)) << j;
  EXPECT_NE(j.find("\"schema\":\"bernoulli.explain.v1\""), std::string::npos);
  EXPECT_NE(j.find("\"total_cost\":24"), std::string::npos);
  EXPECT_NE(j.find("\"method\":\"enumerate\""), std::string::npos);
  EXPECT_NE(j.find("\"descriptors\":[\"dense 3\",\"compressed\"]"),
            std::string::npos);
  // Pretty-printed form must parse too.
  EXPECT_TRUE(valid_json(k.explain_json(2)));
}

TEST(Explain, DescriptorFooterNamesBlockedAndSlicedLevels) {
  // An 8x8 block-dense matrix: 4x4 BCSR stores two block rows; SELL-C-s
  // slices the same matrix into chunks of 4 sorted within sigma=8 windows.
  TripletBuilder tb(8, 8);
  for (index_t bi : {0, 4})
    for (index_t r = 0; r < 4; ++r)
      for (index_t c = 0; c < 4; ++c)
        tb.add(bi + r, bi + c, 1.0 + bi + r + c);
  Coo coo = std::move(tb).build();
  Vector x(8, 1.0), y(8, 0.0);
  {
    formats::Bsr bsr = formats::Bsr::from_coo(coo, 4);
    Bindings b;
    b.bind_bsr("A", bsr);
    b.bind_dense_vector("X", ConstVectorView(x));
    b.bind_dense_vector("Y", VectorView(y));
    auto k = compile(matvec_nest(8, 8), b);
    const std::string text = k.explain();
    EXPECT_NE(text.find("level 1: blocked 4x4\n"), std::string::npos) << text;
    EXPECT_NE(k.explain_json().find("\"blocked 4x4\""), std::string::npos);
  }
  {
    formats::Sell sell = formats::Sell::from_coo(coo, 4, 8);
    Bindings b;
    b.bind_sell("A", sell);
    b.bind_dense_vector("X", ConstVectorView(x));
    b.bind_dense_vector("Y", VectorView(y));
    auto k = compile(matvec_nest(8, 8), b);
    const std::string text = k.explain();
    EXPECT_NE(text.find("level 1: sliced C=4 sigma=8\n"), std::string::npos)
        << text;
    EXPECT_NE(k.explain_json().find("\"sliced C=4 sigma=8\""),
              std::string::npos);
  }
}

TEST(Explain, MergeJoinRendered) {
  TripletBuilder tb(6, 6);
  SplitMix64 rng(11);
  for (int k = 0; k < 14; ++k)
    tb.add(rng.next_index(6), rng.next_index(6), rng.next_double(0.5, 1.5));
  Coo coo = std::move(tb).build();
  formats::Csr csr = formats::Csr::from_coo(coo);
  formats::SparseVector sx(6, {{1, 2.0}, {4, -1.0}});
  Vector y(6, 0.0);
  Bindings b;
  b.bind_csr("A", csr);
  b.bind_sparse_vector("X", sx);
  b.bind_dense_vector("Y", VectorView(y));
  auto k = compile(matvec_nest(6, 6), b);

  std::string text = k.explain();
  EXPECT_NE(text.find("merge-join of 2"), std::string::npos) << text;
  std::string j = k.explain_json();
  EXPECT_TRUE(valid_json(j)) << j;
  EXPECT_NE(j.find("\"method\":\"merge\""), std::string::npos);
}

// The parallel footer (and the JSON note) name how a plan runs threaded:
// row chunks for CRS's row walk, owner-computes for CCS's column walk
// into row-indexed Y.
TEST(Explain, ParallelFooterNamesTheMode) {
  TripletBuilder tb(4, 5);
  tb.add(0, 1, 1.0);
  tb.add(2, 4, 2.0);
  tb.add(3, 0, 3.0);
  Coo coo = std::move(tb).build();
  formats::Csr csr = formats::Csr::from_coo(coo);
  formats::Ccs ccs = formats::Ccs::from_coo(coo);
  Vector x(5, 1.0), y(4, 0.0);
  for (bool column_major : {false, true}) {
    Bindings b;
    if (column_major)
      b.bind_ccs("A", ccs);
    else
      b.bind_csr("A", csr);
    b.bind_dense_vector("X", ConstVectorView(x));
    b.bind_dense_vector("Y", VectorView(y));
    auto k = compile(matvec_nest(4, 5), b);
    const std::string text = k.explain();
    const std::string j = k.explain_json();
    if (column_major) {
      EXPECT_NE(text.find("parallel: owner-computes — rows of Y split "
                          "across T threads; each walks its segment of "
                          "every column\n"),
                std::string::npos)
          << text;
      EXPECT_NE(j.find("\"ok\":true,\"note\":\"owner-computes — rows "
                       "of Y split"),
                std::string::npos)
          << j;
    } else {
      EXPECT_NE(text.find("parallel: outer level i chunked across threads"),
                std::string::npos)
          << text;
      EXPECT_NE(j.find("\"ok\":true,\"note\":\"outer level i chunked"),
                std::string::npos)
          << j;
    }
  }
}

// Every storage the planner sweep exercises must EXPLAIN in both forms.
enum class Storage { kCsr, kCcs, kCoo, kEll, kDenseMatrix, kCsrHashed };

class ExplainSweep : public ::testing::TestWithParam<Storage> {};

TEST_P(ExplainSweep, RendersTextAndJson) {
  const index_t rows = 9, cols = 7, nnz = 23;
  SplitMix64 rng(5);
  TripletBuilder tb(rows, cols);
  for (index_t k = 0; k < nnz; ++k)
    tb.add(rng.next_index(rows), rng.next_index(cols),
           rng.next_double(-1, 1));
  Coo coo = std::move(tb).build();

  Vector x(static_cast<std::size_t>(cols), 1.0);
  Vector y(static_cast<std::size_t>(rows), 0.0);
  formats::Csr csr = formats::Csr::from_coo(coo);
  formats::Ccs ccs = formats::Ccs::from_coo(coo);
  formats::Ell ell = formats::Ell::from_coo(coo);
  formats::Dense dm = formats::Dense::from_coo(coo);
  relation::CsrView csr_base("A", csr);
  relation::HashIndexedView hashed(csr_base, 1);

  Bindings b;
  switch (GetParam()) {
    case Storage::kCsr: b.bind_csr("A", csr); break;
    case Storage::kCcs: b.bind_ccs("A", ccs); break;
    case Storage::kCoo: b.bind_coo("A", coo); break;
    case Storage::kEll: b.bind_ell("A", ell); break;
    case Storage::kDenseMatrix: b.bind_dense_matrix("A", dm); break;
    case Storage::kCsrHashed:
      b.bind_view("A", &hashed, {0, 1}, /*sparse=*/true);
      break;
  }
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));
  auto k = compile(matvec_nest(rows, cols), b);

  std::string text = k.explain();
  EXPECT_EQ(text.rfind("plan: 2 levels", 0), 0u) << text;
  EXPECT_NE(text.find("for i:"), std::string::npos) << text;
  EXPECT_NE(text.find("for j:"), std::string::npos) << text;
  EXPECT_NE(text.find("est "), std::string::npos) << text;

  std::string j = k.explain_json();
  EXPECT_TRUE(valid_json(j)) << j;
  EXPECT_NE(j.find("\"schema\":\"bernoulli.explain.v1\""), std::string::npos);
  EXPECT_NE(j.find("\"var\":\"i\""), std::string::npos);
  EXPECT_NE(j.find("\"var\":\"j\""), std::string::npos);
  EXPECT_TRUE(valid_json(k.explain_json(4)));
}

INSTANTIATE_TEST_SUITE_P(AllStorages, ExplainSweep,
                         ::testing::Values(Storage::kCsr, Storage::kCcs,
                                           Storage::kCoo, Storage::kEll,
                                           Storage::kDenseMatrix,
                                           Storage::kCsrHashed));

// The estimate the plan prints and the work the executor counts must talk
// about the same thing: for a matvec with dense X every stored nonzero of
// A produces exactly one action tuple.
TEST(Explain, CountersMatchPlanGroundTruth) {
  const index_t n = 12;
  SplitMix64 rng(7);
  TripletBuilder tb(n, n);
  for (int k = 0; k < 30; ++k)
    tb.add(rng.next_index(n), rng.next_index(n), rng.next_double(-1, 1));
  Coo coo = std::move(tb).build();  // builder dedupes: nnz() is exact
  formats::Csr csr = formats::Csr::from_coo(coo);
  Vector x(static_cast<std::size_t>(n), 1.0);
  Vector y(static_cast<std::size_t>(n), 0.0);
  Bindings b;
  b.bind_csr("A", csr);
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));
  auto k = compile(matvec_nest(n, n), b);

  support::metrics_reset();
  k.run();
  auto snap = support::metrics_snapshot();
  EXPECT_EQ(snap.counts["executor.runs"], 1);
  EXPECT_EQ(snap.counts["executor.tuples"], csr.nnz());
  EXPECT_EQ(snap.counts["executor.probe_misses"], 0);
}

}  // namespace
}  // namespace bernoulli::compiler
