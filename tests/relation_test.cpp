// Direct tests of the relation views and their access-method contracts:
// properties must be honest (sortedness, denseness, search cost),
// enumerate/search must agree with each other on every view, and the
// virtual access methods must agree with the descriptor walks the linked
// engine uses (LevelProtocol.*).
#include <gtest/gtest.h>

#include <algorithm>

#include "formats/formats.hpp"
#include "formats/sparse_vector.hpp"
#include "relation/array_views.hpp"
#include "relation/bsr_view.hpp"
#include "relation/ell_view.hpp"
#include "relation/format_spec.hpp"
#include "relation/hash_index.hpp"
#include "relation/jds_view.hpp"
#include "relation/query.hpp"
#include "relation/sell_view.hpp"
#include "relation/spa_view.hpp"
#include "relation/sparse_vector_view.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace bernoulli::relation {
namespace {

using formats::Coo;
using formats::TripletBuilder;

Coo sample_matrix() {
  TripletBuilder b(4, 5);
  b.add(0, 1, 1.0);
  b.add(0, 4, 2.0);
  b.add(2, 0, 3.0);
  b.add(2, 3, 4.0);
  b.add(3, 3, 5.0);
  return std::move(b).build();
}

// Checks the enumerate/search contract at one level under one parent:
// every enumerated (idx, pos) is found by search; absent indices miss.
void check_level_contract(const IndexLevel& level, index_t parent,
                          index_t probe_range) {
  std::vector<std::pair<index_t, index_t>> items;
  index_t prev = -1;
  level.enumerate(parent, [&](index_t idx, index_t pos) {
    if (level.properties().sorted) { EXPECT_GT(idx, prev); }
    prev = idx;
    items.emplace_back(idx, pos);
    return true;
  });
  for (auto [idx, pos] : items) EXPECT_EQ(level.search(parent, idx), pos);
  for (index_t i = 0; i < probe_range; ++i) {
    bool enumerated = false;
    for (auto [idx, _] : items)
      if (idx == i) enumerated = true;
    if (!enumerated) { EXPECT_EQ(level.search(parent, i), -1) << "idx " << i; }
  }
}

TEST(Views, CsrContract) {
  auto csr = formats::Csr::from_coo(sample_matrix());
  CsrView v("A", csr);
  EXPECT_EQ(v.arity(), 2);
  EXPECT_TRUE(v.level(0).properties().dense);
  EXPECT_EQ(v.level(0).properties().search_cost, SearchCost::kConstant);
  EXPECT_TRUE(v.level(1).properties().sorted);
  EXPECT_FALSE(v.level(1).properties().dense);
  for (index_t i = 0; i < 4; ++i) check_level_contract(v.level(1), i, 5);
  // Values address through the leaf position.
  index_t pos = v.level(1).search(2, 3);
  ASSERT_GE(pos, 0);
  EXPECT_DOUBLE_EQ(v.value_at(pos), 4.0);
}

TEST(Views, CcsContract) {
  auto ccs = formats::Ccs::from_coo(sample_matrix());
  CcsView v("A", ccs);
  for (index_t j = 0; j < 5; ++j) check_level_contract(v.level(1), j, 4);
  index_t pos = v.level(1).search(4, 0);  // column 4, row 0
  ASSERT_GE(pos, 0);
  EXPECT_DOUBLE_EQ(v.value_at(pos), 2.0);
}

TEST(Views, CooRowLevelIsSortedNotDense) {
  Coo m = sample_matrix();  // rows {0, 2, 3} stored; row 1 empty
  CooView v("A", m);
  EXPECT_TRUE(v.level(0).properties().sorted);
  EXPECT_FALSE(v.level(0).properties().dense);
  check_level_contract(v.level(0), 0, 4);
  EXPECT_EQ(v.level(0).search(0, 1), -1);  // empty row absent
}

TEST(Views, IntervalDense) {
  IntervalView v("I", {3, 7});
  EXPECT_EQ(v.arity(), 2);
  check_level_contract(v.level(0), 0, 3);
  check_level_contract(v.level(1), 0, 7);
  EXPECT_EQ(v.level(1).search(0, 7), -1);
  EXPECT_EQ(v.level(1).search(0, -1), -1);
}

TEST(Views, DenseVectorWritable) {
  Vector x{1.0, 2.0, 3.0};
  DenseVectorView v("X", VectorView(x));
  EXPECT_TRUE(v.writable());
  v.value_add(1, 0.5);
  EXPECT_DOUBLE_EQ(x[1], 2.5);
  v.value_set(0, -1.0);
  EXPECT_DOUBLE_EQ(x[0], -1.0);

  DenseVectorView r("X", ConstVectorView(x));
  EXPECT_FALSE(r.writable());
  EXPECT_THROW(r.value_add(0, 1.0), Error);
}

TEST(Views, SparseVectorContract) {
  formats::SparseVector sv(10, {{2, 1.0}, {5, 2.0}, {9, 3.0}});
  SparseVectorView v("X", sv);
  check_level_contract(v.level(0), 0, 10);
  EXPECT_DOUBLE_EQ(v.value_at(v.level(0).search(0, 5)), 2.0);
}

TEST(Views, PermutationBothDirections) {
  PermutationView v("P", {2, 0, 1});
  // Forward: the single child of parent position i is perm[i].
  EXPECT_EQ(v.level(1).search(0, 2), 0);
  EXPECT_EQ(v.level(1).search(0, 1), -1);
  EXPECT_EQ(v.iperm()[2], 0);
  // Enumerating parent 1 yields exactly (perm[1], 1).
  int count = 0;
  v.level(1).enumerate(1, [&](index_t idx, index_t pos) {
    EXPECT_EQ(idx, 0);
    EXPECT_EQ(pos, 1);
    ++count;
    return true;
  });
  EXPECT_EQ(count, 1);
  EXPECT_THROW(PermutationView("bad", {0, 0, 1}), Error);
}

TEST(Views, EnumerateEarlyStop) {
  IntervalView v("I", {100});
  int seen = 0;
  v.level(0).enumerate(0, [&](index_t, index_t) { return ++seen < 5; });
  EXPECT_EQ(seen, 5);
}

TEST(Query, ValidateCatchesMistakes) {
  IntervalView i("I", {4, 4});
  Vector y(4, 0.0);
  DenseVectorView yv("Y", VectorView(y));

  Query ok;
  ok.vars = {"i", "j"};
  ok.relations.push_back({&i, {"i", "j"}, true, false, true});
  ok.relations.push_back({&yv, {"i"}, false, true, false});
  EXPECT_NO_THROW(ok.validate());

  Query arity_mismatch = ok;
  arity_mismatch.relations[1].vars = {"i", "j"};
  EXPECT_THROW(arity_mismatch.validate(), Error);

  Query unknown_var = ok;
  unknown_var.relations[1].vars = {"k"};
  EXPECT_THROW(unknown_var.validate(), Error);

  Query dup_var = ok;
  dup_var.vars = {"i", "i"};
  EXPECT_THROW(dup_var.validate(), Error);

  Query uncovered;
  uncovered.vars = {"i", "j"};
  uncovered.relations.push_back({&yv, {"i"}, false, true, false});
  EXPECT_THROW(uncovered.validate(), Error);
}

TEST(Views, ValueArrayIsTheFormatsOwnStorage) {
  // A view borrows its value array: the leaf position addresses the
  // format's own VALS, with no copy in between.
  auto csr = formats::Csr::from_coo(sample_matrix());
  CsrView v("A", csr);
  EXPECT_EQ(v.value_array().data(), csr.vals().data());
  EXPECT_EQ(v.value_array().size(), csr.vals().size());
  Vector x(3, 0.0);
  DenseVectorView xv("X", VectorView(x));
  EXPECT_EQ(xv.value_array().data(), x.data());
  EXPECT_EQ(xv.value_array_mut().data(), x.data());
}

// ---- Level protocol: virtual access methods vs descriptor walks -------
// Every level answers enumerate/search/expected_size through virtual
// calls (the interpreter, the planner) and through begin_cursor and
// search_spec (the linked engine, the specializer). Both must agree on
// every parent, including on degenerate shapes.

// The flat probe a SearchSpec describes, evaluated the way the linked
// engine does; -2 for kVirtual (no flat form).
index_t flat_search(const SearchSpec& s, index_t parent, index_t idx) {
  using K = SearchSpec::Kind;
  auto find = [&](index_t lo, index_t hi) -> index_t {
    const index_t* it = std::lower_bound(s.ind + lo, s.ind + hi, idx);
    return it != s.ind + hi && *it == idx ? static_cast<index_t>(it - s.ind)
                                          : -1;
  };
  const auto p = static_cast<std::size_t>(parent);
  switch (s.kind) {
    case K::kIdentity: return idx >= 0 && idx < s.extent ? idx : -1;
    case K::kAffine:
      return idx >= 0 && idx < s.extent ? parent * s.stride + idx : -1;
    case K::kSegmentBinary: return find(s.ptr[p], s.ptr[p + 1]);
    case K::kListBinary: return find(0, s.extent);
    case K::kFunction: return s.map[p] == idx ? parent : -1;
    case K::kVirtual: break;
  }
  return -2;
}

// Walks every level of `v` over every parent position the level above
// enumerates (the root's only parent is 0) and checks: enumerate yields
// exactly the begin_cursor walk; search (and the flat search, where one
// exists) returns the first walked position of each index in
// [-1, max + 1] and -1 elsewhere; expected_size is the walked children
// per parent.
void check_protocol(const RelationView& v, const std::string& label) {
  SCOPED_TRACE(label);
  std::vector<index_t> parents = {0};
  for (index_t d = 0; d < v.arity(); ++d) {
    SCOPED_TRACE("level " + std::to_string(d));
    const IndexLevel& level = v.level(d);
    const SearchSpec spec = level.search_spec();
    std::vector<index_t> positions;
    long long children = 0;
    for (index_t parent : parents) {
      std::vector<IndexPos> walk;
      Cursor c;
      CursorBuffer scratch;
      level.begin_cursor(parent, c, scratch);
      ASSERT_EQ(c.remaining(), c.end - c.cur);
      for (; c.valid(); c.advance()) walk.push_back({c.index(), c.pos()});
      std::vector<IndexPos> enumerated;
      level.enumerate(parent, [&](index_t idx, index_t pos) {
        enumerated.push_back({idx, pos});
        return true;
      });
      ASSERT_EQ(enumerated.size(), walk.size()) << "parent " << parent;
      index_t hi = 0;
      for (std::size_t k = 0; k < walk.size(); ++k) {
        EXPECT_EQ(enumerated[k].idx, walk[k].idx) << "parent " << parent;
        EXPECT_EQ(enumerated[k].pos, walk[k].pos) << "parent " << parent;
        hi = std::max(hi, walk[k].idx);
        positions.push_back(walk[k].pos);
      }
      children += static_cast<long long>(walk.size());
      for (index_t idx = -1; idx <= hi + 1; ++idx) {
        index_t want = -1;
        for (const IndexPos& e : walk)
          if (e.idx == idx) {
            want = e.pos;
            break;
          }
        EXPECT_EQ(level.search(parent, idx), want)
            << "parent " << parent << " idx " << idx;
        if (spec.kind != SearchSpec::Kind::kVirtual) {
          EXPECT_EQ(flat_search(spec, parent, idx), want)
              << "parent " << parent << " idx " << idx;
        }
      }
    }
    if (!parents.empty()) {
      EXPECT_DOUBLE_EQ(level.expected_size(),
                       static_cast<double>(children) /
                           static_cast<double>(parents.size()));
    }
    std::sort(positions.begin(), positions.end());
    positions.erase(std::unique(positions.begin(), positions.end()),
                    positions.end());
    parents = std::move(positions);
  }
}

struct Shape {
  std::string name;
  Coo coo;
  index_t block;  // BCSR block size dividing both dimensions
};

// 0xn, nx0, empty rows (first, middle, last), one fully dense row, a
// partial last block row (entries stop inside it), and row counts that
// neither SELL's C = 4 nor sigma = 8 divides.
std::vector<Shape> adversarial_shapes() {
  std::vector<Shape> shapes;
  shapes.push_back({"0x6", TripletBuilder(0, 6).build(), 2});
  shapes.push_back({"6x0", TripletBuilder(6, 0).build(), 2});
  {
    SplitMix64 rng(21);
    TripletBuilder b(12, 10);
    for (index_t i = 1; i < 11; ++i) {
      if (i == 5) continue;
      for (int k = 0; k < 3; ++k)
        b.add(i, rng.next_index(10), rng.next_double(-1, 1));
    }
    shapes.push_back({"empty rows", std::move(b).build(), 2});
  }
  {
    TripletBuilder b(8, 6);
    for (index_t j = 0; j < 6; ++j) b.add(3, j, 1.0 + j);
    b.add(0, 2, -1.0);
    b.add(7, 5, 2.0);
    shapes.push_back({"one dense row", std::move(b).build(), 2});
  }
  {
    TripletBuilder b(8, 8);
    for (index_t i = 0; i < 5; ++i) b.add(i, (3 * i + 1) % 8, 1.0 + i);
    b.add(4, 7, 0.5);
    shapes.push_back({"partial last block row", std::move(b).build(), 4});
  }
  {
    SplitMix64 rng(22);
    TripletBuilder b(10, 6);
    for (index_t i = 0; i < 10; ++i)
      for (index_t k = 0; k < i % 4; ++k)
        b.add(i, rng.next_index(6), rng.next_double(-1, 1));
    shapes.push_back({"10 rows, C=4, sigma=8", std::move(b).build(), 2});
  }
  return shapes;
}

TEST(LevelProtocol, MatrixViewsAgreeWithDescriptorWalks) {
  for (const Shape& s : adversarial_shapes()) {
    SCOPED_TRACE(s.name);
    const auto csr = formats::Csr::from_coo(s.coo);
    const auto ccs = formats::Ccs::from_coo(s.coo);
    const auto ell = formats::Ell::from_coo(s.coo);
    const auto jds = formats::Jds::from_coo(s.coo);
    const auto bsr = formats::Bsr::from_coo(s.coo, s.block);
    const auto sell = formats::Sell::from_coo(s.coo, 4, 8);
    auto dense = formats::Dense::from_coo(s.coo);
    check_protocol(CsrView("A", csr), "csr");
    check_protocol(CcsView("A", ccs), "ccs");
    check_protocol(CooView("A", s.coo), "coo");
    check_protocol(EllView("A", ell), "ell");
    check_protocol(JdsView("A", jds), "jds");
    check_protocol(BsrView("A", bsr), "bcsr");
    check_protocol(SellView("A", sell), "sell");
    check_protocol(DenseMatrixView("A", dense), "dense matrix");
    const CsrView base("A", csr);
    check_protocol(HashIndexedView(base, 1), "hash-indexed csr");
    check_protocol(IntervalView("I", {s.coo.rows(), s.coo.cols()}),
                   "interval");

    SpaView spa("C", s.coo.rows(), s.coo.cols());
    auto& cols = const_cast<IndexLevel&>(spa.level(1));
    for (index_t k = 0; k < s.coo.nnz(); ++k)
      if (cols.search(s.coo.rowind()[k], s.coo.colind()[k]) < 0)
        cols.insert(s.coo.rowind()[k], s.coo.colind()[k]);
    check_protocol(spa, "spa");
  }
}

TEST(LevelProtocol, VectorViewsAgreeWithDescriptorWalks) {
  for (index_t n : {0, 7}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    Vector x(static_cast<std::size_t>(n), 1.5);
    check_protocol(DenseVectorView("X", VectorView(x)), "dense vector");
    std::vector<std::pair<index_t, value_t>> entries;
    for (index_t k = 1; k < n; k += 3) entries.push_back({k, 0.5 * k});
    const formats::SparseVector sv(n, entries);
    check_protocol(SparseVectorView("X", sv), "sparse vector");
    std::vector<index_t> perm(static_cast<std::size_t>(n));
    for (index_t i = 0; i < n; ++i)
      perm[static_cast<std::size_t>(i)] = (3 * i + 2) % n;
    check_protocol(PermutationView("P", perm), "permutation");
  }
}

TEST(LevelProtocol, SpecLevelKindsAgreeWithDescriptorWalks) {
  for (const Shape& s : adversarial_shapes()) {
    SCOPED_TRACE(s.name);
    const auto csr = formats::Csr::from_coo(s.coo);
    const std::string rows = std::to_string(csr.rows());
    std::vector<index_t> perm(static_cast<std::size_t>(csr.rows()));
    for (index_t i = 0; i < csr.rows(); ++i)
      perm[static_cast<std::size_t>(i)] = csr.rows() - 1 - i;
    std::vector<index_t> sorted(csr.colind().begin(), csr.colind().end());
    std::sort(sorted.begin(), sorted.end());
    FormatArrays arrays;
    arrays.index_arrays["PTR"] = csr.rowptr();
    arrays.index_arrays["IND"] = csr.colind();
    arrays.index_arrays["SORTED"] = sorted;
    arrays.index_arrays["MAP"] = perm;
    arrays.value_arrays["VALS"] = csr.vals();
    for (const char* order : {"sorted", "unsorted"}) {
      check_protocol(
          GenericFormatView("format A { level i: dense(" + rows +
                                "); level j: compressed(ptr=PTR, ind=IND) " +
                                order + "; value VALS; }",
                            arrays),
          std::string("dense + compressed, ") + order);
    }
    // A sorted list over its sorted copy (with repeats), an unsorted one
    // over the row-major column order.
    check_protocol(
        GenericFormatView("format L { level k: list(ind=SORTED) sorted; }",
                          arrays),
        "list, sorted");
    check_protocol(
        GenericFormatView("format L { level k: list(ind=IND) unsorted; }",
                          arrays),
        "list, unsorted");
    check_protocol(GenericFormatView("format P { level i: dense(" + rows +
                                         "); level ip: function(map=MAP); }",
                                     arrays),
                   "dense + function");
    // blocked and sliced: unsorted specs over the BCSR/SELL arrays, which
    // search by a linear walk instead of the built-in views' binary one.
    const auto bsr = formats::Bsr::from_coo(s.coo, s.block);
    const auto sell = formats::Sell::from_coo(s.coo, 4, 8);
    FormatArrays blocked;
    blocked.index_arrays["BPTR"] = bsr.browptr();
    blocked.index_arrays["BIND"] = bsr.bcolind();
    blocked.index_arrays["BASE"] = sell.rowbase();
    blocked.index_arrays["LEN"] = sell.rowlen();
    blocked.index_arrays["SIND"] = sell.colind();
    const std::string b = std::to_string(s.block);
    check_protocol(GenericFormatView("format B { level i: dense(" + rows +
                                         "); level j: blocked(r=" + b +
                                         ", c=" + b +
                                         ", ptr=BPTR, ind=BIND) unsorted; }",
                                     blocked),
                   "blocked, unsorted");
    check_protocol(
        GenericFormatView("format S { level i: dense(" + rows +
                              "); level j: sliced(chunk=4, sigma=8, "
                              "base=BASE, len=LEN, ind=SIND) unsorted; }",
                          blocked),
        "sliced, unsorted");
  }
}

}  // namespace
}  // namespace bernoulli::relation
