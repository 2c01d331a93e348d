// Hash-index access-method adapter: contract, laziness, and planner
// interaction (the "third join implementation").
#include <gtest/gtest.h>

#include "compiler/executor.hpp"
#include "compiler/planner.hpp"
#include "formats/csr.hpp"
#include "relation/array_views.hpp"
#include "relation/hash_index.hpp"
#include "support/rng.hpp"

namespace bernoulli::relation {
namespace {

using formats::Coo;
using formats::Csr;
using formats::TripletBuilder;

Coo sample() {
  TripletBuilder b(5, 6);
  b.add(0, 2, 1.0);
  b.add(0, 5, 2.0);
  b.add(1, 0, 3.0);
  b.add(3, 2, 4.0);
  b.add(3, 3, 5.0);
  b.add(3, 4, 6.0);
  return std::move(b).build();
}

TEST(HashIndex, SearchAgreesWithBase) {
  Csr m = Csr::from_coo(sample());
  CsrView base("A", m);
  HashIndexedView hashed(base, /*indexed_depth=*/1);
  EXPECT_EQ(hashed.level(1).properties().search_cost, SearchCost::kConstant);
  for (index_t i = 0; i < 5; ++i)
    for (index_t j = 0; j < 6; ++j)
      EXPECT_EQ(hashed.level(1).search(i, j), base.level(1).search(i, j))
          << i << "," << j;
}

TEST(HashIndex, EnumerationPassesThrough) {
  Csr m = Csr::from_coo(sample());
  CsrView base("A", m);
  HashIndexedView hashed(base, 1);
  std::vector<index_t> got, want;
  hashed.level(1).enumerate(3, [&](index_t idx, index_t) {
    got.push_back(idx);
    return true;
  });
  base.level(1).enumerate(3, [&](index_t idx, index_t) {
    want.push_back(idx);
    return true;
  });
  EXPECT_EQ(got, want);
}

TEST(HashIndex, TablesBuiltLazilyPerParent) {
  Csr m = Csr::from_coo(sample());
  CsrView base("A", m);
  HashIndexedView hashed(base, 1);
  EXPECT_EQ(hashed.tables_built(), 0u);
  hashed.level(1).search(0, 2);
  EXPECT_EQ(hashed.tables_built(), 1u);
  hashed.level(1).search(0, 3);  // same parent: no new table
  EXPECT_EQ(hashed.tables_built(), 1u);
  hashed.level(1).search(3, 4);
  EXPECT_EQ(hashed.tables_built(), 2u);
}

TEST(HashIndex, ValueAccessUnchanged) {
  Csr m = Csr::from_coo(sample());
  CsrView base("A", m);
  HashIndexedView hashed(base, 1);
  index_t pos = hashed.level(1).search(3, 3);
  ASSERT_GE(pos, 0);
  EXPECT_DOUBLE_EQ(hashed.value_at(pos), 5.0);
  EXPECT_EQ(hashed.value_array().data(), base.value_array().data());
}

TEST(HashIndex, QueryThroughWrapperMatchesBase) {
  // y = A x evaluated with the hashed view must equal the plain result.
  SplitMix64 rng(3);
  TripletBuilder tb(20, 20);
  for (int k = 0; k < 80; ++k)
    tb.add(rng.next_index(20), rng.next_index(20), rng.next_double(-1, 1));
  Coo coo = std::move(tb).build();
  Csr m = Csr::from_coo(coo);

  Vector x(20);
  for (auto& v : x) v = rng.next_double(-1, 1);

  auto run = [&](RelationView& aview) {
    Vector y(20, 0.0);
    IntervalView iview("I", {20, 20});
    DenseVectorView xv("X", ConstVectorView(x));
    DenseVectorView yv("Y", VectorView(y));
    Query q;
    q.vars = {"i", "j"};
    q.relations.push_back({&iview, {"i", "j"}, true, false, true});
    q.relations.push_back({&aview, {"i", "j"}, true, false, false});
    q.relations.push_back({&xv, {"j"}, false, false, false});
    q.relations.push_back({&yv, {"i"}, false, true, false});
    auto plan = compiler::plan_query(q);
    compiler::execute(plan, q, compiler::multiply_accumulate(q, 3, {1, 2}));
    return y;
  };

  CsrView base("A", m);
  HashIndexedView hashed(base, 1);
  Vector y1 = run(base);
  Vector y2 = run(hashed);
  for (std::size_t i = 0; i < 20; ++i) ASSERT_NEAR(y1[i], y2[i], 1e-13);
}

TEST(HashIndex, PlannerSeesCheaperProbe) {
  // The cost model must rank a probe of the hashed level cheaper than the
  // same probe through binary search.
  Csr m = Csr::from_coo(sample());
  CsrView base("A", m);
  HashIndexedView hashed(base, 1);

  Vector x(6, 1.0), y(5, 0.0);
  auto plan_cost = [&](RelationView& aview) {
    IntervalView iview("I", {5, 6});
    DenseVectorView xv("X", ConstVectorView(x));
    DenseVectorView yv("Y", VectorView(y));
    Query q;
    q.vars = {"i", "j"};
    q.relations.push_back({&iview, {"i", "j"}, true, false, true});
    q.relations.push_back({&aview, {"i", "j"}, true, false, false});
    q.relations.push_back({&xv, {"j"}, false, false, false});
    q.relations.push_back({&yv, {"i"}, false, true, false});
    // Force the order where A's column level is probed (j bound by the
    // dense interval, A searched): j outer then i would probe... use
    // explicit order {i, j} but force the interval to drive by disallowing
    // merge; the plan that probes A at j only occurs when A does not
    // drive, so compare costs of the forced same-shaped plans.
    compiler::PlannerOptions opts;
    opts.force_order = std::vector<std::string>{"i", "j"};
    return compiler::plan_query(q, opts).total_cost;
  };
  // Identical plans except A's search cost: hashed must not cost more.
  EXPECT_LE(plan_cost(hashed), plan_cost(base));
}

}  // namespace
}  // namespace bernoulli::relation
