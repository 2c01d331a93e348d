// Planner unit tests: feasibility of variable orders, cost-model
// preferences, merge policy, and order-free (iteration-space) relations.
#include <gtest/gtest.h>

#include "compiler/planner.hpp"
#include "formats/ccs.hpp"
#include "formats/csr.hpp"
#include "formats/sparse_vector.hpp"
#include "relation/array_views.hpp"
#include "relation/sparse_vector_view.hpp"
#include "support/rng.hpp"

namespace bernoulli::compiler {
namespace {

using formats::Ccs;
using formats::Coo;
using formats::Csr;
using formats::TripletBuilder;
using relation::Query;

Coo sample(index_t n, index_t nnz, std::uint64_t seed) {
  SplitMix64 rng(seed);
  TripletBuilder b(n, n);
  for (index_t k = 0; k < nnz; ++k)
    b.add(rng.next_index(n), rng.next_index(n), 1.0);
  return std::move(b).build();
}

TEST(Planner, CcsAloneInfeasibleRowMajor) {
  // CCS binds (j, i): with the order (i, j) and no other relation binding
  // i at its first level, no candidate can bind i first.
  Ccs m = Ccs::from_coo(sample(8, 20, 1));
  relation::CcsView a("A", m);
  Query q;
  q.vars = {"i", "j"};
  q.relations.push_back({&a, {"j", "i"}, true, false, false});
  EXPECT_FALSE(plan_order(q, {"i", "j"}, true).has_value());
  EXPECT_TRUE(plan_order(q, {"j", "i"}, true).has_value());
}

TEST(Planner, OrderFreeIntervalMakesAnyOrderFeasible) {
  Ccs m = Ccs::from_coo(sample(8, 20, 2));
  relation::CcsView a("A", m);
  relation::IntervalView i("I", {8, 8});
  Query q;
  q.vars = {"i", "j"};
  q.relations.push_back({&i, {"i", "j"}, true, false, true});
  q.relations.push_back({&a, {"j", "i"}, true, false, false});
  EXPECT_TRUE(plan_order(q, {"i", "j"}, true).has_value());
  EXPECT_TRUE(plan_order(q, {"j", "i"}, true).has_value());
  // The free planner must pick the CCS-driven (column-major) order: it is
  // far cheaper than scanning the dense interval and probing CCS.
  Plan best = plan_query(q);
  EXPECT_EQ(best.levels[0].var, "j");
}

TEST(Planner, CostDecreasesWithSparsity) {
  // The same query over a sparser matrix must be estimated cheaper.
  auto plan_cost = [](index_t nnz) {
    static std::vector<std::unique_ptr<Csr>> keep;  // keep storage alive
    keep.push_back(std::make_unique<Csr>(Csr::from_coo(sample(100, nnz, 3))));
    relation::CsrView a("A", *keep.back());
    relation::IntervalView i("I", {100, 100});
    Query q;
    q.vars = {"i", "j"};
    q.relations.push_back({&i, {"i", "j"}, true, false, true});
    q.relations.push_back({&a, {"i", "j"}, true, false, false});
    return plan_query(q).total_cost;
  };
  EXPECT_LT(plan_cost(50), plan_cost(2000));
}

TEST(Planner, MergeRequiresTwoSortedSparseFilters) {
  Csr m = Csr::from_coo(sample(50, 300, 4));
  relation::CsrView a("A", m);
  relation::IntervalView i("I", {50, 50});
  Query q;
  q.vars = {"i", "j"};
  q.relations.push_back({&i, {"i", "j"}, true, false, true});
  q.relations.push_back({&a, {"i", "j"}, true, false, false});
  // Only one sparse filter — no merge possible anywhere.
  auto p = plan_order(q, {"i", "j"}, /*allow_merge=*/true);
  ASSERT_TRUE(p.has_value());
  for (const auto& lv : p->levels) EXPECT_EQ(lv.method, JoinMethod::kEnumerate);
}

TEST(Planner, MergeAppearsWithSparseVector) {
  Csr m = Csr::from_coo(sample(50, 600, 5));
  formats::SparseVector x(50, {{3, 1.0}, {17, 1.0}, {20, 1.0}, {44, 1.0},
                               {45, 1.0}, {49, 1.0}});
  relation::CsrView a("A", m);
  relation::SparseVectorView xv("X", x);
  relation::IntervalView i("I", {50, 50});
  Query q;
  q.vars = {"i", "j"};
  q.relations.push_back({&i, {"i", "j"}, true, false, true});
  q.relations.push_back({&a, {"i", "j"}, true, false, false});
  q.relations.push_back({&xv, {"j"}, true, false, false});
  auto merged = plan_order(q, {"i", "j"}, true);
  ASSERT_TRUE(merged.has_value());
  bool has_merge = false;
  for (const auto& lv : merged->levels)
    if (lv.method == JoinMethod::kMerge) {
      has_merge = true;
      EXPECT_EQ(lv.var, "j");
      EXPECT_EQ(lv.drivers.size(), 2u);
    }
  EXPECT_TRUE(has_merge);

  auto probed = plan_order(q, {"i", "j"}, false);
  ASSERT_TRUE(probed.has_value());
  for (const auto& lv : probed->levels)
    EXPECT_EQ(lv.method, JoinMethod::kEnumerate);
}

TEST(Planner, EveryRelationFullyResolved) {
  Csr m = Csr::from_coo(sample(20, 60, 6));
  relation::CsrView a("A", m);
  relation::IntervalView i("I", {20, 20});
  Query q;
  q.vars = {"i", "j"};
  q.relations.push_back({&i, {"i", "j"}, true, false, true});
  q.relations.push_back({&a, {"i", "j"}, true, false, false});
  Plan p = plan_query(q);
  // Each relation-level appears exactly once across drivers+probes.
  std::set<std::pair<index_t, index_t>> seen;
  for (const auto& lv : p.levels) {
    for (const auto& d : lv.drivers)
      EXPECT_TRUE(seen.emplace(d.rel, d.depth).second);
    for (const auto& pr : lv.probes)
      EXPECT_TRUE(seen.emplace(pr.rel, pr.depth).second);
  }
  EXPECT_EQ(seen.size(), 4u);  // two relations x two levels
}

TEST(Planner, ForceOrderHonored) {
  Csr m = Csr::from_coo(sample(10, 30, 7));
  relation::CsrView a("A", m);
  relation::IntervalView i("I", {10, 10});
  Query q;
  q.vars = {"i", "j"};
  q.relations.push_back({&i, {"i", "j"}, true, false, true});
  q.relations.push_back({&a, {"i", "j"}, true, false, false});
  PlannerOptions opts;
  opts.force_order = std::vector<std::string>{"j", "i"};
  Plan p = plan_query(q, opts);
  EXPECT_EQ(p.levels[0].var, "j");
  EXPECT_EQ(p.levels[1].var, "i");
}

}  // namespace
}  // namespace bernoulli::compiler
