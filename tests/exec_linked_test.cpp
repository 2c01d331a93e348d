// Differential test: the linked cursor engine (compiler/link.hpp +
// exec_linked.cpp) against the reference interpreter
// (execute_interpreted), across every format and plan shape the compiler
// sweep covers plus the merge-join, fill-in (sparse output insert),
// filtering-rejection and permutation paths. The contract is strict:
// bitwise-identical outputs, identical executor.* counter deltas and
// identical per-level enumerated/produced totals.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "blas/spgemm.hpp"
#include "compiler/explain.hpp"
#include "compiler/link.hpp"
#include "compiler/loopnest.hpp"
#include "compiler/specialize.hpp"
#include "formats/formats.hpp"
#include "relation/array_views.hpp"
#include "relation/hash_index.hpp"
#include "relation/jds_view.hpp"
#include "relation/spa_view.hpp"
#include "relation/sparse_vector_view.hpp"
#include "support/metrics.hpp"
#include "support/profile.hpp"
#include "support/rng.hpp"

namespace bernoulli::compiler {
namespace {

using formats::Coo;
using formats::TripletBuilder;
using relation::Query;

Coo random_matrix(index_t rows, index_t cols, index_t nnz,
                  std::uint64_t seed) {
  SplitMix64 rng(seed);
  TripletBuilder b(rows, cols);
  for (index_t k = 0; k < nnz; ++k)
    b.add(rng.next_index(rows), rng.next_index(cols),
          rng.next_double(-1.0, 1.0));
  return std::move(b).build();
}

// executor.* counter deltas across a run (zero deltas elided, so the
// comparison is independent of which counters other tests registered).
std::map<std::string, long long> exec_delta(
    const support::MetricsSnapshot& before,
    const support::MetricsSnapshot& after) {
  std::map<std::string, long long> d;
  for (const auto& [name, v] : after.counts) {
    if (name.rfind("executor.", 0) != 0) continue;
    long long b = 0;
    if (auto it = before.counts.find(name); it != before.counts.end())
      b = it->second;
    if (v != b) d[name] = v - b;
  }
  return d;
}

struct EngineRun {
  std::map<std::string, long long> deltas;
  RunStats stats;
};

EngineRun run_interpreted(const Plan& plan, const Query& q,
                          const Action& action) {
  EngineRun r;
  auto before = support::metrics_snapshot();
  execute_interpreted(plan, q, action, &r.stats);
  r.deltas = exec_delta(before, support::metrics_snapshot());
  return r;
}

EngineRun run_linked(const Plan& plan, const Query& q, const Action& action) {
  EngineRun r;
  auto before = support::metrics_snapshot();
  LinkedRunner runner(link_plan(plan, q));
  runner.run(action, &r.stats);
  r.deltas = exec_delta(before, support::metrics_snapshot());
  return r;
}

EngineRun run_linked_mac(const Plan& plan, const Query& q, index_t target,
                         const std::vector<index_t>& factors,
                         value_t scale = 1.0) {
  EngineRun r;
  auto before = support::metrics_snapshot();
  LinkedRunner runner(link_plan(plan, q));
  runner.run(link_mac(q, target, factors, scale), &r.stats);
  r.deltas = exec_delta(before, support::metrics_snapshot());
  return r;
}

void expect_same_work(const EngineRun& interp, const EngineRun& linked) {
  EXPECT_EQ(interp.deltas, linked.deltas);
  EXPECT_EQ(interp.stats.tuples, linked.stats.tuples);
  ASSERT_EQ(interp.stats.levels.size(), linked.stats.levels.size());
  for (std::size_t d = 0; d < interp.stats.levels.size(); ++d) {
    EXPECT_EQ(interp.stats.levels[d].enumerated,
              linked.stats.levels[d].enumerated)
        << "level " << d;
    EXPECT_EQ(interp.stats.levels[d].produced, linked.stats.levels[d].produced)
        << "level " << d;
  }
}

// ---- Format sweep: every storage binding of the sweep test ----------

enum class Storage {
  kCsr,
  kCcs,
  kCoo,
  kEll,
  kBsr,
  kSell,
  kDenseMatrix,
  kCsrHashed
};

std::string storage_name(Storage s) {
  switch (s) {
    case Storage::kCsr: return "csr";
    case Storage::kCcs: return "ccs";
    case Storage::kCoo: return "coo";
    case Storage::kEll: return "ell";
    case Storage::kBsr: return "bsr";
    case Storage::kSell: return "sell";
    case Storage::kDenseMatrix: return "dense";
    case Storage::kCsrHashed: return "csr_hashed";
  }
  return "?";
}

// Largest square block size from {4, 2} tiling both dimensions; BCSR
// test shapes that divide neither fall back to 1x1 blocks.
index_t block_for(index_t rows, index_t cols) {
  for (index_t r : {4, 2})
    if (rows % r == 0 && cols % r == 0) return r;
  return 1;
}

// Matrix shapes beyond uniform random fill, aimed at the edges of the
// drains: runs of empty rows at either end, empty matrices and empty
// dimensions, one dense row among empty ones, empty columns (the
// column-major scatter), and a BCSR whose last block row holds one live
// row over a row count that thread chunks would split mid-block-row.
enum class Shape {
  kRandom,
  kLeadingEmptyRows,
  kTrailingEmptyRows,
  kAllEmpty,
  kOneDenseRow,
  kEmptyColumns,
  kBlockRowTail,
};

std::string shape_name(Shape s) {
  switch (s) {
    case Shape::kRandom: return "";
    case Shape::kLeadingEmptyRows: return "_leading_empty";
    case Shape::kTrailingEmptyRows: return "_trailing_empty";
    case Shape::kAllEmpty: return "_all_empty";
    case Shape::kOneDenseRow: return "_one_dense_row";
    case Shape::kEmptyColumns: return "_empty_cols";
    case Shape::kBlockRowTail: return "_block_row_tail";
  }
  return "?";
}

struct Case {
  Storage storage;
  index_t rows;
  index_t cols;
  index_t nnz;
  std::uint64_t seed;
  Shape shape = Shape::kRandom;
};

Coo case_matrix(const Case& c) {
  if (c.shape == Shape::kRandom)
    return random_matrix(c.rows, c.cols, c.nnz, c.seed);
  SplitMix64 rng(c.seed);
  TripletBuilder b(c.rows, c.cols);
  auto add = [&](index_t i, index_t j) {
    b.add(i, j, rng.next_double(-1.0, 1.0));
  };
  const index_t half = c.rows / 2;
  for (index_t k = 0; k < c.nnz && c.rows > 0 && c.cols > 0; ++k) {
    const index_t j = rng.next_index(c.cols);
    switch (c.shape) {
      case Shape::kLeadingEmptyRows:
        add(half + rng.next_index(c.rows - half), j);
        break;
      case Shape::kTrailingEmptyRows:
        add(rng.next_index(std::max<index_t>(1, half)), j);
        break;
      case Shape::kEmptyColumns:
        add(rng.next_index(c.rows), j - j % 3);  // only every third column
        break;
      default: break;
    }
  }
  if (c.shape == Shape::kOneDenseRow && c.rows > 0)
    for (index_t j = 0; j < c.cols; ++j) add(c.rows / 3, j);
  if (c.shape == Shape::kBlockRowTail && c.rows > 0) {
    // Block rows of 4: the first and the last hold one live row each.
    for (index_t j = 0; j < c.cols; j += 2) add(1, j);
    for (index_t j = 1; j < c.cols; j += 3) add(c.rows - 4, j);
  }
  return std::move(b).build();
}

class LinkedSweep : public ::testing::TestWithParam<Case> {};

TEST_P(LinkedSweep, MatchesInterpreterExactly) {
  const Case& c = GetParam();
  SplitMix64 rng(c.seed);
  Coo coo = random_matrix(c.rows, c.cols, c.nnz, c.seed);

  Vector x(static_cast<std::size_t>(c.cols));
  for (auto& v : x) v = rng.next_double(-1, 1);
  Vector y(static_cast<std::size_t>(c.rows), 0.0);

  formats::Csr csr = formats::Csr::from_coo(coo);
  formats::Ccs ccs = formats::Ccs::from_coo(coo);
  formats::Ell ell = formats::Ell::from_coo(coo);
  formats::Bsr bsr = formats::Bsr::from_coo(coo, block_for(c.rows, c.cols));
  formats::Sell sell = formats::Sell::from_coo(coo, 4, 8);
  formats::Dense dm = formats::Dense::from_coo(coo);
  relation::CsrView csr_base("A", csr);
  relation::HashIndexedView hashed(csr_base, 1);

  Bindings b;
  switch (c.storage) {
    case Storage::kCsr: b.bind_csr("A", csr); break;
    case Storage::kCcs: b.bind_ccs("A", ccs); break;
    case Storage::kCoo: b.bind_coo("A", coo); break;
    case Storage::kEll: b.bind_ell("A", ell); break;
    case Storage::kBsr: b.bind_bsr("A", bsr); break;
    case Storage::kSell: b.bind_sell("A", sell); break;
    case Storage::kDenseMatrix: b.bind_dense_matrix("A", dm); break;
    case Storage::kCsrHashed:
      b.bind_view("A", &hashed, {0, 1}, /*sparse=*/true);
      break;
  }
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));

  LoopNest nest{{{"i", c.rows}, {"j", c.cols}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
  CompiledKernel k = compile(nest, b);
  // compile() lays relations out as I=0, target=1, factors in order.
  const index_t target = 1;
  const std::vector<index_t> factors{2, 3};

  EngineRun ir =
      run_interpreted(k.plan(), k.query(),
                      multiply_accumulate(k.query(), target, factors));
  Vector y_interp = y;

  std::fill(y.begin(), y.end(), 0.0);
  EngineRun lr = run_linked_mac(k.plan(), k.query(), target, factors);
  expect_same_work(ir, lr);
  for (std::size_t i = 0; i < y.size(); ++i)
    EXPECT_EQ(y[i], y_interp[i]) << "row " << i;  // bitwise

  // The Action-sink path of the linked engine must agree as well.
  std::fill(y.begin(), y.end(), 0.0);
  EngineRun la = run_linked(k.plan(), k.query(),
                            multiply_accumulate(k.query(), target, factors));
  expect_same_work(ir, la);
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_EQ(y[i], y_interp[i]);
}

std::vector<Case> make_cases() {
  std::vector<Case> cases;
  std::uint64_t seed = 900;
  for (Storage s : {Storage::kCsr, Storage::kCcs, Storage::kCoo,
                    Storage::kEll, Storage::kBsr, Storage::kSell,
                    Storage::kDenseMatrix, Storage::kCsrHashed}) {
    cases.push_back({s, 1, 1, 1, seed++});
    cases.push_back({s, 10, 14, 40, seed++});
    cases.push_back({s, 14, 10, 40, seed++});
    cases.push_back({s, 32, 32, 64, seed++});   // sparse, empty rows
    cases.push_back({s, 24, 24, 400, seed++});  // dense-ish, duplicates
  }
  return cases;
}

// make_cases() plus the adversarial shapes, for the sweeps that guard the
// drains (BulkDrainSweep, ParallelSweep).
std::vector<Case> make_edge_cases() {
  std::vector<Case> cases = make_cases();
  std::uint64_t seed = 1900;
  for (Storage s : {Storage::kCsr, Storage::kCcs, Storage::kCoo,
                    Storage::kEll, Storage::kBsr, Storage::kSell,
                    Storage::kDenseMatrix, Storage::kCsrHashed}) {
    cases.push_back({s, 24, 20, 60, seed++, Shape::kLeadingEmptyRows});
    cases.push_back({s, 24, 20, 60, seed++, Shape::kTrailingEmptyRows});
    cases.push_back({s, 16, 12, 0, seed++, Shape::kAllEmpty});
    cases.push_back({s, 0, 8, 0, seed++, Shape::kAllEmpty});
    cases.push_back({s, 8, 0, 0, seed++, Shape::kAllEmpty});
    cases.push_back({s, 21, 17, 0, seed++, Shape::kOneDenseRow});
    cases.push_back({s, 18, 24, 80, seed++, Shape::kEmptyColumns});
    cases.push_back({s, 20, 20, 0, seed++, Shape::kBlockRowTail});
  }
  return cases;
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  const Case& c = info.param;
  std::ostringstream os;
  os << storage_name(c.storage) << "_" << c.rows << "x" << c.cols << "_nnz"
     << c.nnz << shape_name(c.shape);
  return os.str();
}

INSTANTIATE_TEST_SUITE_P(AllStorages, LinkedSweep,
                         ::testing::ValuesIn(make_cases()),
                         [](const ::testing::TestParamInfo<Case>& info) {
                           const Case& c = info.param;
                           std::ostringstream os;
                           os << storage_name(c.storage) << "_" << c.rows
                              << "x" << c.cols << "_nnz" << c.nnz;
                           return os.str();
                         });

// ---- Merge join (sparse A |><| sparse X), both planner modes --------

TEST(LinkedExec, MergeJoinAndProbeFallbackMatch) {
  Coo a = random_matrix(60, 60, 500, 21);
  formats::Csr csr = formats::Csr::from_coo(a);
  formats::SparseVector x(
      60, {{1, 1.0}, {5, -2.0}, {12, 0.25}, {30, 3.0}, {59, -1.0}});
  Vector y(60, 0.0);

  for (bool allow_merge : {true, false}) {
    Bindings b;
    b.bind_csr("A", csr);
    b.bind_sparse_vector("X", x);
    b.bind_dense_vector("Y", VectorView(y));
    LoopNest nest{{{"i", 60}, {"j", 60}},
                  {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
    PlannerOptions opts;
    opts.allow_merge = allow_merge;
    CompiledKernel k = compile(nest, b, opts);

    std::fill(y.begin(), y.end(), 0.0);
    EngineRun ir = run_interpreted(
        k.plan(), k.query(), multiply_accumulate(k.query(), 1, {2, 3}));
    Vector y_interp = y;

    std::fill(y.begin(), y.end(), 0.0);
    EngineRun lr = run_linked_mac(k.plan(), k.query(), 1, {2, 3});
    expect_same_work(ir, lr);
    if (allow_merge) {
      EXPECT_GT(lr.deltas["executor.merge_steps"], 0);
      EXPECT_GT(lr.deltas["executor.merge_segment_bytes"], 0);
    } else {
      // Index-nested-loop mode: X is probed and rejects most columns.
      EXPECT_GT(lr.deltas["executor.probe_misses"], 0);
    }
    for (std::size_t i = 0; i < y.size(); ++i) EXPECT_EQ(y[i], y_interp[i]);
  }
}

// ---- Sparse-output fill-in: SpGEMM into a SPA -----------------------

TEST(LinkedExec, SpgemmFillInMatches) {
  Coo a = random_matrix(14, 18, 60, 22);
  Coo bm = random_matrix(18, 11, 55, 23);
  formats::Csr acsr = formats::Csr::from_coo(a);
  formats::Csr bcsr = formats::Csr::from_coo(bm);
  relation::CsrView aview("A", acsr);
  relation::CsrView bview("B", bcsr);
  relation::IntervalView iview("I", {14, 18, 11});

  auto make_query = [&](relation::SpaView& c) {
    Query q;
    q.vars = {"i", "k", "j"};
    q.relations.push_back({&iview, {"i", "k", "j"}, true, false, true});
    q.relations.push_back({&aview, {"i", "k"}, true, false, false});
    q.relations.push_back({&bview, {"k", "j"}, true, false, false});
    q.relations.push_back({&c, {"i", "j"}, false, true, false});
    return q;
  };

  // Fresh SPA per engine so every insert happens in both runs.
  relation::SpaView c_interp("C", 14, 11);
  Query q_interp = make_query(c_interp);
  Plan plan = plan_query(q_interp);
  EngineRun ir = run_interpreted(plan, q_interp,
                                 multiply_accumulate(q_interp, 3, {1, 2}));

  relation::SpaView c_linked("C", 14, 11);
  Query q_linked = make_query(c_linked);
  EngineRun lr = run_linked_mac(plan, q_linked, 3, {1, 2});

  expect_same_work(ir, lr);
  EXPECT_GT(lr.deltas["executor.fill_ins"], 0);
  EXPECT_EQ(c_interp.harvest(), c_linked.harvest());  // structure + values
  EXPECT_EQ(c_linked.harvest(), blas::spgemm(acsr, bcsr).to_coo());
}

// ---- Permutation relation (JDS, paper Eq. 6) ------------------------

TEST(LinkedExec, JdsPermutationMatvecMatches) {
  const index_t n = 20;
  Coo coo = random_matrix(n, n, 90, 24);
  formats::Jds jds = formats::Jds::from_coo(coo);

  SplitMix64 rng(25);
  Vector x(static_cast<std::size_t>(n));
  for (auto& v : x) v = rng.next_double(-1, 1);
  Vector y(static_cast<std::size_t>(n), 0.0);

  relation::JdsView aview("Ap", jds);
  relation::PermutationView pview("P", aview.original_to_permuted());
  relation::IntervalView iview("I", {n, n});
  relation::DenseVectorView xview("X", ConstVectorView(x));
  relation::DenseVectorView yview("Y", VectorView(y));

  Query q;
  q.vars = {"i", "ip", "j"};
  q.relations.push_back({&iview, {"i", "j"}, true, false, true});
  q.relations.push_back({&pview, {"i", "ip"}, true, false, false});
  q.relations.push_back({&aview, {"ip", "j"}, true, false, false});
  q.relations.push_back({&xview, {"j"}, false, false, false});
  q.relations.push_back({&yview, {"i"}, false, true, false});
  Plan plan = plan_query(q);

  EngineRun ir =
      run_interpreted(plan, q, multiply_accumulate(q, 4, {2, 3}));
  Vector y_interp = y;

  std::fill(y.begin(), y.end(), 0.0);
  EngineRun lr = run_linked_mac(plan, q, 4, {2, 3});
  expect_same_work(ir, lr);
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_EQ(y[i], y_interp[i]);
}

// ---- Runner reuse: repeated runs of one LinkedRunner ----------------

TEST(LinkedExec, RunnerReuseKeepsCountsStable) {
  Coo a = random_matrix(32, 32, 128, 26);
  formats::Csr csr = formats::Csr::from_coo(a);
  Vector x(32, 1.0), y(32, 0.0);

  Bindings b;
  b.bind_csr("A", csr);
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));
  LoopNest nest{{{"i", 32}, {"j", 32}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
  CompiledKernel k = compile(nest, b);

  LinkedRunner runner(link_plan(k.plan(), k.query()));
  LinkedMac mac = link_mac(k.query(), 1, {2, 3});
  EngineRun first;
  {
    auto before = support::metrics_snapshot();
    runner.run(mac, &first.stats);
    first.deltas = exec_delta(before, support::metrics_snapshot());
  }
  Vector y_first = y;
  for (int rep = 0; rep < 3; ++rep) {
    std::fill(y.begin(), y.end(), 0.0);
    EngineRun again;
    auto before = support::metrics_snapshot();
    runner.run(mac, &again.stats);
    again.deltas = exec_delta(before, support::metrics_snapshot());
    expect_same_work(first, again);
    for (std::size_t i = 0; i < y.size(); ++i) EXPECT_EQ(y[i], y_first[i]);
  }
}

// ---- Parallel execution: ParallelRunner vs the interpreter ----------

// executor.fanout.* histogram bucket deltas across a run (all-zero
// histograms elided, mirroring exec_delta).
std::map<std::string, std::vector<long long>> fanout_delta(
    const std::map<std::string, std::vector<long long>>& before,
    const std::map<std::string, std::vector<long long>>& after) {
  std::map<std::string, std::vector<long long>> d;
  for (const auto& [name, buckets] : after) {
    if (name.rfind("executor.fanout.", 0) != 0) continue;
    std::vector<long long> delta = buckets;
    if (auto it = before.find(name); it != before.end())
      for (std::size_t i = 0; i < delta.size() && i < it->second.size(); ++i)
        delta[i] -= it->second[i];
    bool any = false;
    for (long long v : delta) any = any || v != 0;
    if (any) d[name] = std::move(delta);
  }
  return d;
}

// Exact per-(level, drain kind) profile work counts, flattened.
std::vector<long long> profile_work(const support::ProfileSnapshot& s) {
  std::vector<long long> w;
  for (int d = 0; d < support::kProfileMaxLevels; ++d)
    for (int k = 0; k < support::kProfKinds; ++k) w.push_back(s.work[d][k]);
  return w;
}

class ParallelSweep : public ::testing::TestWithParam<Case> {};

// The contract extends to threads: for every storage and every thread
// count, ParallelRunner must reproduce the interpreter bitwise — outputs,
// merged executor.* counter deltas, merged fan-out histogram deltas and
// per-level stats. CCS's column-outer order writing row-indexed Y runs
// owner-computes (rows of Y split across the threads; its run(Action)
// stays serial), so the same assertions cover the owner partition on
// every edge shape; plans the legality check rejects exercise the serial
// fallback.
TEST_P(ParallelSweep, MatchesInterpreterForAllThreadCounts) {
  const Case& c = GetParam();
  SplitMix64 rng(c.seed);
  Coo coo = case_matrix(c);

  Vector x(static_cast<std::size_t>(c.cols));
  for (auto& v : x) v = rng.next_double(-1, 1);
  Vector y(static_cast<std::size_t>(c.rows), 0.0);

  formats::Csr csr = formats::Csr::from_coo(coo);
  formats::Ccs ccs = formats::Ccs::from_coo(coo);
  formats::Ell ell = formats::Ell::from_coo(coo);
  formats::Bsr bsr = formats::Bsr::from_coo(coo, block_for(c.rows, c.cols));
  formats::Sell sell = formats::Sell::from_coo(coo, 4, 8);
  formats::Dense dm = formats::Dense::from_coo(coo);
  relation::CsrView csr_base("A", csr);
  relation::HashIndexedView hashed(csr_base, 1);

  Bindings b;
  switch (c.storage) {
    case Storage::kCsr: b.bind_csr("A", csr); break;
    case Storage::kCcs: b.bind_ccs("A", ccs); break;
    case Storage::kCoo: b.bind_coo("A", coo); break;
    case Storage::kEll: b.bind_ell("A", ell); break;
    case Storage::kBsr: b.bind_bsr("A", bsr); break;
    case Storage::kSell: b.bind_sell("A", sell); break;
    case Storage::kDenseMatrix: b.bind_dense_matrix("A", dm); break;
    case Storage::kCsrHashed:
      b.bind_view("A", &hashed, {0, 1}, /*sparse=*/true);
      break;
  }
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));

  LoopNest nest{{{"i", c.rows}, {"j", c.cols}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
  CompiledKernel k = compile(nest, b);
  const index_t target = 1;
  const std::vector<index_t> factors{2, 3};

  auto hist_before = support::metrics_snapshot().log2;
  EngineRun ir =
      run_interpreted(k.plan(), k.query(),
                      multiply_accumulate(k.query(), target, factors));
  auto ir_fanout = fanout_delta(hist_before, support::metrics_snapshot().log2);
  Vector y_interp = y;

  // Profile work counts are exact integer sums: the serial linked run's
  // must be reproduced by every thread count.
  support::set_profiling(true);
  support::profile_reset();
  std::fill(y.begin(), y.end(), 0.0);
  run_linked_mac(k.plan(), k.query(), target, factors);
  const std::vector<long long> serial_work =
      profile_work(support::profile_snapshot());

  for (int threads : {1, 2, 4, 8}) {
    std::fill(y.begin(), y.end(), 0.0);
    support::profile_reset();
    auto before = support::metrics_snapshot();
    const auto& hb = before.log2;
    ParallelRunner runner(link_plan(k.plan(), k.query()), threads);
    EngineRun pr;
    runner.run(link_mac(k.query(), target, factors), &pr.stats);
    pr.deltas = exec_delta(before, support::metrics_snapshot());
    expect_same_work(ir, pr);
    EXPECT_EQ(ir_fanout,
              fanout_delta(hb, support::metrics_snapshot().log2))
        << "threads=" << threads;
    EXPECT_EQ(serial_work, profile_work(support::profile_snapshot()))
        << "threads=" << threads;
    for (std::size_t i = 0; i < y.size(); ++i)
      EXPECT_EQ(y[i], y_interp[i]) << "threads=" << threads << " row " << i;
  }
  support::set_profiling(false);
  support::profile_reset();

  // The Action-sink path fans out too (distinct outer bindings only, so a
  // concurrently-invoked accumulate into disjoint rows is safe).
  std::fill(y.begin(), y.end(), 0.0);
  auto before = support::metrics_snapshot();
  ParallelRunner runner(link_plan(k.plan(), k.query()), 4);
  EngineRun pa;
  runner.run(multiply_accumulate(k.query(), target, factors), &pa.stats);
  pa.deltas = exec_delta(before, support::metrics_snapshot());
  expect_same_work(ir, pa);
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_EQ(y[i], y_interp[i]);
}

INSTANTIATE_TEST_SUITE_P(AllStorages, ParallelSweep,
                         ::testing::ValuesIn(make_edge_cases()), case_name);

// ---- Stored index ranges: one link-time scan, checked by brute force --

// Widens `r` by every index the cursors of level `depth` of `v` enumerate,
// walked from parent `parent` at level `d` through every position the
// structure holds.
void cursor_range(const relation::RelationView& v, index_t depth, index_t d,
                  index_t parent, IndexRange& r) {
  relation::Cursor c;
  relation::CursorBuffer buf;
  v.level(d).begin_cursor(parent, c, buf);
  for (; c.valid(); c.advance()) {
    if (d < depth) {
      cursor_range(v, depth, d + 1, c.pos(), r);
      continue;
    }
    const index_t idx = c.index();
    r = r.empty() ? IndexRange{idx, idx}
                  : IndexRange{std::min(r.mn, idx), std::max(r.mx, idx)};
  }
}

// Every enumerate level over a flat driver stores exactly the brute-force
// range of its driver's cursors; merge levels and opaque drivers store
// nothing. Returns how many levels were checked.
std::size_t expect_stored_ranges(const LinkedPlan& lp) {
  std::size_t checked = 0;
  for (std::size_t d = 0; d < lp.levels.size(); ++d) {
    const LinkedLevel& lv = lp.levels[d];
    const LinkedAccess& a = lv.drivers[0];
    if (lv.method != JoinMethod::kEnumerate ||
        a.desc.kind == relation::LevelDescriptor::Kind::kOpaque) {
      EXPECT_TRUE(lv.range.empty()) << "level " << d;
      continue;
    }
    IndexRange want;
    cursor_range(*lp.query->relations[static_cast<std::size_t>(a.rel)].view,
                 a.depth, 0, 0, want);
    EXPECT_EQ(lv.range.empty(), want.empty()) << "level " << d;
    if (!want.empty()) {
      EXPECT_EQ(lv.range.mn, want.mn) << "level " << d;
      EXPECT_EQ(lv.range.mx, want.mx) << "level " << d;
    }
    ++checked;
  }
  return checked;
}

// ---- Bulk leaf-range drains: fused loop vs per-tuple callbacks ------

// The bulk path (set_bulk_drain(true), the default) streams a contiguous
// leaf range into the accumulate as one fused loop. The contract is the
// same as everywhere else in this file: against the per-tuple path it
// must be bitwise-identical in outputs AND indistinguishable in every
// observable — executor.* counter deltas, fan-out histogram deltas and
// per-level enumerated/produced totals, because the bulk booking settles
// probe hits from the enumerated index range instead of per element.
class BulkDrainSweep : public ::testing::TestWithParam<Case> {};

TEST_P(BulkDrainSweep, BulkPathIndistinguishableFromPerTuple) {
  const Case& c = GetParam();
  SplitMix64 rng(c.seed);
  Coo coo = case_matrix(c);

  Vector x(static_cast<std::size_t>(c.cols));
  for (auto& v : x) v = rng.next_double(-1, 1);
  Vector y(static_cast<std::size_t>(c.rows), 0.0);

  formats::Csr csr = formats::Csr::from_coo(coo);
  formats::Ccs ccs = formats::Ccs::from_coo(coo);
  formats::Ell ell = formats::Ell::from_coo(coo);
  formats::Bsr bsr = formats::Bsr::from_coo(coo, block_for(c.rows, c.cols));
  formats::Sell sell = formats::Sell::from_coo(coo, 4, 8);
  formats::Dense dm = formats::Dense::from_coo(coo);
  relation::CsrView csr_base("A", csr);
  relation::HashIndexedView hashed(csr_base, 1);

  Bindings b;
  switch (c.storage) {
    case Storage::kCsr: b.bind_csr("A", csr); break;
    case Storage::kCcs: b.bind_ccs("A", ccs); break;
    case Storage::kCoo: b.bind_coo("A", coo); break;
    case Storage::kEll: b.bind_ell("A", ell); break;
    case Storage::kBsr: b.bind_bsr("A", bsr); break;
    case Storage::kSell: b.bind_sell("A", sell); break;
    case Storage::kDenseMatrix: b.bind_dense_matrix("A", dm); break;
    case Storage::kCsrHashed:
      b.bind_view("A", &hashed, {0, 1}, /*sparse=*/true);
      break;
  }
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));

  LoopNest nest{{{"i", c.rows}, {"j", c.cols}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
  CompiledKernel k = compile(nest, b);
  const index_t target = 1;
  const std::vector<index_t> factors{2, 3};

  // The ranges the drains' all-hit proofs read are the cursors' own; only
  // the hash-indexed view has an opaque (unscannable) level.
  const std::size_t checked =
      expect_stored_ranges(link_plan(k.plan(), k.query()));
  if (c.storage != Storage::kCsrHashed) {
    EXPECT_EQ(checked, 2u);
  }

  // Reference: per-tuple callbacks, bulk drains disabled. Profiling is on
  // for both runs: the drains book their work under their own drain kind,
  // but each level's total work must match the per-tuple path's.
  support::set_profiling(true);
  support::profile_reset();
  set_bulk_drain(false);
  auto hb_slow = support::metrics_snapshot().log2;
  EngineRun slow = run_linked_mac(k.plan(), k.query(), target, factors);
  auto slow_fanout =
      fanout_delta(hb_slow, support::metrics_snapshot().log2);
  const support::ProfileSnapshot slow_prof = support::profile_snapshot();
  Vector y_slow = y;

  // Bulk drains back on (the process default) and profiling off before
  // any assertion can bail out of the test body.
  set_bulk_drain(true);
  support::profile_reset();
  std::fill(y.begin(), y.end(), 0.0);
  auto hb_fast = support::metrics_snapshot().log2;
  EngineRun fast = run_linked_mac(k.plan(), k.query(), target, factors);
  const support::ProfileSnapshot fast_prof = support::profile_snapshot();
  support::set_profiling(false);
  support::profile_reset();

  expect_same_work(slow, fast);
  EXPECT_EQ(slow_fanout,
            fanout_delta(hb_fast, support::metrics_snapshot().log2));
  for (int d = 0; d < support::kProfileMaxLevels; ++d)
    EXPECT_EQ(slow_prof.level_work(d), fast_prof.level_work(d))
        << "level " << d;
  for (std::size_t i = 0; i < y.size(); ++i)
    EXPECT_EQ(y[i], y_slow[i]) << "row " << i;  // bitwise
}

INSTANTIATE_TEST_SUITE_P(AllStorages, BulkDrainSweep,
                         ::testing::ValuesIn(make_edge_cases()), case_name);

// SELL-C-sigma padding lanes hold column 0 but are never enumerated, so
// they must not widen the stored range: with every column at least 3 the
// leaf's range starts at the smallest real column, and the I filter at
// that level is still proved.
TEST(StoredRange, SellPaddingDoesNotWidenTheRange) {
  const index_t rows = 12, cols = 16;
  TripletBuilder tb(rows, cols);
  for (index_t i = 0; i < rows; ++i)
    for (index_t k = 0; k <= (i % 4 == 0 ? 9 : i % 3); ++k)
      tb.add(i, 3 + (i + k) % (cols - 3), 1.0);
  const Coo coo = std::move(tb).build();
  const formats::Sell sell = formats::Sell::from_coo(coo, 4, 4);
  ASSERT_GT(sell.stored(), sell.nnz()) << "case must exercise padding";
  Vector x(static_cast<std::size_t>(cols), 1.0);
  Vector y(static_cast<std::size_t>(rows), 0.0);
  Bindings b;
  b.bind_sell("A", sell);
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));
  LoopNest nest{{{"i", rows}, {"j", cols}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
  const CompiledKernel k = compile(nest, b);
  const LinkedPlan lp = link_plan(k.plan(), k.query());
  ASSERT_EQ(lp.levels.size(), 2u);
  EXPECT_EQ(expect_stored_ranges(lp), 2u);
  EXPECT_EQ(lp.levels[1].range.mn, 3);
  EXPECT_EQ(lp.levels[1].range.mx, cols - 1);
  EXPECT_TRUE(lp.levels[1].proved_all_hit);
}

// ---- Affine-lowered outer drain: drains on vs off -------------------

// The fused outer-range drain computes every level-0 position from an
// affine lowering instead of resolving probes per row, and books probe
// hits in bulk. Against the per-row path (set_bulk_drain(false)) it
// must stay indistinguishable: bitwise outputs, executor.* deltas
// (probe_hits included), fan-out histogram deltas, per-level RunStats
// and per-level profile work.

// Pareto-skewed row lengths (shape 1.2, minimum 2, capped at cols) with
// every fifth row and a run of twelve rows empty. Columns within a row
// step by 7 from a random start, distinct while cols is coprime to 7.
Coo pareto_matrix(index_t rows, index_t cols, std::uint64_t seed) {
  SplitMix64 rng(seed);
  TripletBuilder b(rows, cols);
  for (index_t i = 0; i < rows; ++i) {
    const double u = rng.next_double(1e-6, 1.0);
    if (i % 5 == 2 || (i >= 40 && i < 52)) continue;
    const index_t len = std::min<index_t>(
        cols, static_cast<index_t>(2.0 / std::pow(u, 1.0 / 1.2)));
    const index_t start = rng.next_index(cols);
    for (index_t k = 0; k < len; ++k)
      b.add(i, (start + k * 7) % cols, rng.next_double(-1.0, 1.0));
  }
  return std::move(b).build();
}

// One run's observables.
struct DrainRun {
  Vector y;
  EngineRun run;
  std::map<std::string, std::vector<long long>> fanout;
  std::vector<long long> level_work;  // per level
  std::vector<long long> kind_work;   // per (level, drain kind)
  std::string note;                   // ParallelRunner::run_note()
};

// How run_drains runs the mac: threads == 1 on a LinkedRunner, else on a
// ParallelRunner of that width; drains on or off; profiled or not; with
// the mac's scale.
struct DrainMode {
  bool drains = true;
  int threads = 1;
  bool profiled = true;
  value_t scale = 1.0;
};

// Runs the mac once in `mode`, starting y from y0.
DrainRun run_drains(const DrainMode& mode, const CompiledKernel& k,
                    const std::vector<index_t>& factors, Vector& y,
                    const Vector& y0) {
  DrainRun out;
  y = y0;
  set_bulk_drain(mode.drains);
  support::set_profiling(mode.profiled);
  support::profile_reset();
  auto before = support::metrics_snapshot();
  const auto& hb = before.log2;
  const LinkedMac mac = link_mac(k.query(), 1, factors, mode.scale);
  if (mode.threads == 1) {
    LinkedRunner runner(link_plan(k.plan(), k.query()));
    runner.run(mac, &out.run.stats);
  } else {
    ParallelRunner runner(link_plan(k.plan(), k.query()), mode.threads);
    runner.run(mac, &out.run.stats);
    out.note = runner.run_note();
  }
  out.run.deltas = exec_delta(before, support::metrics_snapshot());
  out.fanout = fanout_delta(hb, support::metrics_snapshot().log2);
  const support::ProfileSnapshot prof = support::profile_snapshot();
  for (int d = 0; d < support::kProfileMaxLevels; ++d)
    out.level_work.push_back(prof.level_work(d));
  out.kind_work = profile_work(prof);
  support::set_profiling(false);
  support::profile_reset();
  set_bulk_drain(true);
  out.y = y;
  return out;
}

// Drains on or off at `threads`, profiled, unit scale.
DrainRun run_drains(bool drains, int threads, const CompiledKernel& k,
                    const std::vector<index_t>& factors, Vector& y,
                    const Vector& y0) {
  return run_drains(DrainMode{drains, threads}, k, factors, y, y0);
}

void expect_same_drain_run(const DrainRun& off, const DrainRun& on,
                           const std::string& label) {
  SCOPED_TRACE(label);
  expect_same_work(off.run, on.run);
  EXPECT_EQ(off.fanout, on.fanout);
  EXPECT_EQ(off.level_work, on.level_work);
  ASSERT_EQ(off.y.size(), on.y.size());
  for (std::size_t i = 0; i < off.y.size(); ++i)
    EXPECT_EQ(on.y[i], off.y[i]) << "row " << i;  // bitwise
}

Vector random_vector(std::size_t n, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Vector v(n);
  for (auto& e : v) e = rng.next_double(-1, 1);
  return v;
}

// The four formats the outer drains serve, bound as "A".
void bind_outer_format(Bindings& b, Storage s, const formats::Csr& csr,
                       const formats::Ccs& ccs, const formats::Bsr& bsr,
                       const formats::Sell& sell) {
  switch (s) {
    case Storage::kCsr: b.bind_csr("A", csr); break;
    case Storage::kCcs: b.bind_ccs("A", ccs); break;
    case Storage::kBsr: b.bind_bsr("A", bsr); break;
    case Storage::kSell: b.bind_sell("A", sell); break;
    default: FAIL() << "not an outer-drain format";
  }
}

constexpr Storage kOuterFormats[] = {Storage::kCsr, Storage::kCcs,
                                     Storage::kBsr, Storage::kSell};

// Skewed rows with empty rows, every thread count: ParallelRunner clamps
// each chunk's level-0 cursor to a nonzero start, so the lowered offsets
// must hold at any k0, and BCSR's carried block-row counters must start
// mid-range correctly.
TEST(OuterDrains, ParetoRowsMatchPerRowPathAtEveryThreadCount) {
  const index_t rows = 200, cols = 96;
  const Coo coo = pareto_matrix(rows, cols, 4242);
  const formats::Csr csr = formats::Csr::from_coo(coo);
  const formats::Ccs ccs = formats::Ccs::from_coo(coo);
  const formats::Bsr bsr = formats::Bsr::from_coo(coo, 4);
  const formats::Sell sell = formats::Sell::from_coo(coo, 4, 8);
  const Vector x = random_vector(static_cast<std::size_t>(cols), 11);
  const Vector y0 = random_vector(static_cast<std::size_t>(rows), 12);
  for (Storage s : kOuterFormats) {
    Vector y(y0.size());
    Bindings b;
    bind_outer_format(b, s, csr, ccs, bsr, sell);
    b.bind_dense_vector("X", ConstVectorView(x));
    b.bind_dense_vector("Y", VectorView(y));
    LoopNest nest{{{"i", rows}, {"j", cols}},
                  {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
    const CompiledKernel k = compile(nest, b);
    const DrainRun ref = run_drains(false, 1, k, {2, 3}, y, y0);
    EXPECT_GT(ref.run.deltas.at("executor.probe_hits"), rows);
    for (int threads : {1, 2, 4, 8}) {
      const std::string label =
          storage_name(s) + " threads=" + std::to_string(threads);
      expect_same_drain_run(ref, run_drains(false, threads, k, {2, 3}, y, y0),
                            label + " drains off");
      expect_same_drain_run(ref, run_drains(true, threads, k, {2, 3}, y, y0),
                            label + " drains on");
    }
  }
}

// y += A y: the factor vector IS the target, so a drain must re-read
// every factor element after the stores before it, exactly like the
// per-tuple path (the column-major scatter reads y[j] while writing y[i]).
TEST(LinkedExec, AliasedTargetAndFactorMatchPerTuplePath) {
  const index_t n = 96;
  const Coo coo = pareto_matrix(n, n, 27);
  const formats::Csr csr = formats::Csr::from_coo(coo);
  const formats::Ccs ccs = formats::Ccs::from_coo(coo);
  const formats::Bsr bsr = formats::Bsr::from_coo(coo, 4);
  const formats::Sell sell = formats::Sell::from_coo(coo, 4, 8);
  const Vector y0 = random_vector(static_cast<std::size_t>(n), 28);
  for (Storage s : kOuterFormats) {
    Vector y(y0.size());
    Bindings b;
    bind_outer_format(b, s, csr, ccs, bsr, sell);
    b.bind_dense_vector("X", ConstVectorView(y));
    b.bind_dense_vector("Y", VectorView(y));
    LoopNest nest{{{"i", n}, {"j", n}},
                  {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
    const CompiledKernel k = compile(nest, b);
    expect_same_drain_run(run_drains(false, 1, k, {2, 3}, y, y0),
                          run_drains(true, 1, k, {2, 3}, y, y0),
                          storage_name(s) + " aliased");
  }
}

// A dense vector whose root level describes itself as dense with stride
// 3, so a probe into it lowers to an affine search (pos = parent·3 + idx
// with the root parent 0) rather than an identity one.
class StridedRootLevel final : public relation::IndexLevel {
 public:
  explicit StridedRootLevel(index_t n) : n_(n) {}
  relation::LevelProperties properties() const override {
    return {/*sorted=*/true, /*dense=*/true, relation::SearchCost::kConstant};
  }
  void enumerate(index_t parent, const relation::EnumFn& fn) const override {
    for (index_t i = 0; i < n_; ++i)
      if (!fn(i, parent * 3 + i)) return;
  }
  index_t search(index_t parent, index_t idx) const override {
    return idx >= 0 && idx < n_ ? parent * 3 + idx : -1;
  }
  double expected_size() const override { return static_cast<double>(n_); }
  relation::LevelDescriptor describe() const override {
    relation::LevelDescriptor d;
    d.kind = relation::LevelDescriptor::Kind::kDense;
    d.extent = n_;
    d.stride = 3;
    return d;
  }

 private:
  index_t n_;
};

class StridedRootVector final : public relation::RelationView {
 public:
  StridedRootVector(std::string name, Vector& v)
      : name_(std::move(name)),
        v_(v),
        level_(static_cast<index_t>(v.size())) {}
  std::string name() const override { return name_; }
  index_t arity() const override { return 1; }
  const relation::IndexLevel& level(index_t) const override { return level_; }
  bool has_value() const override { return true; }
  value_t value_at(index_t pos) const override {
    return v_[static_cast<std::size_t>(pos)];
  }
  bool writable() const override { return true; }
  void value_add(index_t pos, value_t d) override {
    v_[static_cast<std::size_t>(pos)] += d;
  }
  void value_set(index_t pos, value_t x) override {
    v_[static_cast<std::size_t>(pos)] = x;
  }
  std::span<const value_t> value_array() const override { return v_; }
  std::span<value_t> value_array_mut() override { return v_; }

 private:
  std::string name_;
  Vector& v_;
  StridedRootLevel level_;
};

// Operands bound at level 0 through affine forms: a dense matrix factor
// B[i,j] (its leaf position is row·cols + j, so the lowered base steps by
// cols per row), with two factors (the general pair form) and three (the
// n-ary form), and a target whose level-0 probe is affine with stride 3.
TEST(OuterDrains, AffineOperandsMatchPerRowPath) {
  const index_t rows = 48, cols = 36;
  const Coo coo = pareto_matrix(rows, cols, 515);
  const formats::Csr csr = formats::Csr::from_coo(coo);
  const formats::Ccs ccs = formats::Ccs::from_coo(coo);
  const formats::Bsr bsr = formats::Bsr::from_coo(coo, 4);
  const formats::Sell sell = formats::Sell::from_coo(coo, 4, 8);
  formats::Dense bm =
      formats::Dense::from_coo(random_matrix(rows, cols, 900, 516));
  const Vector x = random_vector(static_cast<std::size_t>(cols), 517);
  const Vector y0 = random_vector(static_cast<std::size_t>(rows), 518);
  for (Storage s : kOuterFormats) {
    Vector y(y0.size());
    StridedRootVector strided("Y", y);
    for (int shape = 0; shape < 3; ++shape) {
      Bindings b;
      bind_outer_format(b, s, csr, ccs, bsr, sell);
      b.bind_dense_matrix("B", bm);
      b.bind_dense_vector("X", ConstVectorView(x));
      std::vector<ArrayRef> factors{{"A", {"i", "j"}}, {"B", {"i", "j"}}};
      std::vector<index_t> slots{2, 3};
      if (shape == 1) {
        factors.push_back({"X", {"j"}});
        slots.push_back(4);
      }
      if (shape == 2) {
        b.bind_view("Y", &strided, {0}, /*sparse=*/false);
        factors = {{"A", {"i", "j"}}, {"X", {"j"}}};
      } else {
        b.bind_dense_vector("Y", VectorView(y));
      }
      LoopNest nest{{{"i", rows}, {"j", cols}}, {{"Y", {"i"}}, factors, 1.0}};
      const CompiledKernel k = compile(nest, b);
      const std::string label =
          storage_name(s) + " shape " + std::to_string(shape);
      const DrainRun off = run_drains(false, 1, k, slots, y, y0);
      expect_same_drain_run(off, run_drains(true, 1, k, slots, y, y0), label);
      expect_same_drain_run(off, run_drains(true, 4, k, slots, y, y0),
                            label + " threads=4");
    }
  }
}

// ---- Owner-computes CCS: rows of Y split across the threads ---------

// Pareto-skewed rows (pareto_matrix) plus the transpose of a second
// Pareto matrix, so a few hub rows and hub columns hold most entries.
Coo pareto_rows_and_cols(index_t rows, index_t cols, std::uint64_t seed) {
  const Coo a = pareto_matrix(rows, cols, seed);
  const Coo t = pareto_matrix(cols, rows, seed + 1);
  TripletBuilder b(rows, cols);
  for (index_t e = 0; e < a.nnz(); ++e)
    b.add(a.rowind()[static_cast<std::size_t>(e)],
          a.colind()[static_cast<std::size_t>(e)],
          a.vals()[static_cast<std::size_t>(e)]);
  for (index_t e = 0; e < t.nnz(); ++e)
    b.add(t.colind()[static_cast<std::size_t>(e)],
          t.rowind()[static_cast<std::size_t>(e)],
          t.vals()[static_cast<std::size_t>(e)]);
  return std::move(b).build();
}

// Random entries with every third row, every fourth column and the first
// and last five columns left empty.
Coo holey_matrix(index_t rows, index_t cols, std::uint64_t seed) {
  SplitMix64 rng(seed);
  TripletBuilder b(rows, cols);
  for (index_t e = 0; e < rows * 4; ++e) {
    const index_t i = rng.next_index(rows);
    const index_t j = rng.next_index(cols);
    if (i % 3 == 0 || j % 4 == 1 || j < 5 || j >= cols - 5) continue;
    b.add(i, j, rng.next_double(-1.0, 1.0));
  }
  return std::move(b).build();
}

// y += scale · A·x (· s[i] when three_factors) with A in CCS, through
// ParallelRunner at 1, 2, 3, 4 and 8 threads, profiled and not, against
// the serial linked engine: bitwise y, executor.* deltas, fan-out at both
// levels, per-level RunStats and per-(level, drain kind) profile work.
void expect_owner_matches_serial(const Coo& coo, bool three_factors,
                                 value_t scale, const std::string& label) {
  const index_t rows = coo.rows(), cols = coo.cols();
  const formats::Ccs ccs = formats::Ccs::from_coo(coo);
  const Vector x = random_vector(static_cast<std::size_t>(cols), 61);
  const Vector s = random_vector(static_cast<std::size_t>(rows), 62);
  const Vector y0 = random_vector(static_cast<std::size_t>(rows), 63);
  Vector y(y0.size());
  Bindings b;
  b.bind_ccs("A", ccs);
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("S", ConstVectorView(s));
  b.bind_dense_vector("Y", VectorView(y));
  std::vector<ArrayRef> factors{{"A", {"i", "j"}}, {"X", {"j"}}};
  std::vector<index_t> slots{2, 3};
  if (three_factors) {
    factors.push_back({"S", {"i"}});
    slots.push_back(4);
  }
  LoopNest nest{{{"i", rows}, {"j", cols}}, {{"Y", {"i"}}, factors, scale}};
  const CompiledKernel k = compile(nest, b);
  const LinkedPlan lp = link_plan(k.plan(), k.query());
  ASSERT_TRUE(lp.parallel_ok && lp.owner_computes) << lp.parallel_note;
  for (bool profiled : {true, false}) {
    DrainMode serial{true, 1, profiled, scale};
    const DrainRun ref = run_drains(serial, k, slots, y, y0);
    for (int threads : {1, 2, 3, 4, 8}) {
      DrainMode mode = serial;
      mode.threads = threads;
      const DrainRun got = run_drains(mode, k, slots, y, y0);
      const std::string where = label + " threads=" +
                                std::to_string(threads) +
                                (profiled ? " profiled" : "");
      expect_same_drain_run(ref, got, where);
      EXPECT_EQ(ref.kind_work, got.kind_work) << where;
      // With nothing stored A has no value array, so even the serial
      // engine cannot take the fused drain.
      if (threads > 1) {
        EXPECT_EQ(got.note,
                  coo.nnz() > 0 ? ""
                                : "the multiply-accumulate does not take "
                                  "the fused drain owner-computes runs")
            << where;
      }
    }
  }
}

TEST(OwnerComputes, ParetoRowsAndColumnsMatchSerialEngine) {
  expect_owner_matches_serial(pareto_rows_and_cols(220, 170, 4343), false,
                              1.0, "pareto");
}

TEST(OwnerComputes, EmptyRowsAndColumnsMatchSerialEngine) {
  expect_owner_matches_serial(holey_matrix(90, 70, 4444), false, 1.0,
                              "holey");
  // Nothing stored at all: every partition is empty.
  expect_owner_matches_serial(TripletBuilder(12, 9).build(), false, 1.0,
                              "empty");
}

TEST(OwnerComputes, FewerRowsThanThreadsMatchSerialEngine) {
  expect_owner_matches_serial(random_matrix(3, 40, 70, 4545), false, 1.0,
                              "3 rows");
}

TEST(OwnerComputes, SingleRowAndSingleColumnMatchSerialEngine) {
  expect_owner_matches_serial(random_matrix(1, 64, 40, 4646), false, 1.0,
                              "1 x 64");
  expect_owner_matches_serial(random_matrix(64, 1, 40, 4747), false, 1.0,
                              "64 x 1");
}

TEST(OwnerComputes, ScaledThreeFactorMacMatchesSerialEngine) {
  expect_owner_matches_serial(pareto_rows_and_cols(120, 90, 4848), true,
                              -0.75, "A x s, scale -0.75");
}

// The owner-computes runner runs serially — bitwise and counter-identical
// to the serial engine — where it cannot split Y, and names why: for
// run(Action), for y += A·y (the factor IS the target), and with the bulk
// drains switched off.
TEST(OwnerComputes, SerialCasesNameTheirReason) {
  const index_t n = 80;
  const Coo coo = pareto_rows_and_cols(n, n, 4949);
  const formats::Ccs ccs = formats::Ccs::from_coo(coo);
  const Vector x = random_vector(static_cast<std::size_t>(n), 50);
  const Vector y0 = random_vector(static_cast<std::size_t>(n), 51);
  Vector y(y0.size());
  LoopNest nest{{{"i", n}, {"j", n}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};

  // Aliased: X binds Y's storage.
  {
    Bindings b;
    b.bind_ccs("A", ccs);
    b.bind_dense_vector("X", ConstVectorView(y));
    b.bind_dense_vector("Y", VectorView(y));
    const CompiledKernel k = compile(nest, b);
    ParallelRunner runner(link_plan(k.plan(), k.query()), 4);
    EXPECT_TRUE(runner.parallel());
    const DrainRun ref = run_drains(true, 1, k, {2, 3}, y, y0);
    const DrainRun got = run_drains(true, 4, k, {2, 3}, y, y0);
    expect_same_drain_run(ref, got, "aliased");
    EXPECT_EQ(got.note,
              "target Y overlaps factor X; owner-computes needs an "
              "alias-free target");
  }

  Bindings b;
  b.bind_ccs("A", ccs);
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));
  const CompiledKernel k = compile(nest, b);

  // Drains off: the per-row path, serially.
  {
    const DrainRun ref = run_drains(false, 1, k, {2, 3}, y, y0);
    const DrainRun got = run_drains(false, 4, k, {2, 3}, y, y0);
    expect_same_drain_run(ref, got, "drains off");
    EXPECT_EQ(got.note,
              "bulk drains are switched off; owner-computes runs the fused "
              "drain");
  }

  // run(Action): the action may touch anything, so no split is safe.
  {
    y = y0;
    const EngineRun ref = run_linked(
        k.plan(), k.query(), multiply_accumulate(k.query(), 1, {2, 3}));
    const Vector want = y;
    y = y0;
    ParallelRunner runner(link_plan(k.plan(), k.query()), 4);
    auto before = support::metrics_snapshot();
    EngineRun got;
    runner.run(multiply_accumulate(k.query(), 1, {2, 3}), &got.stats);
    got.deltas = exec_delta(before, support::metrics_snapshot());
    expect_same_work(ref, got);
    EXPECT_EQ(runner.run_note(),
              "owner-computes runs only the multiply-accumulate; "
              "run(Action) runs serially");
    for (std::size_t i = 0; i < y.size(); ++i) EXPECT_EQ(y[i], want[i]);
    // A later mac run fans out again and clears the note.
    runner.run(link_mac(k.query(), 1, {2, 3}));
    EXPECT_EQ(runner.run_note(), "");
  }
}

// ---- BCSR block-row drain --------------------------------------------

// Square r x r blocks with block rows 2 and 3 empty, under a loop one row
// short of the matrix, so the last block row is partial: the block-row
// form (r = 2, 3, 4) and the per-row walk (r = 5) must match the per-row
// path (drains off) serially and at 2, 4 and 8 threads.
TEST(OuterDrains, BcsrBlockRowsMatchPerRowPath) {
  for (index_t r : {2, 3, 4, 5}) {
    const index_t n = 10 * r, cols = 7 * r;
    const index_t rows = n - 1;  // loop extent
    SplitMix64 rng(static_cast<std::uint64_t>(600 + r));
    TripletBuilder tb(n, cols);
    for (index_t e = 0; e < n * 6; ++e) {
      const index_t i = rng.next_index(n);
      if (i / r == 2 || i / r == 3) continue;
      tb.add(i, rng.next_index(cols), rng.next_double(-1.0, 1.0));
    }
    // The partial last block row holds entries inside the loop.
    tb.add(rows - 1, cols - 1, 0.5);
    const Coo coo = std::move(tb).build();
    const formats::Bsr bsr = formats::Bsr::from_coo(coo, r);
    const Vector x = random_vector(static_cast<std::size_t>(cols), 70);
    const Vector y0 = random_vector(static_cast<std::size_t>(n), 71);
    Vector y(y0.size());
    Bindings b;
    b.bind_bsr("A", bsr);
    b.bind_dense_vector("X", ConstVectorView(x));
    b.bind_dense_vector("Y", VectorView(y));
    LoopNest nest{{{"i", rows}, {"j", cols}},
                  {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
    const CompiledKernel k = compile(nest, b);
    const DrainRun ref = run_drains(false, 1, k, {2, 3}, y, y0);
    for (int threads : {1, 2, 4, 8})
      expect_same_drain_run(
          ref, run_drains(true, threads, k, {2, 3}, y, y0),
          "bcsr " + std::to_string(r) + "x" + std::to_string(r) +
              " threads=" + std::to_string(threads));
  }
}

// ---- Profiling is a pure observer -----------------------------------

// Turning the per-level profiler on (support/profile.hpp) must not
// perturb a single observable of the linked engine: outputs stay
// bitwise-identical and executor.* counter deltas, fan-out histogram
// deltas and per-level enumerated/produced totals are unchanged — the
// profiler writes only to its own scratch, never to the run's state.
class ProfilingSweep : public ::testing::TestWithParam<Case> {};

TEST_P(ProfilingSweep, ProfiledRunIndistinguishableFromUnprofiled) {
  const Case& c = GetParam();
  SplitMix64 rng(c.seed);
  Coo coo = random_matrix(c.rows, c.cols, c.nnz, c.seed);

  Vector x(static_cast<std::size_t>(c.cols));
  for (auto& v : x) v = rng.next_double(-1, 1);
  Vector y(static_cast<std::size_t>(c.rows), 0.0);

  formats::Csr csr = formats::Csr::from_coo(coo);
  formats::Ccs ccs = formats::Ccs::from_coo(coo);
  formats::Ell ell = formats::Ell::from_coo(coo);
  formats::Bsr bsr = formats::Bsr::from_coo(coo, block_for(c.rows, c.cols));
  formats::Sell sell = formats::Sell::from_coo(coo, 4, 8);
  formats::Dense dm = formats::Dense::from_coo(coo);
  relation::CsrView csr_base("A", csr);
  relation::HashIndexedView hashed(csr_base, 1);

  Bindings b;
  switch (c.storage) {
    case Storage::kCsr: b.bind_csr("A", csr); break;
    case Storage::kCcs: b.bind_ccs("A", ccs); break;
    case Storage::kCoo: b.bind_coo("A", coo); break;
    case Storage::kEll: b.bind_ell("A", ell); break;
    case Storage::kBsr: b.bind_bsr("A", bsr); break;
    case Storage::kSell: b.bind_sell("A", sell); break;
    case Storage::kDenseMatrix: b.bind_dense_matrix("A", dm); break;
    case Storage::kCsrHashed:
      b.bind_view("A", &hashed, {0, 1}, /*sparse=*/true);
      break;
  }
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));

  LoopNest nest{{{"i", c.rows}, {"j", c.cols}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
  CompiledKernel k = compile(nest, b);
  const index_t target = 1;
  const std::vector<index_t> factors{2, 3};

  // Reference: profiling off (the process default).
  auto hb_plain = support::metrics_snapshot().log2;
  EngineRun plain = run_linked_mac(k.plan(), k.query(), target, factors);
  auto plain_fanout =
      fanout_delta(hb_plain, support::metrics_snapshot().log2);
  Vector y_plain = y;

  // Profiling on — restored before any assertion can bail out of the
  // test body.
  support::set_profiling(true);
  std::fill(y.begin(), y.end(), 0.0);
  auto hb_prof = support::metrics_snapshot().log2;
  EngineRun prof = run_linked_mac(k.plan(), k.query(), target, factors);
  support::set_profiling(false);
  support::profile_reset();

  expect_same_work(plain, prof);
  EXPECT_EQ(plain_fanout,
            fanout_delta(hb_prof, support::metrics_snapshot().log2));
  for (std::size_t i = 0; i < y.size(); ++i)
    EXPECT_EQ(y[i], y_plain[i]) << "row " << i;  // bitwise
}

INSTANTIATE_TEST_SUITE_P(AllStorages, ProfilingSweep,
                         ::testing::ValuesIn(make_cases()),
                         [](const ::testing::TestParamInfo<Case>& info) {
                           const Case& c = info.param;
                           std::ostringstream os;
                           os << storage_name(c.storage) << "_" << c.rows
                              << "x" << c.cols << "_nnz" << c.nnz;
                           return os.str();
                         });

// ---- BCSR and SELL-C-sigma vs the CRS reference, every rung ---------

// The acceptance contract for the blocked/sliced level kinds: the same
// matvec through BCSR or SELL storage must reproduce the CRS reference
// bitwise at every rung of the engine ladder — interpreted, linked
// (bulk drains on, the default), linked + threads, and specialized
// (dlopen) whenever a toolchain is available. Beyond bitwise outputs
// the SELL case also pins the observables to CRS's: SELL enumerates
// exactly nnz entries on ANY matrix (padding lanes sit beyond every
// row's ROWLEN and are never enumerated), so its executor.* counter
// deltas, fan-out histogram deltas and per-level stats are equal to the
// CRS run's, not merely internally consistent. BCSR is bitwise-equal to
// CRS only when no block-fill zeros exist (ascending block columns then
// enumerate the very same (j, value) sequence), so its matrix here is
// block-dense by construction.

struct RungRef {
  Vector y;                                             // bitwise reference
  EngineRun linked;                                     // serial linked run
  std::map<std::string, std::vector<long long>> fanout; // its fan-out delta
};

// Compiles the canonical i,j matvec over `b` and drives it through all
// four rungs, asserting every rung reproduces `y_ref` bitwise (when
// y_ref is null the serial linked run defines the reference). Returns
// the serial linked observables for cross-format comparison.
RungRef drive_all_rungs(Bindings& b, index_t rows, index_t cols, Vector& y,
                        const Vector* y_ref, const std::string& label) {
  LoopNest nest{{{"i", rows}, {"j", cols}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
  CompiledKernel k = compile(nest, b);
  const index_t target = 1;
  const std::vector<index_t> factors{2, 3};

  // Serial linked rung (bulk drains on) — the rung whose observables we
  // hand back, and the in-test reference when none was supplied.
  std::fill(y.begin(), y.end(), 0.0);
  auto hb = support::metrics_snapshot().log2;
  RungRef ref;
  ref.linked = run_linked_mac(k.plan(), k.query(), target, factors);
  ref.fanout = fanout_delta(hb, support::metrics_snapshot().log2);
  ref.y = y;
  const Vector& want = y_ref ? *y_ref : ref.y;
  for (std::size_t i = 0; i < y.size(); ++i)
    EXPECT_EQ(y[i], want[i]) << label << " linked row " << i;

  // Interpreted rung: bitwise outputs and identical work accounting.
  std::fill(y.begin(), y.end(), 0.0);
  EngineRun ir =
      run_interpreted(k.plan(), k.query(),
                      multiply_accumulate(k.query(), target, factors));
  expect_same_work(ir, ref.linked);
  for (std::size_t i = 0; i < y.size(); ++i)
    EXPECT_EQ(y[i], want[i]) << label << " interpreted row " << i;

  // Threaded rung (exercises the block-aligned chunk grid for BCSR).
  for (int threads : {2, 4}) {
    std::fill(y.begin(), y.end(), 0.0);
    auto cb_t = support::metrics_snapshot();
    const auto& hb_t = cb_t.log2;
    ParallelRunner runner(link_plan(k.plan(), k.query()), threads);
    EngineRun pr;
    runner.run(link_mac(k.query(), target, factors), &pr.stats);
    pr.deltas = exec_delta(cb_t, support::metrics_snapshot());
    expect_same_work(ref.linked, pr);
    EXPECT_EQ(ref.fanout, fanout_delta(hb_t, support::metrics_snapshot().log2))
        << label << " threads=" << threads;
    for (std::size_t i = 0; i < y.size(); ++i)
      EXPECT_EQ(y[i], want[i])
          << label << " threads=" << threads << " row " << i;
  }

  // Specialized rung — emitted C through the system toolchain. Skipping
  // silently (rather than GTEST_SKIP) keeps the other rungs' assertions
  // meaningful on toolchain-less machines.
  LinkedPlan lp = link_plan(k.plan(), k.query());
  LinkedMac mac = link_mac(k.query(), target, factors);
  SpecializedKernel spec(lp, mac);
  if (spec.ok()) {
    std::fill(y.begin(), y.end(), 0.0);
    auto cb_s = support::metrics_snapshot();
    const auto& hb_s = cb_s.log2;
    EngineRun sr;
    spec.run(&sr.stats);
    sr.deltas = exec_delta(cb_s, support::metrics_snapshot());
    expect_same_work(ref.linked, sr);
    EXPECT_EQ(ref.fanout, fanout_delta(hb_s, support::metrics_snapshot().log2))
        << label << " specialized";
    for (std::size_t i = 0; i < y.size(); ++i)
      EXPECT_EQ(y[i], want[i]) << label << " specialized row " << i;
  }
  return ref;
}

TEST(BlockedSliced, SellMatchesCsrOnSkewedRowsAcrossAllRungs) {
  // Skewed row lengths: every 8th row is long, the rest short, so C=4
  // chunks mix lengths and SELL must pad heavily. Column step 5 is
  // coprime to cols, so each row's entries are distinct (no duplicate
  // merging changing the lengths).
  const index_t rows = 20, cols = 24;
  SplitMix64 rng(77);
  TripletBuilder tb(rows, cols);
  for (index_t i = 0; i < rows; ++i) {
    const index_t len = (i % 8 == 0) ? 20 : 1 + i % 4;
    for (index_t k = 0; k < len; ++k)
      tb.add(i, (i + k * 5) % cols, rng.next_double(-1, 1));
  }
  Coo coo = std::move(tb).build();

  formats::Csr csr = formats::Csr::from_coo(coo);
  formats::Sell sell = formats::Sell::from_coo(coo, 4, 8);
  ASSERT_GT(sell.stored(), sell.nnz()) << "case must exercise padding";

  Vector x(static_cast<std::size_t>(cols));
  for (auto& v : x) v = rng.next_double(-1, 1);
  Vector y(static_cast<std::size_t>(rows), 0.0);

  Bindings bc;
  bc.bind_csr("A", csr);
  bc.bind_dense_vector("X", ConstVectorView(x));
  bc.bind_dense_vector("Y", VectorView(y));
  RungRef csr_ref = drive_all_rungs(bc, rows, cols, y, nullptr, "csr");

  Bindings bs;
  bs.bind_sell("A", sell);
  bs.bind_dense_vector("X", ConstVectorView(x));
  bs.bind_dense_vector("Y", VectorView(y));
  RungRef sell_ref = drive_all_rungs(bs, rows, cols, y, &csr_ref.y, "sell");

  // Padding never books: SELL's observables equal CRS's exactly.
  EXPECT_EQ(csr_ref.linked.deltas, sell_ref.linked.deltas);
  EXPECT_EQ(csr_ref.fanout, sell_ref.fanout);
  EXPECT_EQ(csr_ref.linked.stats.tuples, sell_ref.linked.stats.tuples);
  ASSERT_EQ(csr_ref.linked.stats.levels.size(),
            sell_ref.linked.stats.levels.size());
  for (std::size_t d = 0; d < csr_ref.linked.stats.levels.size(); ++d) {
    EXPECT_EQ(csr_ref.linked.stats.levels[d].enumerated,
              sell_ref.linked.stats.levels[d].enumerated) << "level " << d;
    EXPECT_EQ(csr_ref.linked.stats.levels[d].produced,
              sell_ref.linked.stats.levels[d].produced) << "level " << d;
  }
}

TEST(BlockedSliced, BcsrMatchesCsrOnBlockDenseAcrossAllRungs) {
  // Block-dense 16x16 with 4x4 blocks: every stored block is full, so
  // BCSR introduces no fill zeros and enumerates the same (j, value)
  // sequence as CSR — the bitwise-equality precondition.
  const index_t n = 16, blk = 4;
  const index_t bpos[][2] = {{0, 0}, {0, 2}, {1, 1}, {1, 3},
                             {2, 0}, {2, 2}, {3, 1}, {3, 3}};
  SplitMix64 rng(91);
  TripletBuilder tb(n, n);
  for (const auto& bp : bpos)
    for (index_t r = 0; r < blk; ++r)
      for (index_t c = 0; c < blk; ++c)
        tb.add(bp[0] * blk + r, bp[1] * blk + c,
               (rng.next_double(0.0, 1.0) + 0.0625) *
                   ((r + c) % 2 ? -1.0 : 1.0));
  Coo coo = std::move(tb).build();

  formats::Csr csr = formats::Csr::from_coo(coo);
  formats::Bsr bsr = formats::Bsr::from_coo(coo, blk);
  ASSERT_EQ(bsr.stored(), csr.nnz()) << "matrix must be block-dense";

  Vector x(static_cast<std::size_t>(n));
  for (auto& v : x) v = rng.next_double(-1, 1);
  Vector y(static_cast<std::size_t>(n), 0.0);

  Bindings bc;
  bc.bind_csr("A", csr);
  bc.bind_dense_vector("X", ConstVectorView(x));
  bc.bind_dense_vector("Y", VectorView(y));
  RungRef csr_ref = drive_all_rungs(bc, n, n, y, nullptr, "csr");

  Bindings bb;
  bb.bind_bsr("A", bsr);
  bb.bind_dense_vector("X", ConstVectorView(x));
  bb.bind_dense_vector("Y", VectorView(y));
  RungRef bsr_ref = drive_all_rungs(bb, n, n, y, &csr_ref.y, "bsr");

  // No fill, so even the work accounting matches scalar CRS.
  EXPECT_EQ(csr_ref.linked.deltas, bsr_ref.linked.deltas);
  EXPECT_EQ(csr_ref.fanout, bsr_ref.fanout);
  EXPECT_EQ(csr_ref.linked.stats.tuples, bsr_ref.linked.stats.tuples);

  // The threaded rung above ran on a block-aligned chunk grid.
  LoopNest nest{{{"i", n}, {"j", n}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
  CompiledKernel k = compile(nest, bb);
  EXPECT_EQ(link_plan(k.plan(), k.query()).chunk_align, blk);
}

// A row-major matvec plan must actually fan out, and the merge-join test
// above (merge at the INNER level) stays legal — only an outer merge is
// disqualifying.
TEST(ParallelExec, CsrMatvecIsParallelLegal) {
  Coo coo = random_matrix(40, 40, 200, 31);
  formats::Csr csr = formats::Csr::from_coo(coo);
  Vector x(40, 1.0), y(40, 0.0);
  Bindings b;
  b.bind_csr("A", csr);
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));
  LoopNest nest{{{"i", 40}, {"j", 40}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
  CompiledKernel k = compile(nest, b);

  LinkedPlan lp = link_plan(k.plan(), k.query());
  EXPECT_TRUE(lp.parallel_ok) << lp.parallel_note;
  ParallelRunner runner(std::move(lp), 4);
  EXPECT_TRUE(runner.parallel());
  EXPECT_EQ(runner.threads(), 4);
  EXPECT_NE(k.explain().find("parallel: outer level i chunked"),
            std::string::npos);
}

// An outer-level merge join cannot be chunked (splitting the k-finger
// sweep would change merge_steps): two sparse filtering drivers on the
// single loop variable force an outer merge, which must fall back.
TEST(ParallelExec, OuterMergeJoinFallsBackToSerial) {
  const index_t n = 50;
  formats::SparseVector x1(
      n, {{2, 1.0}, {7, 2.0}, {19, -1.0}, {23, 0.5}, {41, 3.0}});
  formats::SparseVector x2(n, {{7, 4.0}, {19, 0.25}, {23, -2.0}, {48, 1.0}});
  Vector y(static_cast<std::size_t>(n), 0.0);

  relation::IntervalView iview("I", {n});
  relation::SparseVectorView v1("X1", x1);
  relation::SparseVectorView v2("X2", x2);
  relation::DenseVectorView yview("Y", VectorView(y));

  Query q;
  q.vars = {"i"};
  q.relations.push_back({&iview, {"i"}, true, false, true});
  q.relations.push_back({&v1, {"i"}, true, false, false});
  q.relations.push_back({&v2, {"i"}, true, false, false});
  q.relations.push_back({&yview, {"i"}, false, true, false});
  Plan plan = plan_query(q);
  ASSERT_EQ(plan.levels[0].method, JoinMethod::kMerge);

  LinkedPlan lp = link_plan(plan, q);
  EXPECT_FALSE(lp.parallel_ok);
  EXPECT_NE(lp.parallel_note.find("merge join"), std::string::npos)
      << lp.parallel_note;
  EXPECT_NE(explain(plan, q).find("serial fallback"), std::string::npos);

  // The fallback still runs — and matches the interpreter exactly.
  EngineRun ir =
      run_interpreted(plan, q, multiply_accumulate(q, 3, {1, 2}));
  Vector y_interp = y;
  std::fill(y.begin(), y.end(), 0.0);
  auto before = support::metrics_snapshot();
  ParallelRunner runner(link_plan(plan, q), 8);
  EXPECT_FALSE(runner.parallel());
  EngineRun pr;
  runner.run(multiply_accumulate(q, 3, {1, 2}), &pr.stats);
  pr.deltas = exec_delta(before, support::metrics_snapshot());
  expect_same_work(ir, pr);
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_EQ(y[i], y_interp[i]);
}

// Sparse-output fill-in grows shared storage mid-run: the SpGEMM plan
// must refuse to fan out, and the fallback must still insert correctly.
// (The SPA trips the legality scan at its first unsafe access — its row
// level is probed through a stateful virtual search; the insert-on-miss
// rule backs that up one level deeper — so the note names the output.)
TEST(ParallelExec, FillInFallsBackToSerial) {
  Coo a = random_matrix(14, 18, 60, 22);
  Coo bm = random_matrix(18, 11, 55, 23);
  formats::Csr acsr = formats::Csr::from_coo(a);
  formats::Csr bcsr = formats::Csr::from_coo(bm);
  relation::CsrView aview("A", acsr);
  relation::CsrView bview("B", bcsr);
  relation::IntervalView iview("I", {14, 18, 11});
  relation::SpaView cview("C", 14, 11);

  Query q;
  q.vars = {"i", "k", "j"};
  q.relations.push_back({&iview, {"i", "k", "j"}, true, false, true});
  q.relations.push_back({&aview, {"i", "k"}, true, false, false});
  q.relations.push_back({&bview, {"k", "j"}, true, false, false});
  q.relations.push_back({&cview, {"i", "j"}, false, true, false});
  Plan plan = plan_query(q);

  LinkedPlan lp = link_plan(plan, q);
  EXPECT_FALSE(lp.parallel_ok);
  EXPECT_NE(lp.parallel_note.find("C "), std::string::npos)
      << lp.parallel_note;
  EXPECT_NE(explain(plan, q).find("serial fallback"), std::string::npos);

  ParallelRunner runner(std::move(lp), 4);
  EXPECT_FALSE(runner.parallel());
  runner.run(link_mac(q, 3, {1, 2}));
  EXPECT_EQ(cview.harvest(), blas::spgemm(acsr, bcsr).to_coo());
}

// ---- CompiledKernel copy/move keeps the pre-linked program ----------

// Copies and moves used to silently drop the lazily-built linked program
// — the next run() paid a hidden re-link. They now re-establish it
// eagerly, and a moved-from-then-reassigned kernel must behave exactly
// like the original: same output, same executor.* deltas, and no
// observable re-link on first use.
TEST(CompiledKernelCache, CopyAndMoveKeepLinkedProgram) {
  Coo coo = random_matrix(24, 24, 100, 33);
  formats::Csr csr = formats::Csr::from_coo(coo);
  Vector x(24, 1.0), y(24, 0.0);
  Bindings b;
  b.bind_csr("A", csr);
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));
  LoopNest nest{{{"i", 24}, {"j", 24}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
  CompiledKernel k = compile(nest, b);

  // Reference run (also builds the cache the copies must re-establish).
  std::fill(y.begin(), y.end(), 0.0);
  auto before = support::metrics_snapshot();
  k.run();
  auto ref_delta = exec_delta(before, support::metrics_snapshot());
  Vector y_ref = y;

  auto run_and_compare = [&](const CompiledKernel& kk, const char* label) {
    std::fill(y.begin(), y.end(), 0.0);
    auto b0 = support::metrics_snapshot();
    kk.run();
    EXPECT_EQ(exec_delta(b0, support::metrics_snapshot()), ref_delta)
        << label;
    for (std::size_t i = 0; i < y.size(); ++i)
      EXPECT_EQ(y[i], y_ref[i]) << label << " row " << i;
  };

  CompiledKernel copied(k);
  run_and_compare(copied, "copy ctor");

  CompiledKernel moved(std::move(copied));
  run_and_compare(moved, "move ctor");

  // Move-assign back into the hollowed-out shell and run again: the
  // reassigned kernel must match the original exactly.
  copied = std::move(moved);
  run_and_compare(copied, "move assign");

  CompiledKernel assigned;
  assigned = copied;
  run_and_compare(assigned, "copy assign");
  run_and_compare(k, "original after all of it");
}

}  // namespace
}  // namespace bernoulli::compiler
