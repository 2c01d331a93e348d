// The acid test for code generation: the emitted C is compiled with the
// system C compiler, loaded, run, and diffed bitwise against the linked
// engine — outputs, counters, histograms and per-level stats.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <map>
#include <optional>

#include "compiler/emit_standalone.hpp"
#include "compiler/explain.hpp"
#include "compiler/link.hpp"
#include "compiler/loopnest.hpp"
#include "compiler/specialize.hpp"
#include "formats/formats.hpp"
#include "formats/sparse_vector.hpp"
#include "relation/array_views.hpp"
#include "relation/hash_index.hpp"
#include "relation/spa_view.hpp"
#include "support/dynlib.hpp"
#include "support/metrics.hpp"
#include "support/profile.hpp"
#include "support/rng.hpp"

namespace bernoulli::compiler {
namespace {

using formats::Coo;
using formats::Csr;
using formats::TripletBuilder;

bool have_cc() {
  static int ok = -1;
  if (ok < 0) ok = std::system("cc --version > /dev/null 2>&1") == 0 ? 1 : 0;
  return ok == 1;
}

// ---- LinkedPlan emission round-trip ---------------------------------
// emit_linked_c → system cc → dlopen → run, diffed against the serial
// linked engine under the full observability contract: bitwise outputs,
// identical executor.* counter deltas, identical fan-out histogram
// deltas, identical per-level stats and per-level profile work. This is
// the same reconciliation bench_table2_executor --engine --check
// enforces, here over every leaf form the emitter chooses.

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

// One run's observables. `work` holds the per-(level, drain kind) profile
// work counts and is empty for an unprofiled run.
struct Observed {
  Vector y;
  std::map<std::string, long long> deltas;
  std::map<std::string, std::vector<long long>> fanout;
  RunStats stats;
  std::vector<long long> work;
};

// Runs `engine(&stats)` once from y = y0, with the profiler on or off.
template <class Engine>
Observed observe(bool profile, Vector& y, const Vector& y0, Engine&& engine) {
  Observed o;
  y = y0;
  support::set_profiling(profile);
  support::profile_reset();
  const auto cb = support::metrics_snapshot();
  const auto& hb = cb.log2;
  engine(&o.stats);
  o.deltas = exec_delta(cb, support::metrics_snapshot());
  o.fanout = fanout_delta(hb, support::metrics_snapshot().log2);
  if (profile) {
    const support::ProfileSnapshot prof = support::profile_snapshot();
    for (int d = 0; d < support::kProfileMaxLevels; ++d)
      for (int k = 0; k < support::kProfKinds; ++k)
        o.work.push_back(prof.work[d][k]);
  }
  support::set_profiling(false);
  support::profile_reset();
  o.y = y;
  return o;
}

void expect_same(const Observed& ref, const Observed& got) {
  EXPECT_EQ(ref.deltas, got.deltas);
  EXPECT_EQ(ref.fanout, got.fanout);
  EXPECT_EQ(ref.work, got.work);
  EXPECT_EQ(ref.stats.tuples, got.stats.tuples);
  ASSERT_EQ(ref.stats.levels.size(), got.stats.levels.size());
  for (std::size_t d = 0; d < ref.stats.levels.size(); ++d) {
    EXPECT_EQ(ref.stats.levels[d].enumerated, got.stats.levels[d].enumerated)
        << "level " << d;
    EXPECT_EQ(ref.stats.levels[d].produced, got.stats.levels[d].produced)
        << "level " << d;
  }
  ASSERT_EQ(ref.y.size(), got.y.size());
  for (std::size_t i = 0; i < ref.y.size(); ++i)
    EXPECT_EQ(ref.y[i], got.y[i]) << "row " << i;  // bitwise
}

// Runs y[target] += scale * prod(factors) on the serial linked engine and
// through one SpecializedKernel, both from y0 (y is the bound target), and
// expects them indistinguishable with the profiler on and then off (the
// second run also reruns the cached .so). Returns the emitted leaf form,
// or nullopt (recording a failure) when the kernel could not be built.
std::optional<LeafForm> expect_spec_matches_linked(
    const CompiledKernel& k, const std::vector<index_t>& factors,
    value_t scale, Vector& y, const Vector& y0, const std::string& label) {
  SCOPED_TRACE(label);
  const LinkedPlan lp = link_plan(k.plan(), k.query());
  const LinkedMac mac = link_mac(k.query(), 1, factors, scale);
  SpecializedKernel spec(lp, mac);
  if (!spec.ok()) {
    ADD_FAILURE() << "specialization failed: " << spec.note();
    return std::nullopt;
  }
  const LeafForm form = emit_linked_c(lp, mac, "probe").leaf_form;
  LinkedRunner runner(link_plan(k.plan(), k.query()));
  for (const bool profile : {true, false}) {
    SCOPED_TRACE(profile ? "profiled" : "unprofiled");
    const Observed ref = observe(
        profile, y, y0, [&](RunStats* st) { runner.run(mac, st); });
    expect_same(ref, observe(profile, y, y0,
                             [&](RunStats* st) { spec.run(st); }));
  }
  return form;
}

bool specialization_available() {
  return have_cc() && support::DynLib::available();
}

Vector random_vector(std::size_t n, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Vector v(n);
  for (auto& e : v) e = rng.next_double(-1, 1);
  return v;
}

// Pareto-skewed row lengths (shape 1.2, minimum 2, capped at cols) with
// every fifth row and the rows in [empty_lo, empty_hi) empty. Columns
// within a row step by 7 from a random start, distinct while cols is
// coprime to 7.
Coo pareto_matrix(index_t rows, index_t cols, std::uint64_t seed,
                  index_t empty_lo, index_t empty_hi) {
  SplitMix64 rng(seed);
  TripletBuilder b(rows, cols);
  for (index_t i = 0; i < rows; ++i) {
    const double u = rng.next_double(1e-6, 1.0);
    if (i % 5 == 2 || (i >= empty_lo && i < empty_hi)) continue;
    const index_t len = std::min<index_t>(
        cols, static_cast<index_t>(2.0 / std::pow(u, 1.0 / 1.2)));
    const index_t start = rng.next_index(cols);
    for (index_t k = 0; k < len; ++k)
      b.add(i, (start + k * 7) % cols, rng.next_double(-1.0, 1.0));
  }
  return std::move(b).build();
}

// y += A x over one storage of `coo`, its loop extents `rows` x `cols`
// (rows may stop short of the storage's, leaving a partial last block
// row). The i-then-j order is forced so a short loop extent keeps the
// row-outer plan.
struct SpmvCase {
  std::string format;  // csr, ccs, bcsr, sell
  index_t block = 4;   // bcsr block size
  index_t chunk = 8;   // sell C
  index_t sigma = 32;  // sell sigma
};

class SpmvOperands {
 public:
  SpmvOperands(const SpmvCase& c, const Coo& coo) {
    if (c.format == "csr") csr_ = Csr::from_coo(coo);
    if (c.format == "ccs") ccs_ = formats::Ccs::from_coo(coo);
    if (c.format == "bcsr") bsr_ = formats::Bsr::from_coo(coo, c.block);
    if (c.format == "sell")
      sell_ = formats::Sell::from_coo(coo, c.chunk, c.sigma);
    format_ = c.format;
  }
  void bind(Bindings& b) const {
    if (format_ == "csr") b.bind_csr("A", csr_);
    if (format_ == "ccs") b.bind_ccs("A", ccs_);
    if (format_ == "bcsr") b.bind_bsr("A", bsr_);
    if (format_ == "sell") b.bind_sell("A", sell_);
  }

 private:
  std::string format_;
  Csr csr_;
  formats::Ccs ccs_;
  formats::Bsr bsr_;
  formats::Sell sell_;
};

CompiledKernel compile_row_outer(const LoopNest& nest, const Bindings& b) {
  PlannerOptions opts;
  opts.allow_merge = false;
  opts.force_order = std::vector<std::string>{"i", "j"};
  return compile(nest, b, opts);
}

const char* const kFormats[] = {"csr", "ccs", "bcsr", "sell"};

void linked_roundtrip(const char* format) {
  if (!specialization_available()) GTEST_SKIP() << "no cc or no dlopen";
  const index_t rows = 19, cols = 23;
  SplitMix64 rng(7);
  TripletBuilder tb(rows, cols);
  for (int k = 0; k < 110; ++k)
    tb.add(rng.next_index(rows), rng.next_index(cols), rng.next_double(-1, 1));
  const Coo coo = std::move(tb).build();
  const SpmvOperands a({format}, coo);
  const Vector x = random_vector(static_cast<std::size_t>(cols), 8);
  const Vector y0(static_cast<std::size_t>(rows), 0.0);
  Vector y(y0.size());
  Bindings b;
  a.bind(b);
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));
  LoopNest nest{{{"i", rows}, {"j", cols}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
  const CompiledKernel k = compile(nest, b);
  expect_spec_matches_linked(k, {2, 3}, 1.0, y, y0, format);
}

TEST(LinkedEmission, CsrRoundTripMatchesLinkedEngine) {
  linked_roundtrip("csr");
}

TEST(LinkedEmission, CcsRoundTripMatchesLinkedEngine) {
  linked_roundtrip("ccs");
}

// BCSR(4) over a 40-row storage whose loop stops at row 38: the last block
// row is partial (rows 36 and 37 hold entries, 38 and 39 are outside the
// loop), and block rows 2 and 3 are empty.
TEST(LinkedEmission, BcsrPartialLastBlockRowMatchesLinkedEngine) {
  if (!specialization_available()) GTEST_SKIP() << "no cc or no dlopen";
  const index_t stored_rows = 40, rows = 38, cols = 40;
  Coo coo = pareto_matrix(stored_rows, cols, 31, 8, 16);
  TripletBuilder tb(stored_rows, cols);
  for (index_t k = 0; k < coo.nnz(); ++k)
    if (coo.rowind()[k] < rows)
      tb.add(coo.rowind()[k], coo.colind()[k], coo.vals()[k]);
  tb.add(36, 3, 0.5);
  tb.add(37, 39, -1.25);
  coo = std::move(tb).build();
  const SpmvOperands a({"bcsr"}, coo);
  const Vector x = random_vector(static_cast<std::size_t>(cols), 32);
  const Vector y0 = random_vector(static_cast<std::size_t>(rows), 33);
  Vector y(y0.size());
  Bindings b;
  a.bind(b);
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));
  LoopNest nest{{{"i", rows}, {"j", cols}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
  const CompiledKernel k = compile_row_outer(nest, b);
  EXPECT_EQ(expect_spec_matches_linked(k, {2, 3}, 1.0, y, y0, "bcsr tail"),
            LeafForm::kBlockRow);
}

// SELL-C-σ(8, 32) with Pareto rows, every fifth row and a run of rows
// empty.
TEST(LinkedEmission, SellParetoRowsMatchLinkedEngine) {
  if (!specialization_available()) GTEST_SKIP() << "no cc or no dlopen";
  const index_t rows = 200, cols = 96;
  const Coo coo = pareto_matrix(rows, cols, 4242, 40, 52);
  const SpmvOperands a({"sell", 4, 8, 32}, coo);
  const Vector x = random_vector(static_cast<std::size_t>(cols), 11);
  const Vector y0 = random_vector(static_cast<std::size_t>(rows), 12);
  Vector y(y0.size());
  Bindings b;
  a.bind(b);
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));
  LoopNest nest{{{"i", rows}, {"j", cols}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
  const CompiledKernel k = compile(nest, b);
  EXPECT_EQ(expect_spec_matches_linked(k, {2, 3}, 1.0, y, y0, "sell"),
            LeafForm::kAccumulator);
}

// y += A y: the factor vector IS the target, so no register may hold
// either across a store. Every format must take the per-element leaf.
TEST(LinkedEmission, AliasedTargetTakesPerElementLeafOnEveryFormat) {
  if (!specialization_available()) GTEST_SKIP() << "no cc or no dlopen";
  const index_t n = 96;
  const Coo coo = pareto_matrix(n, n, 27, 40, 52);
  const Vector y0 = random_vector(static_cast<std::size_t>(n), 28);
  for (const char* format : kFormats) {
    const SpmvOperands a({format}, coo);
    Vector y(y0.size());
    Bindings b;
    a.bind(b);
    b.bind_dense_vector("X", ConstVectorView(y));
    b.bind_dense_vector("Y", VectorView(y));
    LoopNest nest{{{"i", n}, {"j", n}},
                  {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
    const CompiledKernel k = compile(nest, b);
    EXPECT_EQ(expect_spec_matches_linked(k, {2, 3}, 1.0, y, y0,
                                         std::string(format) + " aliased"),
              LeafForm::kPerElement)
        << format;
  }
}

// A non-unit scale and a third factor S[i] bound at the outer level (CSR,
// SELL: held in a register next to the accumulator; BCSR: read per row of
// the block row; CCS: a leaf operand next to the hoisted x[j]).
TEST(LinkedEmission, ScaledThreeFactorMacMatchesLinkedEngine) {
  if (!specialization_available()) GTEST_SKIP() << "no cc or no dlopen";
  const index_t rows = 64, cols = 52;
  const Coo coo = pareto_matrix(rows, cols, 515, 20, 28);
  const Vector x = random_vector(static_cast<std::size_t>(cols), 517);
  const Vector sv = random_vector(static_cast<std::size_t>(rows), 519);
  const Vector y0 = random_vector(static_cast<std::size_t>(rows), 518);
  for (const char* format : kFormats) {
    const SpmvOperands a({format}, coo);
    Vector y(y0.size());
    Bindings b;
    a.bind(b);
    b.bind_dense_vector("X", ConstVectorView(x));
    b.bind_dense_vector("S", ConstVectorView(sv));
    b.bind_dense_vector("Y", VectorView(y));
    LoopNest nest{{{"i", rows}, {"j", cols}},
                  {{"Y", {"i"}},
                   {{"A", {"i", "j"}}, {"X", {"j"}}, {"S", {"i"}}},
                   -0.75}};
    const CompiledKernel k = compile(nest, b);
    const auto form = expect_spec_matches_linked(
        k, {2, 3, 4}, -0.75, y, y0, std::string(format) + " 3-factor");
    EXPECT_NE(form, LeafForm::kPerElement) << format;
  }
}

// The emitter records its leaf form and the reason, and a loaded kernel's
// note names them.
TEST(LinkedEmission, LeafFormIsRecordedAndNamed) {
  const index_t n = 64;
  const Coo coo = pareto_matrix(n, n, 99, 8, 16);
  const Vector x = random_vector(static_cast<std::size_t>(n), 100);
  struct Expect {
    const char* format;
    bool aliased;
    LeafForm form;
  };
  for (const Expect& e : {Expect{"csr", false, LeafForm::kAccumulator},
                          Expect{"ccs", false, LeafForm::kHoistedFactor},
                          Expect{"bcsr", false, LeafForm::kBlockRow},
                          Expect{"csr", true, LeafForm::kPerElement}}) {
    SCOPED_TRACE(std::string(e.format) + (e.aliased ? " aliased" : ""));
    const SpmvOperands a({e.format}, coo);
    Vector y(static_cast<std::size_t>(n), 0.0);
    Bindings b;
    a.bind(b);
    b.bind_dense_vector("X", e.aliased ? ConstVectorView(y)
                                       : ConstVectorView(x));
    b.bind_dense_vector("Y", VectorView(y));
    LoopNest nest{{{"i", n}, {"j", n}},
                  {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
    const CompiledKernel k = compile(nest, b);
    const LinkedPlan lp = link_plan(k.plan(), k.query());
    const LinkedMac mac = link_mac(k.query(), 1, {2, 3});
    const LinkedEmission em = emit_linked_c(lp, mac, "kernel");
    ASSERT_TRUE(em.ok) << em.note;
    EXPECT_EQ(em.leaf_form, e.form);
    const std::string name = leaf_form_name(e.form);
    EXPECT_EQ(em.leaf_note.rfind(name + " leaf", 0), 0u) << em.leaf_note;
    if (e.aliased) {
      EXPECT_EQ(em.leaf_note, "per-element leaf: target Y overlaps factor X");
    }
    if (!specialization_available()) continue;
    SpecializedKernel spec(lp, mac);
    ASSERT_TRUE(spec.ok()) << spec.note();
    EXPECT_NE(spec.note().find(em.leaf_note), std::string::npos)
        << spec.note();
  }
}

// Fan-out buckets at every power-of-two edge: row lengths 0, 1 and
// 2^k - 1, 2^k, 2^k + 1 for k = 1..12 land in the same Log2Histogram
// buckets on both rungs.
TEST(LinkedEmission, FanoutBucketsMatchAtPowerOfTwoEdges) {
  if (!specialization_available()) GTEST_SKIP() << "no cc or no dlopen";
  std::vector<index_t> lengths{0, 1};
  for (int k = 1; k <= 12; ++k)
    for (const index_t d : {-1, 0, 1}) lengths.push_back((index_t{1} << k) + d);
  const index_t rows = static_cast<index_t>(lengths.size());
  const index_t cols = (index_t{1} << 12) + 1;
  TripletBuilder tb(rows, cols);
  for (index_t i = 0; i < rows; ++i)
    for (index_t j = 0; j < lengths[static_cast<std::size_t>(i)]; ++j)
      tb.add(i, j, 1.0 / static_cast<double>(j + 1));
  const Coo coo = std::move(tb).build();
  const SpmvOperands a({"csr"}, coo);
  const Vector x = random_vector(static_cast<std::size_t>(cols), 5);
  const Vector y0(static_cast<std::size_t>(rows), 0.0);
  Vector y(y0.size());
  Bindings b;
  a.bind(b);
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));
  LoopNest nest{{{"i", rows}, {"j", cols}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
  const CompiledKernel k = compile(nest, b);
  EXPECT_EQ(expect_spec_matches_linked(k, {2, 3}, 1.0, y, y0, "edges"),
            LeafForm::kAccumulator);
}

// ---- CompiledKernel::emit -----------------------------------------
// The kernel's emitted C is emit_linked_c's translation unit for its own
// linked program; building and running that unit (SpecializedKernel)
// must match the linked engine bitwise.

void expect_emit_is_linked_c(const CompiledKernel& k, const char* symbol) {
  const std::string code = k.emit(symbol);
  const LinkedEmission e = emit_linked_c(
      link_plan(k.plan(), k.query()), link_mac(k.query(), 1, {2, 3}, 1.0),
      symbol);
  ASSERT_TRUE(e.ok) << e.note;
  EXPECT_EQ(code, e.source);
  EXPECT_NE(code.find("int " + std::string(symbol) + "(const int** ia"),
            std::string::npos)
      << code;
}

TEST(EmitCompile, CsrMatvecRunsAndMatchesLinkedEngine) {
  if (!specialization_available()) GTEST_SKIP() << "no cc or no dlopen";
  const index_t n = 18;
  SplitMix64 rng(1);
  TripletBuilder tb(n, n);
  for (int k = 0; k < 70; ++k)
    tb.add(rng.next_index(n), rng.next_index(n), rng.next_double(-1, 1));
  Csr a = Csr::from_coo(std::move(tb).build());
  const Vector x = random_vector(static_cast<std::size_t>(n), 2);
  const Vector y0(static_cast<std::size_t>(n), 0.0);
  Vector y(y0.size());
  Bindings b;
  b.bind_csr("A", a);
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));
  LoopNest nest{{{"i", n}, {"j", n}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
  const CompiledKernel k = compile(nest, b);
  expect_emit_is_linked_c(k, "spmv");
  expect_spec_matches_linked(k, {2, 3}, 1.0, y, y0, "csr");
}

TEST(EmitCompile, SparseVectorProbeRunsAndMatchesLinkedEngine) {
  if (!specialization_available()) GTEST_SKIP() << "no cc or no dlopen";
  const index_t n = 12;
  SplitMix64 rng(2);
  TripletBuilder tb(n, n);
  for (int k = 0; k < 40; ++k)
    tb.add(rng.next_index(n), rng.next_index(n), rng.next_double(-1, 1));
  Csr a = Csr::from_coo(std::move(tb).build());
  formats::SparseVector x(n, {{1, 2.0}, {4, -1.5}, {9, 0.5}});
  const Vector y0(static_cast<std::size_t>(n), 0.0);
  Vector y(y0.size());
  Bindings b;
  b.bind_csr("A", a);
  b.bind_sparse_vector("X", x);
  b.bind_dense_vector("Y", VectorView(y));
  LoopNest nest{{{"i", n}, {"j", n}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
  // The merge plan is refused (see MergePlanEmitsTheRefusalNote); the
  // probing plan binary-searches X's index list.
  PlannerOptions opts;
  opts.allow_merge = false;
  opts.force_order = std::vector<std::string>{"i", "j"};
  const CompiledKernel k = compile(nest, b, opts);
  expect_emit_is_linked_c(k, "spmv_sx");
  expect_spec_matches_linked(k, {2, 3}, 1.0, y, y0, "sparse x probe");
}

TEST(EmitCompile, MergePlanEmitsTheRefusalNote) {
  const index_t n = 12;
  SplitMix64 rng(3);
  TripletBuilder tb(n, n);
  for (int k = 0; k < 40; ++k)
    tb.add(rng.next_index(n), rng.next_index(n), rng.next_double(-1, 1));
  Csr a = Csr::from_coo(std::move(tb).build());
  formats::SparseVector x(n, {{1, 2.0}, {4, -1.5}, {9, 0.5}});
  Vector y(static_cast<std::size_t>(n), 0.0);
  Bindings b;
  b.bind_csr("A", a);
  b.bind_sparse_vector("X", x);
  b.bind_dense_vector("Y", VectorView(y));
  LoopNest nest{{{"i", n}, {"j", n}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
  PlannerOptions opts;
  opts.force_order = std::vector<std::string>{"i", "j"};
  const CompiledKernel k = compile(nest, b, opts);
  const LinkedEmission e = emit_linked_c(
      link_plan(k.plan(), k.query()), link_mac(k.query(), 1, {2, 3}, 1.0),
      "spmv_merge");
  ASSERT_FALSE(e.ok);
  EXPECT_EQ(k.emit("spmv_merge"),
            "/* spmv_merge not emitted: " + e.note + " */\n");
}

// ---- EXPLAIN predicts the rung that runs ---------------------------
// EXPLAIN's `specialize:` footer and the emitter's refusal are one
// verdict (plan_specialize_legality over one link): for every refused
// shape EXPLAIN's note is the SpecializedKernel's own note, and a plan
// EXPLAIN calls eligible loads.

void expect_explain_predicts_rung(const Plan& plan, const relation::Query& q,
                                  index_t target,
                                  const std::vector<index_t>& factors,
                                  bool eligible, const std::string& why,
                                  const std::string& label) {
  SCOPED_TRACE(label);
  const std::string text = explain(plan, q);
  const std::string json = explain_json(plan, q);
  const LinkedPlan lp = link_plan(plan, q);
  SpecializedKernel spec(lp, link_mac(q, target, factors));
  if (eligible) {
    EXPECT_NE(text.find("\nspecialize: every level enumerates a flat shape"),
              std::string::npos)
        << text;
    EXPECT_NE(json.find("\"specialize\":{\"ok\":true"), std::string::npos)
        << json;
    if (specialization_available()) {
      EXPECT_TRUE(spec.ok()) << spec.note();
    }
    return;
  }
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.note().find(why), std::string::npos) << spec.note();
  EXPECT_NE(text.find("\nspecialize: linked fallback — " + spec.note() + "\n"),
            std::string::npos)
      << text;
  EXPECT_NE(json.find("\"specialize\":{\"ok\":false,\"note\":\"" +
                      spec.note() + "\"}"),
            std::string::npos)
      << json;
}

TEST(ExplainPredictsRung, EveryRefusalShapeAndOneSpecializingPlan) {
  const index_t n = 12;
  SplitMix64 rng(31);
  TripletBuilder tb(n, n);
  for (int k = 0; k < 40; ++k)
    tb.add(rng.next_index(n), rng.next_index(n), rng.next_double(-1, 1));
  const Csr a = Csr::from_coo(std::move(tb).build());
  const Vector x = random_vector(static_cast<std::size_t>(n), 32);
  Vector y(static_cast<std::size_t>(n), 0.0);
  LoopNest nest{{{"i", n}, {"j", n}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};

  {  // Specializes: CSR SpMV.
    Bindings b;
    b.bind_csr("A", a);
    b.bind_dense_vector("X", ConstVectorView(x));
    b.bind_dense_vector("Y", VectorView(y));
    const CompiledKernel k = compile(nest, b);
    expect_explain_predicts_rung(k.plan(), k.query(), 1, {2, 3}, true, "",
                                 "csr");
  }
  {  // Merge join: sparse A against a sparse X.
    const formats::SparseVector sx(n, {{1, 2.0}, {4, -1.5}, {9, 0.5}});
    Bindings b;
    b.bind_csr("A", a);
    b.bind_sparse_vector("X", sx);
    b.bind_dense_vector("Y", VectorView(y));
    PlannerOptions opts;
    opts.force_order = std::vector<std::string>{"i", "j"};
    const CompiledKernel k = compile(nest, b, opts);
    ASSERT_EQ(k.plan().levels[1].method, JoinMethod::kMerge);
    expect_explain_predicts_rung(k.plan(), k.query(), 1, {2, 3}, false,
                                 "is a merge join", "merge");
  }
  {  // Opaque level: the hash-indexed column level drives.
    relation::CsrView base("A", a);
    relation::HashIndexedView hashed(base, 1);
    Bindings b;
    b.bind_view("A", &hashed, {0, 1}, /*sparse=*/true);
    b.bind_dense_vector("X", ConstVectorView(x));
    b.bind_dense_vector("Y", VectorView(y));
    const CompiledKernel k = compile(nest, b);
    expect_explain_predicts_rung(k.plan(), k.query(), 1, {2, 3}, false,
                                 "has no flat enumeration shape", "opaque");
  }
  {  // Virtual probe: X drives j and the hashed column level is probed.
    relation::CsrView base("A", a);
    relation::HashIndexedView hashed(base, 1);
    relation::IntervalView iview("I", {n, n});
    relation::DenseVectorView xv("X", ConstVectorView(x));
    relation::DenseVectorView yv("Y", VectorView(y));
    relation::Query q;
    q.vars = {"i", "j"};
    q.relations.push_back({&iview, {"i", "j"}, true, false, true});
    q.relations.push_back({&yv, {"i"}, false, true, false});
    q.relations.push_back({&hashed, {"i", "j"}, true, false, false});
    q.relations.push_back({&xv, {"j"}, false, false, false});
    Plan plan;
    plan.levels.push_back({"i", JoinMethod::kEnumerate, {{0, 0}},
                           {{2, 0}, {1, 0}}});
    plan.levels.push_back({"j", JoinMethod::kEnumerate, {{3, 0}},
                           {{0, 1}, {2, 1}}});
    expect_explain_predicts_rung(plan, q, 1, {2, 3}, false,
                                 "probes through a virtual search",
                                 "virtual probe");
  }
  {  // Fill-in: SpGEMM into a sparse accumulator.
    const Csr bm = Csr::from_coo(pareto_matrix(n, n, 33, 0, 0));
    relation::CsrView aview("A", a);
    relation::CsrView bview("B", bm);
    relation::IntervalView iview("I", {n, n, n});
    relation::SpaView cview("C", n, n);
    relation::Query q;
    q.vars = {"i", "k", "j"};
    q.relations.push_back({&iview, {"i", "k", "j"}, true, false, true});
    q.relations.push_back({&aview, {"i", "k"}, true, false, false});
    q.relations.push_back({&bview, {"k", "j"}, true, false, false});
    q.relations.push_back({&cview, {"i", "j"}, false, true, false});
    expect_explain_predicts_rung(plan_query(q), q, 3, {1, 2}, false, "C ",
                                 "fill-in");
  }
}

}  // namespace
}  // namespace bernoulli::compiler
