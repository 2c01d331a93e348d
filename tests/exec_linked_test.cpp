// Differential test of the engine ladder. The contract: every rung — the
// reference interpreter (execute_interpreted), the linked engine's
// run(Action) and multiply-accumulate, ParallelRunner at 1 to 8 threads
// (chunked or owner-computes), the specialized kernel and the
// KernelServer — computes bitwise the same y and books the same executor.*
// counter deltas, fan-out histogram deltas, per-level RunStats and
// per-level profile work. One seeded harness (RungHarness) drives storage
// × shape × mac cases through every rung; the cases after it pin what the
// harness does not generate: merge joins, SpGEMM fill-in, the JDS
// permutation, runner reuse, stored index ranges, affine operands,
// serial-fallback notes, cross-format equalities and kernel copies.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <iomanip>
#include <map>
#include <numeric>
#include <optional>

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
#include "server/kernel_server.hpp"
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

Vector random_vector(std::size_t n, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Vector v(n);
  for (auto& e : v) e = rng.next_double(-1, 1);
  return v;
}

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

// ---- Observables ----------------------------------------------------

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

// What one run booked, and y after it.
struct Observed {
  Vector y;
  std::map<std::string, long long> counts;                // executor.*
  std::map<std::string, std::vector<long long>> fanout;   // its buckets
  RunStats stats;
  std::vector<long long> level_work;  // per level; empty when unprofiled
  std::vector<long long> kind_work;   // per (level, drain kind)
};

// Runs `run(RunStats*)` once with the profiler on or off and returns what
// it booked; `y`, when given, is copied out afterwards.
template <class Run>
Observed observe(bool profiled, Run&& run, const Vector* y = nullptr) {
  Observed o;
  support::set_profiling(profiled);
  support::profile_reset();
  const support::MetricsSnapshot before = support::metrics_snapshot();
  run(&o.stats);
  const support::MetricsSnapshot after = support::metrics_snapshot();
  o.counts = exec_delta(before, after);
  o.fanout = fanout_delta(before.log2, after.log2);
  if (profiled) {
    const support::ProfileSnapshot prof = support::profile_snapshot();
    for (int d = 0; d < support::kProfileMaxLevels; ++d) {
      o.level_work.push_back(prof.level_work(d));
      for (int k = 0; k < support::kProfKinds; ++k)
        o.kind_work.push_back(prof.work[d][k]);
    }
  }
  support::set_profiling(false);
  support::profile_reset();
  if (y) o.y = *y;
  return o;
}

Observed interpreted(const Plan& plan, const Query& q, const Action& action,
                     const Vector* y = nullptr) {
  return observe(
      false, [&](RunStats* st) { execute_interpreted(plan, q, action, st); },
      y);
}

Observed linked(const Plan& plan, const Query& q, const LinkedMac& mac,
                const Vector* y = nullptr) {
  LinkedRunner runner(link_plan(plan, q));
  return observe(false, [&](RunStats* st) { runner.run(mac, st); }, y);
}

::testing::AssertionResult same_bits(const Vector& want, const Vector& got) {
  if (want.size() != got.size())
    return ::testing::AssertionFailure()
           << "size " << got.size() << " vs " << want.size();
  for (std::size_t i = 0; i < want.size(); ++i)
    if (std::bit_cast<std::uint64_t>(want[i]) !=
        std::bit_cast<std::uint64_t>(got[i]))
      return ::testing::AssertionFailure()
             << "row " << i << ": " << std::setprecision(17) << got[i]
             << " vs " << want[i];
  return ::testing::AssertionSuccess();
}

// Bitwise y, equal counter and fan-out deltas, equal per-level RunStats
// and, when both runs were profiled, equal per-level profile work.
void expect_same(const Observed& want, const Observed& got,
                 const std::string& rung) {
  SCOPED_TRACE(rung);
  EXPECT_TRUE(same_bits(want.y, got.y));
  EXPECT_EQ(want.counts, got.counts);
  EXPECT_EQ(want.fanout, got.fanout);
  EXPECT_EQ(want.stats.tuples, got.stats.tuples);
  ASSERT_EQ(want.stats.levels.size(), got.stats.levels.size());
  for (std::size_t d = 0; d < want.stats.levels.size(); ++d) {
    EXPECT_EQ(want.stats.levels[d].enumerated, got.stats.levels[d].enumerated)
        << "level " << d;
    EXPECT_EQ(want.stats.levels[d].produced, got.stats.levels[d].produced)
        << "level " << d;
  }
  if (!want.level_work.empty() && !got.level_work.empty()) {
    EXPECT_EQ(want.level_work, got.level_work);
  }
}

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

// ---- The rung harness -------------------------------------------------

enum class Storage {
  kCsr,
  kCcs,
  kCoo,
  kEll,
  kBcsr2,
  kBcsr3,
  kBcsr4,
  kBcsr5,
  kSell,  // SELL-C-σ with C = 4, σ = 8
  kDense,
  kHashed,  // CSR behind a hash index on the column level
};
constexpr Storage kStorages[] = {
    Storage::kCsr,   Storage::kCcs,   Storage::kCoo,  Storage::kEll,
    Storage::kBcsr2, Storage::kBcsr3, Storage::kBcsr4, Storage::kBcsr5,
    Storage::kSell,  Storage::kDense, Storage::kHashed};

const char* storage_name(Storage s) {
  switch (s) {
    case Storage::kCsr: return "csr";
    case Storage::kCcs: return "ccs";
    case Storage::kCoo: return "coo";
    case Storage::kEll: return "ell";
    case Storage::kBcsr2: return "bcsr2";
    case Storage::kBcsr3: return "bcsr3";
    case Storage::kBcsr4: return "bcsr4";
    case Storage::kBcsr5: return "bcsr5";
    case Storage::kSell: return "sell";
    case Storage::kDense: return "dense";
    case Storage::kHashed: return "hashed";
  }
  return "?";
}

// The BCSR block size r, or 0 for every other storage.
index_t block_of(Storage s) {
  switch (s) {
    case Storage::kBcsr2: return 2;
    case Storage::kBcsr3: return 3;
    case Storage::kBcsr4: return 4;
    case Storage::kBcsr5: return 5;
    default: return 0;
  }
}

// Matrix shapes aimed at the edges of the drains and partitions.
enum class Shape {
  kDuplicates,         // uniform random entries, many summed duplicates
  kLeadingEmptyRows,   // the first half of the rows empty
  kTrailingEmptyRows,  // the second half of the rows empty
  kAllEmpty,
  kNoRows,     // 0 x n
  kNoColumns,  // n x 0
  kOneDenseRow,
  kOneRow,        // 1 x n
  kOneColumn,     // n x 1
  kEmptyColumns,  // only every third column holds entries
  kParetoRows,    // pareto_rows_and_cols: hub rows and hub columns
  kBlockRowTail,  // block rows 2 and 3 empty, the last one cut by the loop
};
constexpr Shape kShapes[] = {
    Shape::kDuplicates,   Shape::kLeadingEmptyRows, Shape::kTrailingEmptyRows,
    Shape::kAllEmpty,     Shape::kNoRows,           Shape::kNoColumns,
    Shape::kOneDenseRow,  Shape::kOneRow,           Shape::kOneColumn,
    Shape::kEmptyColumns, Shape::kParetoRows,       Shape::kBlockRowTail};

const char* shape_name(Shape s) {
  switch (s) {
    case Shape::kDuplicates: return "duplicates";
    case Shape::kLeadingEmptyRows: return "leading_empty";
    case Shape::kTrailingEmptyRows: return "trailing_empty";
    case Shape::kAllEmpty: return "all_empty";
    case Shape::kNoRows: return "no_rows";
    case Shape::kNoColumns: return "no_cols";
    case Shape::kOneDenseRow: return "one_dense_row";
    case Shape::kOneRow: return "one_row";
    case Shape::kOneColumn: return "one_col";
    case Shape::kEmptyColumns: return "empty_cols";
    case Shape::kParetoRows: return "pareto";
    case Shape::kBlockRowTail: return "block_row_tail";
  }
  return "?";
}

// The statement: Y += A·X (y0 = 0), Y += scale·A·X·S[i] from a random y0,
// or the aliased Y += scale·A·Y with scale 1/(1 + n), which keeps the
// feedback through y bounded.
enum class Mac { kUnit, kScaledThreeFactor, kAliased };
constexpr Mac kMacs[] = {Mac::kUnit, Mac::kScaledThreeFactor, Mac::kAliased};

const char* mac_name(Mac m) {
  switch (m) {
    case Mac::kUnit: return "unit";
    case Mac::kScaledThreeFactor: return "scaled";
    case Mac::kAliased: return "aliased";
  }
  return "?";
}

// Planner settings: free, or one of the knobs a caller can turn. A forced
// order the storage cannot serve plans free instead.
enum class Planning { kFree, kNoMerge, kForcedIJ, kForcedJI };

const char* planning_name(Planning p) {
  switch (p) {
    case Planning::kFree: return "";
    case Planning::kNoMerge: return "_no_merge";
    case Planning::kForcedIJ: return "_forced_ij";
    case Planning::kForcedJI: return "_forced_ji";
  }
  return "?";
}

struct Case {
  Storage storage;
  Shape shape;
  Mac mac;
  Planning planning;
  std::uint64_t seed;
};

// One case, realized: the loop extents, the stored matrix (which may
// extend past them: BCSR pads both dimensions to a multiple of r, and the
// block-row tail stores a row the loop cuts off), the operand vectors
// sized by the stored matrix, the scale and the planner options.
struct Problem {
  index_t rows = 0;
  index_t cols = 0;
  Coo coo;
  Mac mac = Mac::kUnit;
  value_t scale = 1.0;
  Vector x, s, y0;
  PlannerOptions opts;
};

index_t round_up(index_t n, index_t r) {
  return r > 1 ? (n + r - 1) / r * r : n;
}

Problem make_problem(const Case& c) {
  SplitMix64 rng(c.seed);
  Problem p;
  p.mac = c.mac;
  const index_t r = block_of(c.storage);
  const index_t blk = r > 0 ? r : 4;  // the block-row tail's block size
  auto dim = [&rng](index_t lo, index_t span) {
    return lo + rng.next_index(span);
  };
  switch (c.shape) {
    case Shape::kDuplicates:
      p.rows = dim(1, rng.next_below(2) ? 6 : 28);
      p.cols = dim(1, 28);
      break;
    case Shape::kNoRows: p.cols = dim(1, 20); break;
    case Shape::kNoColumns: p.rows = dim(1, 20); break;
    case Shape::kOneRow:
      p.rows = 1;
      p.cols = dim(16, 48);
      break;
    case Shape::kOneColumn:
      p.rows = dim(16, 48);
      p.cols = 1;
      break;
    case Shape::kParetoRows:
      p.rows = dim(90, 60);
      p.cols = dim(60, 40);
      break;
    case Shape::kBlockRowTail:
      p.rows = 10 * blk - 1;
      p.cols = 7 * blk;
      break;
    default:
      p.rows = dim(12, 24);
      p.cols = dim(8, 24);
      break;
  }
  if (c.mac == Mac::kAliased) p.cols = p.rows;
  index_t mrows = p.rows + (c.shape == Shape::kBlockRowTail ? 1 : 0);
  index_t mcols = c.mac == Mac::kAliased ? mrows : p.cols;
  mrows = round_up(mrows, r);
  mcols = round_up(mcols, r);

  TripletBuilder tb(mrows, mcols);
  auto add = [&](index_t i, index_t j) {
    tb.add(i, j, rng.next_double(-1.0, 1.0));
  };
  const index_t rows = p.rows, cols = p.cols, half = rows / 2;
  switch (c.shape) {
    case Shape::kDuplicates:
      for (index_t k = 0; k < rows * cols; ++k)
        add(rng.next_index(rows), rng.next_index(cols));
      break;
    case Shape::kLeadingEmptyRows:
      for (index_t k = 0; k < 3 * rows; ++k)
        add(half + rng.next_index(rows - half), rng.next_index(cols));
      break;
    case Shape::kTrailingEmptyRows:
      for (index_t k = 0; k < 3 * rows; ++k)
        add(rng.next_index(half), rng.next_index(cols));
      break;
    case Shape::kOneDenseRow:
      for (index_t j = 0; j < cols; ++j) add(rows / 3, j);
      break;
    case Shape::kOneRow:
      for (index_t k = 0; k < 2 * cols; ++k) add(0, rng.next_index(cols));
      break;
    case Shape::kOneColumn:
      for (index_t k = 0; k < 2 * rows; ++k) add(rng.next_index(rows), 0);
      break;
    case Shape::kEmptyColumns:
      for (index_t k = 0; k < 4 * rows; ++k) {
        const index_t j = rng.next_index(cols);
        add(rng.next_index(rows), j - j % 3);
      }
      break;
    case Shape::kParetoRows: {
      const Coo pareto = pareto_rows_and_cols(rows, cols, rng.next());
      for (index_t e = 0; e < pareto.nnz(); ++e)
        tb.add(pareto.rowind()[static_cast<std::size_t>(e)],
               pareto.colind()[static_cast<std::size_t>(e)],
               pareto.vals()[static_cast<std::size_t>(e)]);
      break;
    }
    case Shape::kBlockRowTail:
      // Entries over every stored row, the one past the loop included.
      for (index_t k = 0; k < 6 * mrows; ++k) {
        const index_t i = rng.next_index(mrows);
        if (i / blk == 2 || i / blk == 3) continue;
        add(i, rng.next_index(cols));
      }
      add(rows - 1, cols - 1);
      break;
    default: break;
  }
  p.coo = std::move(tb).build();

  p.x = random_vector(static_cast<std::size_t>(mcols), c.seed + 1);
  p.s = random_vector(static_cast<std::size_t>(mrows), c.seed + 2);
  p.y0 = c.mac == Mac::kUnit
             ? Vector(static_cast<std::size_t>(mrows), 0.0)
             : random_vector(static_cast<std::size_t>(mrows), c.seed + 3);
  if (c.mac == Mac::kScaledThreeFactor) p.scale = rng.next_double(-2.0, 2.0);
  if (c.mac == Mac::kAliased) p.scale = 1.0 / static_cast<double>(1 + mcols);
  p.opts.allow_merge = c.planning != Planning::kNoMerge;
  if (c.planning == Planning::kForcedIJ)
    p.opts.force_order = std::vector<std::string>{"i", "j"};
  if (c.planning == Planning::kForcedJI)
    p.opts.force_order = std::vector<std::string>{"j", "i"};
  return p;
}

// y0 + scale·A·x (·s[i]) over the loop extents, one term at a time in the
// plan's loop order (row-major when i is outer), so the aliased y += A·y
// reads each y[j] when the engines do.
Vector dense_reference(const Problem& p, bool row_major) {
  Vector y = p.y0;
  const Vector& x = p.mac == Mac::kAliased ? y : p.x;
  const auto ri = p.coo.rowind();
  const auto ci = p.coo.colind();
  const auto va = p.coo.vals();
  std::vector<std::size_t> order(static_cast<std::size_t>(p.coo.nnz()));
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (!row_major)
    std::stable_sort(order.begin(), order.end(), [&](auto a, auto b) {
      return ci[a] < ci[b];
    });
  for (const std::size_t e : order) {
    const auto i = static_cast<std::size_t>(ri[e]);
    const auto j = static_cast<std::size_t>(ci[e]);
    if (ri[e] >= p.rows || ci[e] >= p.cols) continue;
    value_t prod = p.scale * va[e] * x[j];
    if (p.mac == Mac::kScaledThreeFactor) prod *= p.s[i];
    y[i] += prod;
  }
  return y;
}

::testing::AssertionResult near_dense(const Vector& want, const Vector& got) {
  for (std::size_t i = 0; i < want.size(); ++i)
    if (!(std::abs(got[i] - want[i]) <= 1e-11 * (1.0 + std::abs(want[i]))))
      return ::testing::AssertionFailure()
             << "row " << i << ": " << std::setprecision(17) << got[i]
             << " vs dense " << want[i];
  return ::testing::AssertionSuccess();
}

// Matrix A in one storage, built from a COO and bound as "A"; the formats
// and views live here so the bindings can borrow them.
struct StoredA {
  StoredA(Storage storage, const Coo& m) : s(storage), coo(m) {
    switch (s) {
      case Storage::kCsr: csr.emplace(formats::Csr::from_coo(m)); break;
      case Storage::kCcs: ccs.emplace(formats::Ccs::from_coo(m)); break;
      case Storage::kCoo: break;
      case Storage::kEll: ell.emplace(formats::Ell::from_coo(m)); break;
      case Storage::kSell:
        sell.emplace(formats::Sell::from_coo(m, 4, 8));
        break;
      case Storage::kDense: dense.emplace(formats::Dense::from_coo(m)); break;
      case Storage::kHashed:
        csr.emplace(formats::Csr::from_coo(m));
        csr_view.emplace("A", *csr);
        hashed.emplace(*csr_view, 1);
        break;
      default: bsr.emplace(formats::Bsr::from_coo(m, block_of(s))); break;
    }
  }
  void bind(Bindings& b) {
    switch (s) {
      case Storage::kCsr: b.bind_csr("A", *csr); break;
      case Storage::kCcs: b.bind_ccs("A", *ccs); break;
      case Storage::kCoo: b.bind_coo("A", coo); break;
      case Storage::kEll: b.bind_ell("A", *ell); break;
      case Storage::kSell: b.bind_sell("A", *sell); break;
      case Storage::kDense: b.bind_dense_matrix("A", *dense); break;
      case Storage::kHashed: b.bind_view("A", &*hashed, {0, 1}, true); break;
      default: b.bind_bsr("A", *bsr); break;
    }
  }

  Storage s;
  const Coo& coo;
  std::optional<formats::Csr> csr;
  std::optional<formats::Ccs> ccs;
  std::optional<formats::Ell> ell;
  std::optional<formats::Bsr> bsr;
  std::optional<formats::Sell> sell;
  std::optional<formats::Dense> dense;
  std::optional<relation::CsrView> csr_view;
  std::optional<relation::HashIndexedView> hashed;
};

CompiledKernel compile_case(const LoopNest& nest, Bindings& b,
                            const PlannerOptions& opts) {
  try {
    return compile(nest, b, opts);
  } catch (const Error&) {
    // A forced order can be infeasible for the storage (CCS forced
    // row-major, say); plan free.
    PlannerOptions free;
    free.allow_merge = opts.allow_merge;
    return compile(nest, b, free);
  }
}

// Which rungs beyond the engines a case also runs.
struct ExtraRungs {
  bool specialized = false;  // emitted C, whenever a toolchain loads it
  bool server = false;       // KernelServer (unit CSR on the full matrix)
};

// Drives `p`, with A stored as `s`, through every rung and checks each
// against the interpreter (and the interpreter against the dense
// reference). Returns the interpreter's observables.
Observed run_every_rung(const Problem& p, Storage s, ExtraRungs extra) {
  StoredA a(s, p.coo);
  Vector y(p.y0.size());
  Bindings b;
  a.bind(b);
  b.bind_dense_vector("X", ConstVectorView(p.mac == Mac::kAliased ? y : p.x));
  b.bind_dense_vector("S", ConstVectorView(p.s));
  b.bind_dense_vector("Y", VectorView(y));
  std::vector<ArrayRef> factors{{"A", {"i", "j"}}, {"X", {"j"}}};
  std::vector<index_t> slots{2, 3};  // compile(): I = 0, target = 1
  if (p.mac == Mac::kScaledThreeFactor) {
    factors.push_back({"S", {"i"}});
    slots.push_back(4);
  }
  const LoopNest nest{{{"i", p.rows}, {"j", p.cols}},
                      {{"Y", {"i"}}, factors, p.scale}};
  const CompiledKernel k = compile_case(nest, b, p.opts);
  const Action action = multiply_accumulate(k.query(), 1, slots, p.scale);
  const LinkedMac mac = link_mac(k.query(), 1, slots, p.scale);
  auto fresh_link = [&] { return link_plan(k.plan(), k.query()); };

  // The ranges the all-hit proofs read are the cursors' own; only the
  // hash-indexed view has an opaque (unscannable) level.
  const LinkedPlan lp = fresh_link();
  const std::size_t checked = expect_stored_ranges(lp);
  if (s != Storage::kHashed) {
    EXPECT_EQ(checked, lp.levels.size());
  }

  // Each rung starts from y0.
  auto rung = [&](bool profiled, auto&& run) {
    std::copy(p.y0.begin(), p.y0.end(), y.begin());
    return observe(profiled, run, &y);
  };
  const Observed ref = rung(true, [&](RunStats* st) {
    execute_interpreted(k.plan(), k.query(), action, st);
  });
  EXPECT_TRUE(near_dense(dense_reference(p, k.plan().levels[0].var == "i"),
                         ref.y));

  for (const bool profiled : {true, false}) {
    const std::string tag = profiled ? " profiled" : "";
    LinkedRunner serial(fresh_link());
    const Observed la = rung(profiled, [&](RunStats* st) {
      serial.run(action, st);
    });
    expect_same(ref, la, "linked run(Action)" + tag);
    const Observed lm = rung(profiled, [&](RunStats* st) {
      serial.run(mac, st);
    });
    expect_same(ref, lm, "linked mac" + tag);

    for (const int threads : {1, 2, 3, 4, 8}) {
      const std::string at = " threads=" + std::to_string(threads) + tag;
      ParallelRunner par(fresh_link(), threads);
      const Observed pm = rung(profiled, [&](RunStats* st) {
        par.run(mac, st);
      });
      expect_same(ref, pm, "parallel mac" + at);
      EXPECT_EQ(lm.kind_work, pm.kind_work) << "parallel mac" << at;
      // A threaded runner runs y += A·y serially and says why; with
      // nothing stored A has no value array, so owner-computes cannot
      // take the fused drain either.
      if (par.parallel() && threads > 1) {
        if (p.mac == Mac::kAliased) {
          EXPECT_EQ(par.run_note(),
                    "target Y overlaps factor X; threads need an alias-free "
                    "target")
              << at;
        } else if (lp.owner_computes) {
          EXPECT_EQ(par.run_note(),
                    p.coo.nnz() > 0 ? ""
                                    : "the multiply-accumulate does not take "
                                      "the fused drain owner-computes runs")
              << "owner-computes" << at;
        }
      }
      // run(Action) fans out only an action safe for concurrent distinct
      // outer bindings, which y += A·y is not.
      if (p.mac == Mac::kAliased && threads > 1) continue;
      const Observed pa = rung(profiled, [&](RunStats* st) {
        par.run(action, st);
      });
      expect_same(ref, pa, "parallel run(Action)" + at);
      EXPECT_EQ(la.kind_work, pa.kind_work) << "parallel run(Action)" << at;
    }
  }

  if (extra.specialized) {
    SpecializedKernel spec(lp, mac);
    for (const bool profiled : {true, false})
      if (spec.ok())
        expect_same(ref, rung(profiled, [&](RunStats* st) { spec.run(st); }),
                    profiled ? "specialized profiled" : "specialized");
  }

  if (extra.server) {
    // The second request hits the cache: one engine run, nothing built.
    server::KernelServer srv;
    const int h = srv.add_csr("A", *a.csr);
    srv.spmv(h, ConstVectorView(p.x), VectorView(y));
    const Observed sv = observe(false, [&](RunStats*) {
      srv.spmv(h, ConstVectorView(p.x), VectorView(y));
    }, &y);
    SCOPED_TRACE("server");
    EXPECT_TRUE(same_bits(ref.y, sv.y));
    EXPECT_EQ(ref.counts, sv.counts);
    EXPECT_EQ(ref.fanout, sv.fanout);
  }
  return ref;
}

class RungHarness : public ::testing::TestWithParam<Case> {};

TEST_P(RungHarness, EveryRungMatchesTheInterpreter) {
  const Case& c = GetParam();
  const Problem p = make_problem(c);
  ExtraRungs extra;
  // The emitted C also on the edge shapes of every storage with a fused
  // leaf form: empty ranges and constant extents of 0 or 1 row.
  const bool fused_storage = c.storage == Storage::kCsr ||
                             c.storage == Storage::kCcs ||
                             c.storage == Storage::kSell ||
                             block_of(c.storage) > 0;
  const bool edge_shape =
      c.shape == Shape::kLeadingEmptyRows ||
      c.shape == Shape::kTrailingEmptyRows || c.shape == Shape::kAllEmpty ||
      c.shape == Shape::kNoRows || c.shape == Shape::kNoColumns ||
      c.shape == Shape::kOneDenseRow;
  extra.specialized =
      c.shape == Shape::kParetoRows ||
      (c.shape == Shape::kBlockRowTail && block_of(c.storage) > 0) ||
      (fused_storage && edge_shape);
  extra.server = c.storage == Storage::kCsr && c.mac == Mac::kUnit &&
                 c.planning == Planning::kFree &&
                 p.coo.rows() == p.rows && p.coo.cols() == p.cols;
  run_every_rung(p, c.storage, extra);
}

// Every storage × shape × mac, planned free; the duplicates shape also
// under each planner knob. y += A·y needs a square A, so the aliased mac
// skips the shapes with one or no rows or columns.
std::vector<Case> harness_cases() {
  std::vector<Case> cases;
  std::uint64_t seed = 0xB3E0;
  for (const Storage s : kStorages)
    for (const Shape sh : kShapes)
      for (const Mac m : kMacs) {
        if (m == Mac::kAliased &&
            (sh == Shape::kNoRows || sh == Shape::kNoColumns ||
             sh == Shape::kOneRow || sh == Shape::kOneColumn))
          continue;
        cases.push_back({s, sh, m, Planning::kFree, seed++});
        if (sh != Shape::kDuplicates) continue;
        for (const Planning pl :
             {Planning::kNoMerge, Planning::kForcedIJ, Planning::kForcedJI})
          cases.push_back({s, sh, m, pl, seed++});
      }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Seeded, RungHarness, ::testing::ValuesIn(harness_cases()),
    [](const ::testing::TestParamInfo<Case>& info) {
      const Case& c = info.param;
      return std::string(storage_name(c.storage)) + "_" +
             shape_name(c.shape) + "_" + mac_name(c.mac) +
             planning_name(c.planning);
    });

// ---- Cross-format pins ----------------------------------------------

// SELL-C-σ padding lanes sit beyond every row's length and are never
// enumerated, so on any matrix SELL books exactly what CSR books.
TEST(RungPins, SellBooksWhatCsrBooks) {
  for (const Mac m : kMacs) {
    const Case c{Storage::kCsr, Shape::kParetoRows, m, Planning::kFree, 77};
    const Problem p = make_problem(c);
    ASSERT_GT(formats::Sell::from_coo(p.coo, 4, 8).stored(), p.coo.nnz())
        << "case must exercise padding";
    const Observed csr = run_every_rung(p, Storage::kCsr, {});
    const Observed sell = run_every_rung(p, Storage::kSell, {});
    expect_same(csr, sell, std::string("sell vs csr, ") + mac_name(m));
  }
}

// A block-dense BCSR stores no fill zeros, so ascending block columns
// enumerate CSR's very (j, value) sequence: bitwise CSR, same bookings.
TEST(RungPins, BlockDenseBcsrIsBitwiseCsr) {
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
  Problem p;
  p.rows = p.cols = n;
  p.coo = std::move(tb).build();
  p.x = random_vector(n, 92);
  p.s = random_vector(n, 93);
  p.y0.assign(n, 0.0);
  ASSERT_EQ(formats::Bsr::from_coo(p.coo, blk).stored(), p.coo.nnz());
  const Observed csr = run_every_rung(p, Storage::kCsr, {true, false});
  const Observed bsr = run_every_rung(p, Storage::kBcsr4, {true, false});
  expect_same(csr, bsr, "bcsr vs csr");

  // The threaded rungs above ran on a block-aligned chunk grid.
  StoredA a(Storage::kBcsr4, p.coo);
  Vector y(p.y0);
  Bindings b;
  a.bind(b);
  b.bind_dense_vector("X", ConstVectorView(p.x));
  b.bind_dense_vector("Y", VectorView(y));
  const LoopNest nest{{{"i", n}, {"j", n}},
                      {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
  const CompiledKernel k = compile(nest, b);
  EXPECT_EQ(link_plan(k.plan(), k.query()).chunk_align, blk);
}

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
    const Observed ir = interpreted(
        k.plan(), k.query(), multiply_accumulate(k.query(), 1, {2, 3}), &y);
    std::fill(y.begin(), y.end(), 0.0);
    Observed lr = linked(k.plan(), k.query(), link_mac(k.query(), 1, {2, 3}),
                         &y);
    expect_same(ir, lr, allow_merge ? "merge" : "probe");
    if (allow_merge) {
      EXPECT_GT(lr.counts["executor.merge_steps"], 0);
      EXPECT_GT(lr.counts["executor.merge_segment_bytes"], 0);
    } else {
      // Index-nested-loop mode: X is probed and rejects most columns.
      EXPECT_GT(lr.counts["executor.probe_misses"], 0);
    }
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
  const Observed ir = interpreted(plan, q_interp,
                                  multiply_accumulate(q_interp, 3, {1, 2}));

  relation::SpaView c_linked("C", 14, 11);
  Query q_linked = make_query(c_linked);
  Observed lr = linked(plan, q_linked, link_mac(q_linked, 3, {1, 2}));

  expect_same(ir, lr, "spgemm");
  EXPECT_GT(lr.counts["executor.fill_ins"], 0);
  EXPECT_EQ(c_interp.harvest(), c_linked.harvest());  // structure + values
  EXPECT_EQ(c_linked.harvest(), blas::spgemm(acsr, bcsr).to_coo());
}

// ---- Permutation relation (JDS, paper Eq. 6) ------------------------

TEST(LinkedExec, JdsPermutationMatvecMatches) {
  const index_t n = 20;
  Coo coo = random_matrix(n, n, 90, 24);
  formats::Jds jds = formats::Jds::from_coo(coo);

  const Vector x = random_vector(static_cast<std::size_t>(n), 25);
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

  const Observed ir =
      interpreted(plan, q, multiply_accumulate(q, 4, {2, 3}), &y);
  std::fill(y.begin(), y.end(), 0.0);
  expect_same(ir, linked(plan, q, link_mac(q, 4, {2, 3}), &y), "jds");
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
  auto run = [&](RunStats* st) { runner.run(mac, st); };
  const Observed first = observe(false, run, &y);
  for (int rep = 0; rep < 3; ++rep) {
    std::fill(y.begin(), y.end(), 0.0);
    expect_same(first, observe(false, run, &y),
                "rep " + std::to_string(rep));
  }
}

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

// ---- Affine-lowered outer drain -------------------------------------

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
// The fused drain serially and at 4 threads must book what run(Action),
// which never takes it, books.
TEST(OuterDrains, AffineOperandsMatchPerRowPath) {
  const index_t rows = 48, cols = 36;
  const Coo coo = pareto_matrix(rows, cols, 515);
  formats::Dense bm =
      formats::Dense::from_coo(random_matrix(rows, cols, 900, 516));
  const Vector x = random_vector(static_cast<std::size_t>(cols), 517);
  const Vector y0 = random_vector(static_cast<std::size_t>(rows), 518);
  for (Storage s :
       {Storage::kCsr, Storage::kCcs, Storage::kBcsr4, Storage::kSell}) {
    StoredA a(s, coo);
    Vector y(y0.size());
    StridedRootVector strided("Y", y);
    for (int shape = 0; shape < 3; ++shape) {
      Bindings b;
      a.bind(b);
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
          std::string(storage_name(s)) + " shape " + std::to_string(shape);
      const LinkedMac mac = link_mac(k.query(), 1, slots);
      auto rung = [&](auto&& run) {
        y = y0;
        return observe(true, run, &y);
      };
      LinkedRunner serial(link_plan(k.plan(), k.query()));
      const Observed ref = rung([&](RunStats* st) {
        serial.run(multiply_accumulate(k.query(), 1, slots), st);
      });
      expect_same(ref, rung([&](RunStats* st) { serial.run(mac, st); }),
                  label);
      ParallelRunner par(link_plan(k.plan(), k.query()), 4);
      expect_same(ref, rung([&](RunStats* st) { par.run(mac, st); }),
                  label + " threads=4");
    }
  }
}

// ---- Owner-computes CCS: where it cannot split Y --------------------

// The owner-computes runner runs serially — bitwise and counter-identical
// to the serial engine — where it cannot split Y, and names why: for
// run(Action) and for y += A·y (the factor IS the target; the chunked
// runner refuses it too, see RungHarness's aliased cases).
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
    const LinkedMac mac = link_mac(k.query(), 1, {2, 3});
    ParallelRunner runner(link_plan(k.plan(), k.query()), 4);
    EXPECT_TRUE(runner.parallel());
    y = y0;
    const Observed ref = linked(k.plan(), k.query(), mac, &y);
    y = y0;
    expect_same(
        ref, observe(false, [&](RunStats* st) { runner.run(mac, st); }, &y),
        "aliased");
    EXPECT_EQ(runner.run_note(),
              "target Y overlaps factor X; threads need an alias-free "
              "target");
  }

  Bindings b;
  b.bind_ccs("A", ccs);
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));
  const CompiledKernel k = compile(nest, b);

  // run(Action): the action may touch anything, so no split is safe.
  const Action action = multiply_accumulate(k.query(), 1, {2, 3});
  LinkedRunner serial(link_plan(k.plan(), k.query()));
  y = y0;
  const Observed ref =
      observe(false, [&](RunStats* st) { serial.run(action, st); }, &y);
  ParallelRunner runner(link_plan(k.plan(), k.query()), 4);
  y = y0;
  expect_same(
      ref, observe(false, [&](RunStats* st) { runner.run(action, st); }, &y),
      "run(Action)");
  EXPECT_EQ(runner.run_note(),
            "owner-computes runs only the multiply-accumulate; "
            "run(Action) runs serially");
  // A later mac run fans out again and clears the note.
  runner.run(link_mac(k.query(), 1, {2, 3}));
  EXPECT_EQ(runner.run_note(), "");
}

// ---- ParallelRunner legality ------------------------------------------

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
  const Action action = multiply_accumulate(q, 3, {1, 2});
  const Observed ir = interpreted(plan, q, action, &y);
  std::fill(y.begin(), y.end(), 0.0);
  ParallelRunner runner(link_plan(plan, q), 8);
  EXPECT_FALSE(runner.parallel());
  expect_same(
      ir, observe(false, [&](RunStats* st) { runner.run(action, st); }, &y),
      "outer merge");
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
