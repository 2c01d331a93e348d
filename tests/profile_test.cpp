// Per-level time-attribution profiler (support/profile.hpp) contracts:
//
//  - Overhead: a profiled linked run costs < 2% wall over an unprofiled
//    run on a Table-2-sized CRS matvec (best-of-k minima, mirroring
//    tests/trace_overhead_test.cpp — noise only ever adds time).
//  - Invariant: the raw sampled values committed by every flush obey
//    incl[d] == sum_kind self[d][*] + incl[d+1] exactly; additive across
//    runs, so it must hold on any registry snapshot.
//  - Determinism: work counts are exact integer sums, so a serial run and
//    a --threads=N run of the same plan produce bitwise-identical work
//    arrays (sampled ns are estimates and deliberately NOT compared).
//  - Reconciliation: the sum of per-level self estimates lands within the
//    documented tolerance of the accumulated execute wall time (the
//    estimator clamps each run at 100% of its own wall).
//  - Round-trip: profile_collapsed() parses back through
//    profile_parse_collapsed() with the totals preserved.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "compiler/link.hpp"
#include "compiler/loopnest.hpp"
#include "formats/formats.hpp"
#include "support/metrics.hpp"
#include "support/profile.hpp"
#include "support/rng.hpp"

namespace bernoulli::compiler {
namespace {

struct Spmv {
  formats::Csr csr;
  Vector x, y;
  Bindings bindings;
  CompiledKernel kernel;
};

std::unique_ptr<Spmv> make_spmv(index_t n, index_t nnz, std::uint64_t seed) {
  SplitMix64 rng(seed);
  formats::TripletBuilder b(n, n);
  for (index_t k = 0; k < nnz; ++k)
    b.add(rng.next_index(n), rng.next_index(n), rng.next_double(-1, 1));
  auto s = std::make_unique<Spmv>();
  s->csr = formats::Csr::from_coo(std::move(b).build());
  s->x.assign(static_cast<std::size_t>(n), 1.0);
  s->y.assign(static_cast<std::size_t>(n), 0.0);
  s->bindings.bind_csr("A", s->csr);
  s->bindings.bind_dense_vector("X", ConstVectorView(s->x));
  s->bindings.bind_dense_vector("Y", VectorView(s->y));
  LoopNest nest{{{"i", n}, {"j", n}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
  s->kernel = compile(nest, s->bindings);
  return s;
}

// Restores the process-global profiling switch and clears the registry on
// both sides, so these tests neither see nor leave foreign state.
struct ProfilingGuard {
  ProfilingGuard() {
    support::profile_reset();
    support::set_profiling(true);
  }
  ~ProfilingGuard() {
    support::set_profiling(false);
    support::profile_reset();
  }
};

long long best_run_ns(LinkedRunner& runner, const LinkedMac& mac, int k) {
  long long best = -1;
  for (int i = 0; i < k; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    runner.run(mac);
    const auto t1 = std::chrono::steady_clock::now();
    const long long ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
    if (best < 0 || ns < best) best = ns;
  }
  return best;
}

// ---- Overhead budget ------------------------------------------------

TEST(ProfileOverhead, ProfiledLinkedRunStaysUnderTwoPercent) {
  // Table-2-sized CRS: enough rows that the sampler opens several
  // brackets per run, enough nnz that 2% of the wall is far above timer
  // granularity. Profiled and unprofiled runs are INTERLEAVED — two
  // separated best-of-k phases would compare different machine-load
  // regimes on a shared CI box — and the loop keeps sampling pairs until
  // the running minima land under the budget (noise only ever adds time,
  // so with a true overhead below 2% the minima must converge there; a
  // real regression never does and exhausts the cap).
  auto s = make_spmv(512, 260'000, 47);
  LinkedRunner runner(link_plan(s->kernel.plan(), s->kernel.query()));
  LinkedMac mac = link_mac(s->kernel.query(), 1, {2, 3});

  support::set_profiling(true);
  best_run_ns(runner, mac, 1);  // warm the profiled path + timer calib
  support::set_profiling(false);
  best_run_ns(runner, mac, 5);  // warm caches and the metrics registry

  long long plain = -1, profiled = -1;
  constexpr int kMinPairs = 30, kMaxPairs = 3000;
  for (int i = 0; i < kMaxPairs; ++i) {
    support::set_profiling(false);
    const long long u = best_run_ns(runner, mac, 1);
    if (plain < 0 || u < plain) plain = u;
    support::set_profiling(true);
    const long long p = best_run_ns(runner, mac, 1);
    if (profiled < 0 || p < profiled) profiled = p;
    if (i + 1 >= kMinPairs && profiled - plain < plain / 50) break;
  }
  support::set_profiling(false);
  support::profile_reset();

  // 2% of the unprofiled best, floored at 2us so a very fast host cannot
  // push the budget below one scheduler-jitter quantum.
  const long long overhead = profiled - plain;
  const long long budget = std::max(plain / 50, 2'000LL);
  EXPECT_LT(overhead, budget)
      << "profiling added " << overhead << " ns per run (unprofiled best "
      << plain << " ns, profiled best " << profiled << " ns, budget "
      << budget << " ns)";
}

// ---- Raw self/inclusive invariant -----------------------------------

TEST(Profile, RawSelfPlusChildrenEqualsInclusive) {
  ProfilingGuard guard;
  auto s = make_spmv(128, 2'000, 48);
  LinkedRunner runner(link_plan(s->kernel.plan(), s->kernel.query()));
  LinkedMac mac = link_mac(s->kernel.query(), 1, {2, 3});
  for (int i = 0; i < 4; ++i) runner.run(mac);

  const support::ProfileSnapshot snap = support::profile_snapshot();
  ASSERT_GT(snap.runs, 0);
  ASSERT_EQ(snap.levels, 2);  // the i,j matvec plan
  for (int d = 0; d < snap.levels; ++d) {
    long long self = 0;
    for (int k = 0; k < support::kProfKinds; ++k) self += snap.raw_ns[d][k];
    const long long deeper =
        d + 1 < snap.levels ? snap.raw_incl_ns[d + 1] : 0;
    EXPECT_EQ(snap.raw_incl_ns[d], self + deeper) << "level " << d;
  }
  EXPECT_GT(snap.raw_incl_ns[0], 0) << "no bracket ever closed";
}

// ---- Serial vs threaded: exact work counts --------------------------

std::vector<long long> work_counts(const support::ProfileSnapshot& s) {
  std::vector<long long> w;
  for (int d = 0; d < support::kProfileMaxLevels; ++d)
    for (int k = 0; k < support::kProfKinds; ++k) w.push_back(s.work[d][k]);
  return w;
}

TEST(Profile, SerialAndThreadedWorkCountsIdentical) {
  ProfilingGuard guard;
  auto s = make_spmv(96, 1'500, 49);
  LinkedMac mac = link_mac(s->kernel.query(), 1, {2, 3});

  LinkedRunner serial(link_plan(s->kernel.plan(), s->kernel.query()));
  serial.run(mac);
  const support::ProfileSnapshot ss = support::profile_snapshot();
  const std::vector<long long> serial_work = work_counts(ss);
  ASSERT_GT(ss.level_work(0), 0);

  for (int threads : {2, 8}) {
    support::profile_reset();
    ParallelRunner runner(link_plan(s->kernel.plan(), s->kernel.query()),
                          threads);
    runner.run(mac);
    const support::ProfileSnapshot ts = support::profile_snapshot();
    EXPECT_EQ(serial_work, work_counts(ts)) << "threads=" << threads;
    EXPECT_EQ(ss.levels, ts.levels) << "threads=" << threads;
  }
}

// ---- Reconciliation against the execute wall ------------------------

TEST(Profile, LevelSelfTimesReconcileWithWall) {
  ProfilingGuard guard;
  auto s = make_spmv(512, 65'000, 50);
  LinkedRunner runner(link_plan(s->kernel.plan(), s->kernel.query()));
  LinkedMac mac = link_mac(s->kernel.query(), 1, {2, 3});
  for (int i = 0; i < 8; ++i) runner.run(mac);

  const support::ProfileSnapshot snap = support::profile_snapshot();
  ASSERT_GT(snap.wall_ns, 0);
  const long long total = snap.total_self_ns();
  EXPECT_GT(total, 0);
  // The estimator clamps each run's attributed total at 100% of that
  // run's wall, so the sum can never exceed the accumulated wall; the
  // lower bound is the documented tolerance (>= 25% attributed — the
  // plan body IS the run, so sampling should land far above this).
  EXPECT_LE(total, snap.wall_ns);
  EXPECT_GE(4 * total, snap.wall_ns)
      << "attributed " << total << " ns of " << snap.wall_ns
      << " ns accumulated execute wall";
}

// ---- Collapsed-stack round trip -------------------------------------

TEST(Profile, CollapsedStackRoundTrips) {
  ProfilingGuard guard;
  auto s = make_spmv(128, 2'500, 51);
  LinkedRunner runner(link_plan(s->kernel.plan(), s->kernel.query()));
  LinkedMac mac = link_mac(s->kernel.query(), 1, {2, 3});
  for (int i = 0; i < 3; ++i) runner.run(mac);
  support::profile_phase_add(support::kProfPhaseExchange, 1'234);

  const std::string text = support::profile_collapsed();
  ASSERT_FALSE(text.empty());
  std::vector<std::pair<std::string, long long>> frames;
  ASSERT_TRUE(support::profile_parse_collapsed(text, &frames));
  ASSERT_FALSE(frames.empty());

  long long sum = 0;
  bool saw_phase = false;
  for (const auto& [stack, count] : frames) {
    EXPECT_EQ(stack.rfind("plan", 0), 0u) << stack;
    EXPECT_GE(count, 0);
    sum += count;
    saw_phase = saw_phase || stack == "plan;exchange";
  }
  EXPECT_TRUE(saw_phase);

  const support::ProfileSnapshot snap = support::profile_snapshot();
  long long want = snap.total_self_ns();
  for (int p = 0; p < support::kProfPhases; ++p) want += snap.phase_ns[p];
  EXPECT_EQ(sum, want);

  // Malformed lines fail the parse loudly instead of skipping.
  EXPECT_FALSE(support::profile_parse_collapsed("no-count-field\n", &frames));
  EXPECT_FALSE(support::profile_parse_collapsed("plan;x -5\n", &frames));
}

}  // namespace
}  // namespace bernoulli::compiler
