// End-to-end distributed compilation: dense program + distributions ->
// generated inspector/executor, checked against the sequential product.
#include <gtest/gtest.h>

#include <cstring>

#include "distrib/distribution.hpp"
#include "solvers/dist_cg.hpp"
#include "spmd/dist_compile.hpp"
#include "support/rng.hpp"
#include "workloads/grid.hpp"

namespace bernoulli::spmd {
namespace {

using distrib::BlockDist;
using distrib::CyclicDist;
using formats::Csr;

TEST(DistCompile, MatvecMatchesSequential) {
  auto g = workloads::grid3d_7pt(4, 4, 3, 2, 81);
  Csr a = Csr::from_coo(g.matrix);
  const index_t n = a.rows();
  const int P = 4;
  BlockDist rows(n, P);

  SplitMix64 rng(1);
  Vector x(static_cast<std::size_t>(n));
  for (auto& v : x) v = rng.next_double(-1, 1);
  Vector y_ref(static_cast<std::size_t>(n));
  formats::spmv(a, x, y_ref);

  Vector y(static_cast<std::size_t>(n), 0.0);
  std::mutex mu;
  runtime::Machine machine(P);
  machine.run([&](runtime::Process& p) {
    DistKernel k = compile_dist_matvec(p, a, rows);
    auto mine = rows.owned_indices(p.rank());
    auto xo = k.x_owned();
    for (std::size_t i = 0; i < mine.size(); ++i)
      xo[i] = x[static_cast<std::size_t>(mine[i])];
    k.run(p, /*tag=*/2);
    auto yl = k.y_local();
    std::lock_guard<std::mutex> lk(mu);
    for (std::size_t i = 0; i < mine.size(); ++i)
      y[static_cast<std::size_t>(mine[i])] = yl[i];
  });
  for (std::size_t i = 0; i < y.size(); ++i)
    ASSERT_NEAR(y[i], y_ref[i], 1e-11) << i;
}

TEST(DistCompile, RepeatedRunsRefreshGhosts) {
  // Change x between runs: ghosts must follow (the executor is reusable,
  // the inspector amortized — the paper's whole performance story).
  auto g = workloads::grid2d_5pt(10, 4, 1, 82);
  Csr a = Csr::from_coo(g.matrix);
  const index_t n = a.rows();
  const int P = 2;
  CyclicDist rows(n, P);  // cyclic: nearly everything is a ghost

  Vector got_first(static_cast<std::size_t>(n), 0.0);
  Vector got_second(static_cast<std::size_t>(n), 0.0);
  std::mutex mu;
  runtime::Machine machine(P);
  machine.run([&](runtime::Process& p) {
    DistKernel k = compile_dist_matvec(p, a, rows);
    auto mine = rows.owned_indices(p.rank());
    for (int round = 0; round < 2; ++round) {
      auto xo = k.x_owned();
      for (std::size_t i = 0; i < mine.size(); ++i)
        xo[i] = round == 0 ? 1.0 : static_cast<value_t>(mine[i]);
      k.run(p, 3);
      auto yl = k.y_local();
      std::lock_guard<std::mutex> lk(mu);
      for (std::size_t i = 0; i < mine.size(); ++i)
        (round == 0 ? got_first : got_second)[static_cast<std::size_t>(
            mine[i])] = yl[i];
    }
  });

  Vector ones(static_cast<std::size_t>(n), 1.0), ramp(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < ramp.size(); ++i) ramp[i] = static_cast<value_t>(i);
  Vector ref1(ones.size()), ref2(ones.size());
  formats::spmv(a, ones, ref1);
  formats::spmv(a, ramp, ref2);
  for (std::size_t i = 0; i < ones.size(); ++i) {
    ASSERT_NEAR(got_first[i], ref1[i], 1e-11);
    ASSERT_NEAR(got_second[i], ref2[i], 1e-11);
  }
}

TEST(DistCompile, CompiledCgMatchesHandWritten) {
  // dist_cg_compiled runs the same PCG recurrence with the compiled
  // kernel's SpMV (plan linked once, re-run per iteration) in place of the
  // hand-written DistSpmv — it must track the hand-written solve
  // iterate-for-iterate on the same operator.
  auto g = workloads::grid3d_7pt(4, 4, 3, 2, 85);
  Csr a = Csr::from_coo(g.matrix);
  const index_t n = a.rows();
  const int P = 2;
  BlockDist rows(n, P);
  Vector diag = solvers::extract_diagonal(a);
  Vector b(static_cast<std::size_t>(n), 1.0);

  solvers::CgOptions opts;
  opts.max_iterations = 40;
  opts.tolerance = 1e-10;

  Vector x_hand(static_cast<std::size_t>(n), 0.0);
  Vector x_comp(static_cast<std::size_t>(n), 0.0);
  solvers::DistCgResult res_hand, res_comp;
  std::mutex mu;
  runtime::Machine machine(P);
  machine.run([&](runtime::Process& p) {
    auto mine = rows.owned_indices(p.rank());
    Vector bl(mine.size()), dl(mine.size());
    for (std::size_t i = 0; i < mine.size(); ++i) {
      bl[i] = b[static_cast<std::size_t>(mine[i])];
      dl[i] = diag[static_cast<std::size_t>(mine[i])];
    }

    DistSpmv dist = build_dist_spmv(p, a, rows, Variant::kBlockSolve);
    Vector xl(mine.size(), 0.0);
    auto r1 = solvers::dist_cg(p, dist, dl, bl, xl, opts);

    DistKernel k = compile_dist_matvec(p, a, rows);
    Vector xc(mine.size(), 0.0);
    auto r2 = solvers::dist_cg_compiled(p, k, dl, bl, xc, opts);

    std::lock_guard<std::mutex> lk(mu);
    res_hand = r1;
    res_comp = r2;
    for (std::size_t i = 0; i < mine.size(); ++i) {
      x_hand[static_cast<std::size_t>(mine[i])] = xl[i];
      x_comp[static_cast<std::size_t>(mine[i])] = xc[i];
    }
  });

  EXPECT_TRUE(res_hand.converged);
  EXPECT_TRUE(res_comp.converged);
  EXPECT_EQ(res_hand.iterations, res_comp.iterations);
  EXPECT_NEAR(res_hand.residual_norm, res_comp.residual_norm, 1e-9);
  for (std::size_t i = 0; i < x_hand.size(); ++i)
    ASSERT_NEAR(x_hand[i], x_comp[i], 1e-8) << i;
}

TEST(DistCompile, RepeatedCompiledSolvesAreBitwiseEqual) {
  // Allreduces sum in rank order, whatever order the ranks arrive in, so
  // the same P = 4 solve gives bitwise the same iterate every time.
  auto g = workloads::grid3d_7pt(8, 8, 8, 2, 87);
  Csr a = Csr::from_coo(g.matrix);
  const index_t n = a.rows();
  const int P = 4;
  constexpr int kSolves = 10;
  BlockDist rows(n, P);
  Vector diag = solvers::extract_diagonal(a);
  Vector b(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = 1.0 + static_cast<double>(i % 7);

  solvers::CgOptions opts;
  opts.max_iterations = 500;
  opts.tolerance = 1e-10;

  std::vector<Vector> xs(kSolves, Vector(static_cast<std::size_t>(n), 0.0));
  std::vector<int> iterations(kSolves, 0);
  runtime::Machine machine(P);
  machine.run([&](runtime::Process& p) {
    auto mine = rows.owned_indices(p.rank());
    Vector bl(mine.size()), dl(mine.size());
    for (std::size_t i = 0; i < mine.size(); ++i) {
      bl[i] = b[static_cast<std::size_t>(mine[i])];
      dl[i] = diag[static_cast<std::size_t>(mine[i])];
    }
    DistKernel k = compile_dist_matvec(p, a, rows);
    for (int s = 0; s < kSolves; ++s) {
      Vector xl(mine.size(), 0.0);
      auto res = solvers::dist_cg_compiled(p, k, dl, bl, xl, opts);
      EXPECT_TRUE(res.converged);
      // Ranks write disjoint slots; rank 0 alone writes the count.
      if (p.rank() == 0)
        iterations[static_cast<std::size_t>(s)] = res.iterations;
      for (std::size_t i = 0; i < mine.size(); ++i)
        xs[static_cast<std::size_t>(s)][static_cast<std::size_t>(mine[i])] =
            xl[i];
    }
  });

  for (int s = 1; s < kSolves; ++s) {
    EXPECT_EQ(iterations[static_cast<std::size_t>(s)], iterations[0]);
    EXPECT_EQ(std::memcmp(xs[static_cast<std::size_t>(s)].data(),
                          xs[0].data(), xs[0].size() * sizeof(value_t)),
              0)
        << "solve " << s << " differs bitwise from solve 0";
  }
}

TEST(DistCompile, EmitsLocalProgram) {
  auto g = workloads::grid2d_5pt(6, 6, 1, 83);
  Csr a = Csr::from_coo(g.matrix);
  BlockDist rows(a.rows(), 2);
  std::vector<std::string> codes(2);
  runtime::Machine machine(2);
  machine.run([&](runtime::Process& p) {
    DistKernel k = compile_dist_matvec(p, a, rows);
    codes[static_cast<std::size_t>(p.rank())] = k.emit("node_spmv");
    EXPECT_NE(k.describe_plan().find("enumerate A"), std::string::npos);
  });
  for (const auto& code : codes)
    EXPECT_NE(code.find("int node_spmv(const int** ia"), std::string::npos)
        << code;
}

TEST(DistCompile, FusedFragmentConcatenatesTheSplitParts) {
  // The compiled kernel's fragment is, row by row, build_dist_spmv's
  // a_local (owned columns) followed by its a_nonlocal (ghost slots), and
  // both inspectors build the same schedule.
  auto g = workloads::grid3d_7pt(4, 4, 3, 2, 86);
  Csr a = Csr::from_coo(g.matrix);
  const index_t n = a.rows();
  const std::vector<index_t> color_ptr = {0, n / 3, n / 2, n};
  for (int P : {1, 2, 3, 4}) {
    BlockDist block(n, P);
    distrib::RowRunsDist runs = distrib::rowruns_from_color_ptr(color_ptr, n, P);
    for (const distrib::Distribution* rows :
         {static_cast<const distrib::Distribution*>(&block),
          static_cast<const distrib::Distribution*>(&runs)}) {
      runtime::Machine machine(P);
      machine.run([&](runtime::Process& p) {
        SCOPED_TRACE(rows->name() + " P=" + std::to_string(P) +
                     " rank=" + std::to_string(p.rank()));
        const DistSpmv split =
            build_dist_spmv(p, a, *rows, Variant::kBernoulliMixed);
        const DistKernel k = compile_dist_matvec(p, a, *rows);
        std::vector<index_t> ptr{0}, ind;
        Vector vals;
        for (index_t i = 0; i < split.a_local.rows(); ++i) {
          for (const Csr* part : {&split.a_local, &split.a_nonlocal}) {
            auto c = part->row_cols(i);
            auto v = part->row_vals(i);
            ind.insert(ind.end(), c.begin(), c.end());
            vals.insert(vals.end(), v.begin(), v.end());
          }
          ptr.push_back(static_cast<index_t>(ind.size()));
        }
        const Csr& frag = k.fragment();
        EXPECT_EQ(frag.rows(), split.a_local.rows());
        EXPECT_EQ(frag.cols(), split.sched.full_size());
        EXPECT_EQ(std::vector<index_t>(frag.rowptr().begin(),
                                       frag.rowptr().end()),
                  ptr);
        EXPECT_EQ(std::vector<index_t>(frag.colind().begin(),
                                       frag.colind().end()),
                  ind);
        EXPECT_EQ(Vector(frag.vals().begin(), frag.vals().end()), vals);
        const CommSchedule& s = k.schedule();
        EXPECT_EQ(s.nprocs, split.sched.nprocs);
        EXPECT_EQ(s.owned, split.sched.owned);
        EXPECT_EQ(s.ghosts, split.sched.ghosts);
        EXPECT_EQ(s.send_local, split.sched.send_local);
        EXPECT_EQ(s.recv_count, split.sched.recv_count);
        EXPECT_EQ(s.ghost_base, split.sched.ghost_base);
      });
    }
  }
}

TEST(DistCompile, KernelSurvivesMove) {
  // The kernel owns heap-anchored storage; views must stay valid after
  // moving the kernel object around.
  auto g = workloads::grid2d_5pt(5, 5, 1, 84);
  Csr a = Csr::from_coo(g.matrix);
  BlockDist rows(a.rows(), 1);
  runtime::Machine machine(1);
  machine.run([&](runtime::Process& p) {
    auto holder = std::make_unique<DistKernel>(compile_dist_matvec(p, a, rows));
    DistKernel moved = std::move(*holder);
    holder.reset();
    auto xo = moved.x_owned();
    std::fill(xo.begin(), xo.end(), 1.0);
    moved.run(p, 4);
    Vector ones(static_cast<std::size_t>(a.rows()), 1.0), ref(ones.size());
    formats::spmv(a, ones, ref);
    auto yl = moved.y_local();
    for (std::size_t i = 0; i < ref.size(); ++i)
      ASSERT_NEAR(yl[i], ref[i], 1e-12);
  });
}

}  // namespace
}  // namespace bernoulli::spmd
