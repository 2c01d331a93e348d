// Distributed CG to relative residual 1e-8 through solvers::dist_cg_compiled
// on a runtime::Machine: P = T ranks, and P = 1 on the same matrix as the
// single-threaded baseline (strong scaling). Each rank compiles its local
// matvec with spmd::compile_dist_matvec (inspector + local compile; the
// link happens on the first DistKernel::run, counted in set-up). The
// kernels outlive the set-up machine run and serve every epoch's solves.
#include <cmath>
#include <memory>

#include "bench.hpp"
#include "distrib/distribution.hpp"
#include "runtime/machine.hpp"
#include "solvers/cg.hpp"
#include "solvers/dist_cg.hpp"
#include "spmd/dist_compile.hpp"

namespace perfbench {

using namespace bernoulli;

namespace {

constexpr double kTolerance = 1e-8;
constexpr int kTag = 7301;
constexpr int kSetupReps = 3;
// Share of each epoch's CG budget the P = T solves get; the P = 1 solves,
// 3x longer and the noisier, get the rest.
constexpr double kParallelShare = 0.35;

// Per-rank scalars: rank threads write slot [rank] of a row they own
// exclusively; rows are appended only between machine runs.
struct PerRank {
  std::vector<std::vector<double>> rows;
  void add_rows(std::size_t n, int p) {
    rows.resize(rows.size() + n, std::vector<double>(static_cast<std::size_t>(p), 0.0));
  }
  std::vector<double> maxes() const {
    std::vector<double> m;
    for (const auto& r : rows) m.push_back(*std::max_element(r.begin(), r.end()));
    return m;
  }
  std::vector<double> sums() const {
    std::vector<double> m;
    for (const auto& r : rows) {
      double t = 0;
      for (double v : r) t += v;
      m.push_back(t);
    }
    return m;
  }
};

// One rank count's machine state: distribution, per-rank slices and
// compiled kernels, and everything measured on it.
struct Ranks {
  int p = 1;
  std::unique_ptr<distrib::Distribution> dist;
  std::vector<std::unique_ptr<spmd::DistKernel>> kern;
  std::vector<Vector> b, d, x;  // per-rank local slices
  std::vector<std::vector<index_t>> owned;
  PerRank setup, inspector, solve, iters, msgs, bytes, vtime, matvec, allreduce, blas1;
  bool converged = true;
};

void init_ranks(Ranks& r, const CgProblem& prob, int p) {
  const index_t n = prob.a.rows();
  r.p = p;
  if (!prob.color_ptr.empty())
    r.dist = std::make_unique<distrib::RowRunsDist>(distrib::rowruns_from_color_ptr(prob.color_ptr, n, p));
  else
    r.dist = std::make_unique<distrib::BlockDist>(n, p);
  const Vector diag = solvers::extract_diagonal(prob.a);
  const auto np = static_cast<std::size_t>(p);
  r.kern.resize(np);
  r.b.resize(np);
  r.d.resize(np);
  r.x.resize(np);
  r.owned.resize(np);
  for (int k = 0; k < p; ++k) {
    const auto ki = static_cast<std::size_t>(k);
    r.owned[ki] = r.dist->owned_indices(k);
    for (index_t g : r.owned[ki]) {
      r.b[ki].push_back(prob.b[static_cast<std::size_t>(g)]);
      r.d[ki].push_back(diag[static_cast<std::size_t>(g)]);
    }
    r.x[ki].assign(r.owned[ki].size(), 0.0);
  }
}

class Cg final : public Phase {
 public:
  explicit Cg(Context& ctx) : ctx_(ctx) {}

  double setup() override {
    prob_ = cg_problem(*ctx_.workload, ctx_.seed);
    std::fprintf(stderr, "[cg] %s: %d rows, %d entries, P = %d and 1\n",
                 ctx_.workload->name.c_str(), prob_.a.rows(), prob_.a.nnz(), ctx_.threads);
    init_ranks(par_, prob_, ctx_.threads);
    init_ranks(ser_, prob_, 1);
    compile(par_);
    compile(ser_);
    return median(par_.setup.maxes());
  }

  void epoch(int e, double budget_s) override {
    solves(par_, kParallelShare * budget_s, e);
    solves(ser_, (1 - kParallelShare) * budget_s, e);
  }

  void finish() override {
    // Oracle: convergence, the true residual ||b - A x|| / ||b|| recomputed
    // with formats::spmv within 10x the tolerance, and one iteration count
    // for every solve, every rank and both P.
    const double iters = par_.iters.rows.at(0).at(0);
    for (Ranks* r : {&par_, &ser_}) {
      ctx_.check(r->converged, "CG did not converge");
      Vector xg(prob_.b.size()), ax(prob_.b.size());
      for (std::size_t k = 0; k < r->owned.size(); ++k)
        for (std::size_t i = 0; i < r->owned[k].size(); ++i)
          xg[static_cast<std::size_t>(r->owned[k][i])] = r->x[k][i];
      formats::spmv(prob_.a, xg, ax);
      double rr = 0, bb = 0;
      for (std::size_t i = 0; i < ax.size(); ++i) {
        rr += (prob_.b[i] - ax[i]) * (prob_.b[i] - ax[i]);
        bb += prob_.b[i] * prob_.b[i];
      }
      const double rel = std::sqrt(rr / bb);
      ctx_.check(rel <= 10 * kTolerance, "true relative residual " + std::to_string(rel));
      for (const auto& row : r->iters.rows)
        for (double it : row)
          ctx_.check(it == iters, "iteration count " + std::to_string(it) + " != " + std::to_string(iters));
    }

    // P = T: the lower quartile of the run's solves. P = 1: the fastest.
    // One rank runs on one vCPU at a time, and its solves, each long
    // enough to straddle the host's speed modes, reach the fast mode only
    // in a few of a run's 50-90; the minimum follows it, a quantile does
    // not (README.md, "Noise").
    ctx_.set_samples("cg_solve_s", par_.solve.maxes(), 0.25);
    ctx_.set_samples("cg_serial_solve_s", ser_.solve.maxes(), 0.0);
    const double solve_s = ctx_.metrics["cg_solve_s"];
    ctx_.set("cg_iterations", iters);
    std::fprintf(stderr, "[cg] %zu + %zu solves, %g iterations\n", par_.solve.rows.size(),
                 ser_.solve.rows.size(), iters);
    if (!ctx_.trace) return;

    probes(par_);
    ctx_.set("spmd.inspector_s", median(par_.inspector.maxes()));
    const double matvec = median(par_.matvec.maxes());
    const double allreduce = median(par_.allreduce.maxes());
    const double blas1 = median(par_.blas1.maxes());
    ctx_.set("spmd.matvec_us", matvec);
    ctx_.set("spmd.exchange_bytes_per_iter", median(par_.bytes.sums()));
    ctx_.set("spmd.messages_per_iter", median(par_.msgs.sums()));
    ctx_.set("runtime.allreduce_us", allreduce);
    ctx_.set("solvers.blas1_us", blas1);
    ctx_.set("runtime.vtime_per_iter_s", median(par_.vtime.maxes()));
    // Reconciliation: one iteration = 1 matvec + 3 allreduces (r.r, p.q,
    // r.z) + the local BLAS-1; the rest is unattributed.
    const double per_iter_us = solve_s * 1e6 / iters;
    ctx_.set("cg.unattributed_frac", (per_iter_us - (matvec + 3 * allreduce + blas1)) / per_iter_us);
  }

 private:
  void compile(Ranks& r) {
    r.setup.add_rows(kSetupReps, r.p);
    r.inspector.add_rows(kSetupReps, r.p);
    runtime::Machine machine(r.p);
    machine.run([&](runtime::Process& p) {
      const auto k = static_cast<std::size_t>(p.rank());
      for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
        p.barrier();
        const long long t0 = now_ns();
        {
          SpanScope span(ctx_.tracer, "spmd.compile_dist_matvec", -1, static_cast<long long>(rep));
          r.kern[k] = std::make_unique<spmd::DistKernel>(spmd::compile_dist_matvec(p, prob_.a, *r.dist));
        }
        const long long t1 = now_ns();
        r.kern[k]->run(p, kTag);  // links the local plan
        r.inspector.rows[rep][k] = static_cast<double>(t1 - t0) * 1e-9;
        r.setup.rows[rep][k] = static_cast<double>(now_ns() - t0) * 1e-9;
      }
    });
  }

  // Solves from x = 0 until the budget is spent (at least one solve).
  // Every rank agrees on continuing through an allreduce outside the
  // timed region.
  void solves(Ranks& r, double budget_s, int e) {
    constexpr std::size_t kMax = 64;
    const std::size_t first = r.solve.rows.size();
    for (PerRank* pr : {&r.solve, &r.iters, &r.msgs, &r.bytes, &r.vtime}) pr->add_rows(kMax, r.p);
    std::size_t done = 0;
    std::vector<char> conv(static_cast<std::size_t>(r.p), 1);
    runtime::Machine machine(r.p);
    const long long deadline = now_ns() + static_cast<long long>(budget_s * 1e9);
    machine.run([&](runtime::Process& p) {
      const auto k = static_cast<std::size_t>(p.rank());
      solvers::CgOptions opts;
      opts.max_iterations = 20000;
      opts.tolerance = kTolerance;
      for (std::size_t s = 0;; ++s) {
        const bool want = s < kMax && (s == 0 || now_ns() < deadline);
        if (p.allreduce_max(want ? 1.0 : 0.0) <= 0) {
          if (k == 0) done = s;
          break;
        }
        std::fill(r.x[k].begin(), r.x[k].end(), 0.0);
        p.barrier();
        const runtime::CommStats c0 = p.stats();
        const double v0 = p.virtual_time();
        const long long t0 = now_ns();
        solvers::DistCgResult res;
        {
          SpanScope span(ctx_.tracer, "solvers.dist_cg_compiled", -1, e);
          res = solvers::dist_cg_compiled(p, *r.kern[k], r.d[k], r.b[k], r.x[k], opts);
        }
        const std::size_t row = first + s;
        r.solve.rows[row][k] = static_cast<double>(now_ns() - t0) * 1e-9;
        r.iters.rows[row][k] = res.iterations;
        const double it = std::max(res.iterations, 1);
        r.vtime.rows[row][k] = (p.virtual_time() - v0) / it;
        r.msgs.rows[row][k] = static_cast<double>(p.stats().messages - c0.messages) / it;
        r.bytes.rows[row][k] = static_cast<double>(p.stats().bytes - c0.bytes) / it;
        if (!res.converged) conv[k] = 0;
      }
    });
    for (PerRank* pr : {&r.solve, &r.iters, &r.msgs, &r.bytes, &r.vtime})
      pr->rows.resize(first + done);
    for (char c : conv)
      if (!c) r.converged = false;
  }

  // Layer probes: DistKernel::run, allreduce and the iteration's local
  // BLAS-1 (3 dots, 2 axpys, 1 xpby, 1 diagonal solve), each averaged over
  // a batch and taken as the max over ranks.
  void probes(Ranks& r) {
    constexpr std::size_t kBatches = 5;
    for (PerRank* pr : {&r.matvec, &r.allreduce, &r.blas1}) pr->add_rows(kBatches, r.p);
    runtime::Machine machine(r.p);
    machine.run([&](runtime::Process& p) {
      const auto k = static_cast<std::size_t>(p.rank());
      const std::size_t n = r.b[k].size();
      Vector u(n, 1.0), v(n, 0.5), z(n);
      double sink = 0;
      for (std::size_t batch = 0; batch < kBatches; ++batch) {
        p.barrier();
        long long t0 = now_ns();
        for (int i = 0; i < 20; ++i) {
          SpanScope span(ctx_.tracer, "spmd.DistKernel::run", -1, i);
          r.kern[k]->run(p, kTag);
        }
        r.matvec.rows[batch][k] = static_cast<double>(now_ns() - t0) * 1e-3 / 20;
        p.barrier();
        t0 = now_ns();
        for (int i = 0; i < 200; ++i) {
          SpanScope span(ctx_.tracer, "runtime.Process::allreduce_sum", -1, i);
          sink += p.allreduce_sum(1.0);
        }
        r.allreduce.rows[batch][k] = static_cast<double>(now_ns() - t0) * 1e-3 / 200;
        t0 = now_ns();
        for (int i = 0; i < 20; ++i) {
          SpanScope span(ctx_.tracer, "solvers.blas1", -1, i);
          sink += solvers::dot(u, v) + solvers::dot(v, v) + solvers::dot(u, u);
          solvers::axpy(1e-3, u, v);
          solvers::axpy(-1e-3, u, v);
          for (std::size_t j = 0; j < n; ++j) z[j] = v[j] / r.d[k][j];
          solvers::xpby(z, 0.5, u);
        }
        r.blas1.rows[batch][k] = static_cast<double>(now_ns() - t0) * 1e-3 / 20;
      }
      if (!std::isfinite(sink)) std::fprintf(stderr, "[cg] probe result not finite\n");
    });
  }

  Context& ctx_;
  CgProblem prob_;
  Ranks par_, ser_;
};

}  // namespace

std::unique_ptr<Phase> make_cg_solve(Context& ctx) { return std::make_unique<Cg>(ctx); }

}  // namespace perfbench
