#include "solvers/dist_cg.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "analysis/hooks.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/profile.hpp"
#include "support/trace.hpp"

namespace bernoulli::solvers {

namespace {

constexpr int kCgTag = 9301;

// The PCG recurrence, generic in the distributed matvec: `matvec()` sets
// q = A * pv over local slices, where pv and q are the matvec's own input
// and output buffers, so no vector is copied in or out per iteration. Both
// the hand-written DistSpmv path and the compiled DistKernel path run
// exactly this loop, so they match iterate-for-iterate.
template <class MatvecFn>
DistCgResult run_pcg(runtime::Process& p, VectorView pv, ConstVectorView q,
                     const MatvecFn& matvec,
                     const Preconditioner& precond_local,
                     ConstVectorView b_local, VectorView x_local,
                     const CgOptions& opts) {
  const std::size_t n = pv.size();
  BERNOULLI_CHECK(q.size() == n && b_local.size() == n &&
                  x_local.size() == n);

  // The whole solve is executor-phase work (the inspector ran inside
  // build_dist_spmv / compile_dist_matvec): its allreduces and exchanges
  // are attributed to comm.executor.* / vtime.executor.*.
  support::PhaseScope counter_phase("executor");
  support::TraceSpan solve_span("cg.solve", "solvers");

  Vector r(n), z(n);

  auto gdot = [&](ConstVectorView u, ConstVectorView v) {
    return p.allreduce_sum(dot(u, v));
  };

  // Phase attribution (support/profile.hpp): the matvec — exchange
  // included — is the compute phase; the exchange inside it books its own
  // nested interval, so compute-minus-exchange is the local flops share.
  auto timed_matvec = [&] {
    support::ProfilePhaseScope prof(support::kProfPhaseCompute);
    matvec();
  };

  // r = b - A x
  std::copy(x_local.begin(), x_local.end(), pv.begin());
  timed_matvec();
  for (std::size_t i = 0; i < n; ++i) r[i] = b_local[i] - q[i];
  precond_local(r, z);
  std::copy(z.begin(), z.end(), pv.begin());
  value_t rz = gdot(r, z);
  const value_t bnorm = std::sqrt(gdot(b_local, b_local));
  const value_t threshold =
      opts.tolerance > 0 ? opts.tolerance * (bnorm > 0 ? bnorm : 1.0) : -1.0;

  support::Counter& iterations = support::counter("cg.iterations");
  support::MetricGauge& residual = support::metric_gauge("cg.residual");
  support::LatencyHistogram& iteration_latency =
      support::metric_latency("cg.iteration.latency");
  DistCgResult result;
  for (int it = 0; it < opts.max_iterations; ++it) {
    support::TraceSpan iter_span("cg.iteration", "solvers");
    iter_span.arg("it", static_cast<long long>(it));
    // Serving metrics per solver iteration: wall latency histogram,
    // iteration rate, and the current residual as a gauge — the admission
    // stats a KernelServer needs from a long-running solve.
    const auto iter_t0 = std::chrono::steady_clock::now();
    iterations.add(1);
    result.residual_norm = std::sqrt(gdot(r, r));
    iter_span.arg("residual", result.residual_norm);
    residual.set(result.residual_norm);
    const auto book_iter = [&] {
      iteration_latency.record_ns(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - iter_t0)
              .count());
    };
    if (threshold >= 0 && result.residual_norm <= threshold) {
      result.converged = true;
      book_iter();
      return result;
    }
    timed_matvec();
    value_t pq = gdot(pv, q);
    BERNOULLI_CHECK_MSG(pq != 0.0, "CG breakdown: p'Ap == 0");
    value_t alpha = rz / pq;
    axpy(alpha, pv, x_local);
    axpy(-alpha, q, r);
    precond_local(r, z);
    value_t rz_new = gdot(r, z);
    xpby(z, rz_new / rz, pv);
    rz = rz_new;
    if (opts.blas1_charge_per_iteration >= 0)
      p.charge_seconds(opts.blas1_charge_per_iteration);
    result.iterations = it + 1;
    book_iter();
  }
  result.residual_norm = std::sqrt(gdot(r, r));
  result.converged = threshold >= 0 && result.residual_norm <= threshold;
  return result;
}

Preconditioner diagonal_precond(ConstVectorView diag_local) {
  for (value_t d : diag_local) BERNOULLI_CHECK(d != 0.0);
  return [diag_local](ConstVectorView r, VectorView z) {
    for (std::size_t i = 0; i < z.size(); ++i) z[i] = r[i] / diag_local[i];
  };
}

}  // namespace

DistCgResult dist_cg_preconditioned(runtime::Process& p,
                                    const spmd::DistSpmv& a,
                                    const Preconditioner& precond_local,
                                    ConstVectorView b_local,
                                    VectorView x_local,
                                    const CgOptions& opts) {
  const auto n = static_cast<std::size_t>(a.local_rows());
  Vector x_full(static_cast<std::size_t>(a.sched.full_size()), 0.0);
  Vector q(n);
  auto matvec = [&] { a.apply(p, x_full, q, kCgTag); };
  return run_pcg(p, VectorView(x_full).first(n), q, matvec, precond_local,
                 b_local, x_local, opts);
}

DistCgResult dist_cg(runtime::Process& p, const spmd::DistSpmv& a,
                     ConstVectorView diag_local, ConstVectorView b_local,
                     VectorView x_local, const CgOptions& opts) {
  const auto n = static_cast<std::size_t>(a.local_rows());
  BERNOULLI_CHECK(diag_local.size() == n);
  return dist_cg_preconditioned(p, a, diagonal_precond(diag_local), b_local,
                                x_local, opts);
}

DistCgResult dist_cg_compiled(runtime::Process& p, spmd::DistKernel& a,
                              ConstVectorView diag_local,
                              ConstVectorView b_local, VectorView x_local,
                              const CgOptions& opts) {
  const auto n = static_cast<std::size_t>(a.local_rows());
  BERNOULLI_CHECK(diag_local.size() == n);
  auto matvec = [&] { a.run(p, kCgTag); };

  // Run-report hooks (analysis/hooks.hpp): every rank records its own
  // SolveRecord, with comm/vtime measured as deltas around the solve.
  // One atomic load when nobody is observing.
  const bool hooked = analysis::solve_hooks_active();
  analysis::SolveRecord rec;
  long long messages0 = 0, bytes0 = 0;
  double vtime0 = 0.0;
  if (hooked) {
    rec.solver = "dist_cg_compiled";
    rec.rank = p.rank();
    rec.nprocs = p.nprocs();
    rec.plan_explain_json = a.explain_json();
    messages0 = p.stats().messages;
    bytes0 = p.stats().bytes;
    vtime0 = p.virtual_time();
    analysis::notify_solve_pre(rec);
  }

  DistCgResult result =
      run_pcg(p, a.x_owned(), a.y_local(), matvec,
              diagonal_precond(diag_local), b_local, x_local, opts);

  if (hooked) {
    rec.iterations = result.iterations;
    rec.residual_norm = result.residual_norm;
    rec.converged = result.converged;
    rec.messages = p.stats().messages - messages0;
    rec.bytes = p.stats().bytes - bytes0;
    rec.vtime_s = p.virtual_time() - vtime0;
    analysis::notify_solve_post(rec);
  }
  return result;
}

}  // namespace bernoulli::solvers
