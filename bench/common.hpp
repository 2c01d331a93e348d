// Shared machinery for the table/figure benches.
//
// Tables 2, 3 and Figure 4 all measure the same experiment family: the
// paper's synthetic 3-D 7-point-stencil problem with 5 degrees of freedom
// per point, BlockSolve-reordered, distributed BlockSolve-style (one row
// run per color per processor), weak-scaled so the per-processor problem
// size stays constant. This header builds that setup once per processor
// count and measures inspector/executor virtual times per variant.
#pragma once

#include <array>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "distrib/distribution.hpp"
#include "formats/blocksolve.hpp"
#include "formats/csr.hpp"
#include "solvers/dist_cg.hpp"
#include "spmd/matvec.hpp"
#include "support/metrics.hpp"
#include "support/profile.hpp"
#include "support/timer.hpp"
#include "support/trace_cli.hpp"
#include "workloads/bs_order.hpp"
#include "workloads/grid.hpp"

namespace bernoulli::bench {

/// The flags every bench spells identically, parsed in ONE place so a new
/// flag (like --metrics) lands in every tool at once:
///   --trace=<f> --comm-matrix --report=<f>   observability (ObsOptions)
///   --metrics=<f>   Prometheus text exposition of the serving-metrics
///                   registry, written by finish() at the end of the run
///   --profile=<f>   enables per-level time attribution for the whole run
///                   and writes collapsed-stack flamegraph lines
///                   (support/profile.hpp) from finish()
///   --engine=<e> --threads=<n> --small --check   engine-bench knobs
/// Arguments no shared flag claims land in `rest` for tool-specific
/// parsing (e.g. table2's --exec-json=), so parse() never rejects — except
/// a malformed --threads=, which exits 2 like any usage error.
struct Options {
  support::ObsOptions obs;
  std::string metrics_path;  // --metrics=<file>; empty = no exposition
  std::string profile_path;  // --profile=<file>; empty = profiling off
  std::string engine;        // --engine=<name>; empty = tool default
  int threads = 0;           // --threads=<n>; 0 = serial
  bool small = false;        // --small
  bool check = false;        // --check
  std::vector<std::string> rest;  // unclaimed argv entries, in order

  static Options parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (support::obs_parse_flag(arg, o.obs)) continue;
      if (std::strncmp(arg, "--metrics=", 10) == 0) {
        o.metrics_path = arg + 10;
      } else if (std::strncmp(arg, "--profile=", 10) == 0) {
        o.profile_path = arg + 10;
        support::set_profiling(true);
      } else if (std::strncmp(arg, "--engine=", 9) == 0) {
        o.engine = arg + 9;
      } else if (std::strncmp(arg, "--threads=", 10) == 0) {
        o.threads = std::atoi(arg + 10);
        if (o.threads < 1) {
          std::cerr << "error: " << arg << " (want --threads=<n>, n >= 1)\n";
          std::exit(2);
        }
      } else if (std::strcmp(arg, "--small") == 0) {
        o.small = true;
      } else if (std::strcmp(arg, "--check") == 0) {
        o.check = true;
      } else {
        o.rest.emplace_back(arg);
      }
    }
    return o;
  }

  /// End-of-main epilogue: writes the Prometheus exposition if --metrics
  /// asked for one. Called by each bench main directly (NOT from
  /// obs_end(): benches that skip the observability window still honor
  /// --metrics).
  void finish() const {
    if (!profile_path.empty()) {
      std::ofstream out(profile_path);
      out << support::profile_collapsed();
      if (!out) {
        std::cerr << "error: cannot write --profile file " << profile_path
                  << "\n";
        std::exit(1);
      }
      std::cerr << "profile: " << profile_path << " (collapsed stacks)\n";
    }
    if (metrics_path.empty()) return;
    if (!support::metrics_write_prometheus(metrics_path)) {
      std::cerr << "error: cannot write --metrics file " << metrics_path
                << "\n";
      std::exit(1);
    }
    std::cerr << "metrics: " << metrics_path << " (Prometheus text)\n";
  }
};

/// Weak-scaling grid dimensions: a 12^3 block of points (8640 unknowns at
/// 5 dof) per processor — the paper used a 30^3-per-processor problem
/// (27000 unknowns); we scale down ~3x per processor to fit a 4-vCPU host
/// simulating all ranks (up to 64), and scale the runtime's message cost
/// model so the modeled communication-to-computation balance matches the
/// paper's machine (see runtime::CostModel).
inline std::array<index_t, 3> grid_dims_for(int nprocs) {
  BERNOULLI_CHECK_MSG(
      nprocs >= 1 && nprocs <= 64,
      "weak-scaling configuration defined for 1..64 processors");
  // The grid grows along x only, so a contiguous (color-major) partition
  // gives every rank a slab with a CONSTANT 12x12 cross-section — per-rank
  // boundary, and hence inspector and communication work, stay flat in P,
  // which is the shape the paper's tables show.
  return {static_cast<index_t>(12 * nprocs), 12, 12};
}

struct Problem {
  formats::Csr matrix;           // BlockSolve-permuted matrix, CSR
  distrib::RowRunsDist rows;     // BlockSolve-style distribution
  index_t dof = 5;
};

/// Builds the Table-2/3 problem for `nprocs`: generate the grid matrix,
/// compute the BlockSolve ordering, permute, and distribute color-major.
inline Problem build_problem(int nprocs, index_t dof = 5) {
  auto dims = grid_dims_for(nprocs);
  auto g = workloads::grid3d_7pt(dims[0], dims[1], dims[2], dof,
                                 /*seed=*/97);
  formats::BsOrdering ord = workloads::blocksolve_ordering(g.matrix, dof);
  formats::BsMatrix bs = formats::BsMatrix::build(g.matrix, ord);
  formats::Coo permuted = bs.to_coo_permuted();
  distrib::RowRunsDist rows = distrib::rowruns_from_color_ptr(
      ord.color_ptr, permuted.rows(), nprocs);
  return Problem{formats::Csr::from_coo(permuted), std::move(rows), dof};
}

struct VariantTiming {
  double inspector_s = 0.0;       // max over ranks, virtual seconds
  double executor_s = 0.0;        // max over ranks, `iterations` CG steps
  double per_iteration_s = 0.0;
  double inspector_ratio = 0.0;   // inspector / one executor iteration
  long long inspector_bytes = 0;  // total modeled bytes the inspector moved

  // Communication accounting for estimate-vs-measured reports (filled by
  // measure_variant_calibrated).
  //
  // Predicted: what ONE ghost exchange should cost, derived from the
  // CommSchedules alone (sum over ranks: one message per peer with a
  // non-empty send list, sizeof(value_t) bytes per requested value).
  long long predicted_exchange_messages = 0;
  long long predicted_exchange_bytes = 0;
  int exchanges = 0;  // exchanges in the timed executor run (iters + 1)

  // Measured: runtime::CommStats totals summed over ranks — the timed
  // executor run alone, and every machine run the measurement performed
  // (for reconciling against the comm.* counter registry).
  long long executor_messages = 0;
  long long executor_bytes = 0;
  long long total_messages = 0;
  long long total_bytes = 0;
};

/// Runs the inspector once and `iterations` CG steps for one variant,
/// reporting per-rank-max virtual times. `repeats` re-runs the whole
/// measurement and keeps the fastest (to damp host noise).
inline VariantTiming measure_variant(const Problem& prob, int nprocs,
                                     spmd::Variant variant, int iterations,
                                     int repeats = 5) {
  const formats::Csr& a = prob.matrix;
  Vector diag = solvers::extract_diagonal(a);
  Vector b(static_cast<std::size_t>(a.rows()), 1.0);

  VariantTiming best;
  best.inspector_s = best.executor_s = 1e30;
  for (int rep = 0; rep < repeats; ++rep) {
    runtime::Machine machine(nprocs);
    std::vector<double> insp(static_cast<std::size_t>(nprocs), 0.0);
    std::vector<double> exec(static_cast<std::size_t>(nprocs), 0.0);
    std::vector<long long> insp_bytes(static_cast<std::size_t>(nprocs), 0);
    auto reports = machine.run([&](runtime::Process& p) {
      auto mine = prob.rows.owned_indices(p.rank());
      Vector bl(mine.size()), dl(mine.size()), xl(mine.size(), 0.0);
      for (std::size_t k = 0; k < mine.size(); ++k) {
        bl[k] = b[static_cast<std::size_t>(mine[k])];
        dl[k] = diag[static_cast<std::size_t>(mine[k])];
      }
      p.barrier();
      spmd::DistSpmv dist = [&] {
        support::ProfilePhaseScope prof(support::kProfPhaseInspector);
        return spmd::build_dist_spmv(p, a, prob.rows, variant);
      }();
      insp_bytes[static_cast<std::size_t>(p.rank())] = p.stats().bytes;
      double t1 = p.virtual_time();
      solvers::CgOptions opts;
      opts.max_iterations = iterations;
      opts.tolerance = -1.0;
      (void)solvers::dist_cg(p, dist, dl, bl, xl, opts);
      insp[static_cast<std::size_t>(p.rank())] = dist.inspector_vtime;
      exec[static_cast<std::size_t>(p.rank())] = p.virtual_time() - t1;
    });
    // Per-rank MEAN, not max: the load is balanced by construction, so on
    // a dedicated machine mean ~= max, but the max over many ranks
    // time-shared on one host core is dominated by whichever thread the
    // host scheduler disturbed most. Phases are then minimized over
    // repeats independently (their noise is uncorrelated).
    double isum = 0, esum = 0;
    long long bytes = 0;
    for (int r = 0; r < nprocs; ++r) {
      isum += insp[static_cast<std::size_t>(r)];
      esum += exec[static_cast<std::size_t>(r)];
      bytes += insp_bytes[static_cast<std::size_t>(r)];
      // Every repeat's traffic counts toward the totals, so the caller can
      // hand them to support::obs_end for reconciliation.
      best.total_messages += reports[static_cast<std::size_t>(r)].stats.messages;
      best.total_bytes += reports[static_cast<std::size_t>(r)].stats.bytes;
    }
    best.inspector_s = std::min(best.inspector_s, isum / nprocs);
    best.executor_s = std::min(best.executor_s, esum / nprocs);
    best.inspector_bytes = bytes;
  }
  best.per_iteration_s = best.executor_s / iterations;
  best.inspector_ratio =
      best.per_iteration_s > 0 ? best.inspector_s / best.per_iteration_s : 0;
  return best;
}

/// Best-of-k solo timing (single caller thread, nothing else running).
inline double best_seconds(const std::function<void()>& fn,
                           double budget_s = 0.02, int min_reps = 5) {
  double best = 1e30;
  double spent = 0.0;
  int reps = 0;
  while (reps < min_reps || (spent < budget_s && reps < 500)) {
    WallTimer t;
    fn();
    double s = t.seconds();
    best = std::min(best, s);
    spent += s;
    ++reps;
  }
  return best;
}

/// Calibrated executor measurement for Table 2's small (2-10%) contrasts:
/// kernel costs are timed SOLO per rank (quiet, best-of-k) and charged
/// deterministically through the virtual clock (manual-compute mode), so
/// the reported times are free of host-scheduling noise while still coming
/// from the real kernels on the real data. Communication remains modeled
/// by the runtime. Inspector time is reported from the in-situ build run.
inline VariantTiming measure_variant_calibrated(const Problem& prob,
                                                int nprocs,
                                                spmd::Variant variant,
                                                int iterations) {
  const formats::Csr& a = prob.matrix;
  Vector diag = solvers::extract_diagonal(a);
  Vector b(static_cast<std::size_t>(a.rows()), 1.0);

  // Phase 1: build every rank's executor state (inspector measured in-situ
  // with min-of-k over repeats; its contrasts are order-of-magnitude so
  // CPU-clock noise is tolerable).
  std::vector<spmd::DistSpmv> dists(static_cast<std::size_t>(nprocs));
  double inspector_best = 1e30;
  long long inspector_bytes = 0;
  long long all_messages = 0;
  long long all_bytes = 0;
  for (int rep = 0; rep < 3; ++rep) {
    runtime::Machine machine(nprocs);
    std::vector<double> insp(static_cast<std::size_t>(nprocs), 0.0);
    std::vector<long long> ibytes(static_cast<std::size_t>(nprocs), 0);
    auto reports = machine.run([&](runtime::Process& p) {
      p.barrier();
      spmd::DistSpmv d = [&] {
        support::ProfilePhaseScope prof(support::kProfPhaseInspector);
        return spmd::build_dist_spmv(p, a, prob.rows, variant);
      }();
      insp[static_cast<std::size_t>(p.rank())] = d.inspector_vtime;
      ibytes[static_cast<std::size_t>(p.rank())] = p.stats().bytes;
      if (rep == 0)
        dists[static_cast<std::size_t>(p.rank())] = std::move(d);
    });
    double isum = 0;
    long long btot = 0;
    for (int r = 0; r < nprocs; ++r) {
      isum += insp[static_cast<std::size_t>(r)];
      btot += ibytes[static_cast<std::size_t>(r)];
      all_messages += reports[static_cast<std::size_t>(r)].stats.messages;
      all_bytes += reports[static_cast<std::size_t>(r)].stats.bytes;
    }
    inspector_best = std::min(inspector_best, isum / nprocs);
    inspector_bytes = btot;
  }

  // Phase 2: solo calibration. Each rank's kernel cost is proportional to
  // its entry count, so calibrate per-entry RATES and take the min across
  // ranks (timing noise is strictly additive, and 2-64 independent samples
  // make the min robust against host stalls hitting any one rank's
  // calibration window); each rank is then charged rate * its_size.
  double rate_local = 1e30, rate_nonlocal = 1e30, rate_blas = 1e30;
  for (int r = 0; r < nprocs; ++r) {
    auto& d = dists[static_cast<std::size_t>(r)];
    const auto full = static_cast<std::size_t>(d.sched.full_size());
    const auto n = static_cast<std::size_t>(d.local_rows());
    Vector x_full(full), y(n);
    for (std::size_t i = 0; i < full; ++i)
      x_full[i] = 1.0 + 1e-3 * static_cast<double>(i % 13);
    if (d.a_local.nnz() > 0)
      rate_local = std::min(
          rate_local, best_seconds([&] { d.compute_local(x_full, y); }) /
                          d.a_local.nnz());
    if (d.a_nonlocal.nnz() > 0)
      rate_nonlocal = std::min(
          rate_nonlocal, best_seconds([&] { d.compute_nonlocal(x_full, y); }) /
                             d.a_nonlocal.nnz());
    // One iteration's BLAS-1 work: 3 dots, 2 axpys, 1 xpby, 1 divide.
    Vector u(n, 1.0), v(n, 2.0);
    volatile value_t sink = 0.0;
    rate_blas = std::min(rate_blas, best_seconds([&] {
                           sink = sink + solvers::dot(u, v) +
                                  solvers::dot(u, u) + solvers::dot(v, v);
                           solvers::axpy(0.5, u, v);
                           solvers::axpy(-0.5, u, v);
                           solvers::xpby(u, 0.5, v);
                           for (std::size_t i = 0; i < n; ++i)
                             v[i] = u[i] / 2.0;
                         }) / static_cast<double>(n));
  }
  std::vector<double> blas_charge(static_cast<std::size_t>(nprocs), 0.0);
  for (int r = 0; r < nprocs; ++r) {
    auto& d = dists[static_cast<std::size_t>(r)];
    d.charge.local = rate_local * d.a_local.nnz();
    d.charge.nonlocal = rate_nonlocal * d.a_nonlocal.nnz();
    blas_charge[static_cast<std::size_t>(r)] =
        rate_blas * static_cast<double>(d.local_rows());
  }

  // Phase 3: deterministic timed run.
  VariantTiming out;
  out.inspector_s = inspector_best;
  out.inspector_bytes = inspector_bytes;

  // Predicted cost of one ghost exchange, from the schedules alone.
  for (int r = 0; r < nprocs; ++r) {
    const auto& s = dists[static_cast<std::size_t>(r)].sched;
    for (const auto& list : s.send_local) {
      if (list.empty()) continue;
      ++out.predicted_exchange_messages;
      out.predicted_exchange_bytes +=
          static_cast<long long>(list.size() * sizeof(value_t));
    }
  }
  // dist_cg applies the operator once to form r = b - Ax, then once per
  // iteration.
  out.exchanges = iterations + 1;

  {
    runtime::Machine machine(nprocs);
    std::vector<double> exec(static_cast<std::size_t>(nprocs), 0.0);
    auto reports = machine.run([&](runtime::Process& p) {
      const auto& d = dists[static_cast<std::size_t>(p.rank())];
      auto mine = prob.rows.owned_indices(p.rank());
      Vector bl(mine.size()), dl(mine.size()), xl(mine.size(), 0.0);
      for (std::size_t k = 0; k < mine.size(); ++k) {
        bl[k] = b[static_cast<std::size_t>(mine[k])];
        dl[k] = diag[static_cast<std::size_t>(mine[k])];
      }
      p.barrier();
      p.set_manual_compute(true);
      double t0 = p.virtual_time();
      solvers::CgOptions opts;
      opts.max_iterations = iterations;
      opts.tolerance = -1.0;
      opts.blas1_charge_per_iteration =
          blas_charge[static_cast<std::size_t>(p.rank())];
      (void)solvers::dist_cg(p, d, dl, bl, xl, opts);
      exec[static_cast<std::size_t>(p.rank())] = p.virtual_time() - t0;
      p.set_manual_compute(false);
    });
    double emax = 0;
    for (int r = 0; r < nprocs; ++r) {
      emax = std::max(emax, exec[static_cast<std::size_t>(r)]);
      out.executor_messages +=
          reports[static_cast<std::size_t>(r)].stats.messages;
      out.executor_bytes += reports[static_cast<std::size_t>(r)].stats.bytes;
    }
    out.executor_s = emax;
    all_messages += out.executor_messages;
    all_bytes += out.executor_bytes;
  }
  out.total_messages = all_messages;
  out.total_bytes = all_bytes;
  out.per_iteration_s = out.executor_s / iterations;
  out.inspector_ratio =
      out.per_iteration_s > 0 ? out.inspector_s / out.per_iteration_s : 0;
  return out;
}

}  // namespace bernoulli::bench
